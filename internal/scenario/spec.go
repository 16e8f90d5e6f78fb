// Package scenario is the declarative scenario harness: a topology spec
// (YAML or JSON) describes servers, load generators, fault injections,
// run phases, and expected SLOs; the harness materializes the fleet
// in-process, runs it, and emits one gate-comparable record per
// measured configuration.
//
// Two engines share the spec language. The "sim" engine runs a workload
// on the deterministic discrete-event simulator: the benchmark gate's
// scenarios (scenarios/*.yaml) are expressed this way, and the rows of
// internal/bench's tables are measured through the same specs
// (MeasureSim), so a table cell and a gate record of one workload and
// policy are one number. The "live" engine builds
// real sws/sfs servers on the mely runtime, drives them with
// internal/loadgen clients over loopback TCP, and checks wall-clock
// SLOs (p99 latency, error rate, max RSS).
package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/melyruntime/mely/internal/workload"
)

// Spec is one parsed scenario. The zero value of every optional field
// means "use the documented default" (docs/topology-schema.md).
type Spec struct {
	// Name keys the scenario's gate records (GateEntry.Experiment).
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Engine selects the materialization: "sim" or "live".
	Engine string `json:"engine"`
	// Seed overrides the run seed (0 = inherit the harness seed, which
	// defaults to 42 — the gate baseline's seed).
	Seed int64 `json:"seed,omitempty"`

	// Sim configures the sim engine (required when Engine is "sim").
	Sim *SimSpec `json:"sim,omitempty"`

	// Servers and Loads describe the live fleet (Engine "live").
	Servers []ServerSpec `json:"servers,omitempty"`
	Loads   []LoadSpec   `json:"loads,omitempty"`

	// Phases order the run. Sim phases are measured in virtual cycles,
	// live phases in wall-clock durations. Exactly one phase carries
	// measure: true — its window produces the gate record.
	Phases []PhaseSpec `json:"phases,omitempty"`

	// Faults are injected while the run executes.
	Faults []FaultSpec `json:"faults,omitempty"`

	// SLOs are asserted after the run; a violated SLO fails the
	// scenario (and therefore the gate) loudly.
	SLOs []SLOSpec `json:"slos,omitempty"`
}

// SimSpec selects a simulator workload and the policies to measure.
// Exactly one parameter block — the one matching Workload — may be set;
// a nil block means the paper-calibrated defaults. The paper's three
// microbenchmarks are parameterized by their internal/workload specs
// themselves.
type SimSpec struct {
	// Workload is one of unbalanced, penalty, cacheeff, timer,
	// connscale, overload (the registry in sim.go).
	Workload string `json:"workload"`
	// Policies are paper-style configuration names (policy.Parse):
	// "mely", "mely-baseWS", "mely+timeleft-WS",
	// "mely+timeleft-WS+batchsteal", ... One record is emitted per
	// policy.
	Policies []string `json:"policies"`

	Unbalanced *workload.UnbalancedSpec     `json:"unbalanced,omitempty"`
	Penalty    *workload.PenaltySpec        `json:"penalty,omitempty"`
	CacheEff   *workload.CacheEfficientSpec `json:"cacheeff,omitempty"`
	Timer      *TimerParams                 `json:"timer,omitempty"`
	ConnScale  *ConnScaleParams             `json:"connscale,omitempty"`
	Overload   *OverloadParams              `json:"overload,omitempty"`
}

// TimerParams parameterizes the deadline-driven closed loop (zero =
// the default measureTimer documents).
type TimerParams struct {
	// Clients is the closed-loop client count (under -quick the harness
	// scales it to Clients/4*3).
	Clients   int   `json:"clients,omitempty"`
	WorkCost  int64 `json:"work_cost,omitempty"`
	ThinkCost int64 `json:"think_cost,omitempty"`
	ThinkSpan int64 `json:"think_span,omitempty"`
}

// ConnScaleParams parameterizes the C10K-style mostly-idle loop (zero =
// the default measureConnScale documents).
type ConnScaleParams struct {
	// Conns is the connection-color population (under -quick the
	// harness divides it by 4).
	Conns     int   `json:"conns,omitempty"`
	WorkCost  int64 `json:"work_cost,omitempty"`
	ThinkCost int64 `json:"think_cost,omitempty"`
	ThinkSpan int64 `json:"think_span,omitempty"`
}

// OverloadParams parameterizes the bounded-queue spill workload.
type OverloadParams struct {
	// Bound models MaxQueuedEvents (default 1024); the reload threshold
	// and batch size follow from it as they do in the runtime.
	Bound int `json:"bound,omitempty"`
	// Colors is the skewed work-color count (default 8).
	Colors int `json:"colors,omitempty"`
	// Tick is the producer period in cycles (default 100000).
	Tick int64 `json:"tick,omitempty"`
	// PerTick is events per tick (default 160 — 2x the 8-core service
	// rate).
	PerTick int `json:"per_tick,omitempty"`
	// Ticks is the burst length (default 100; under -quick the
	// harness divides it by 4).
	Ticks int `json:"ticks,omitempty"`
	// WorkCost is cycles per work event (default 10000).
	WorkCost int64 `json:"work_cost,omitempty"`
	// ProdCost is producer bookkeeping per tick (default 5000).
	ProdCost int64 `json:"prod_cost,omitempty"`
}

// ServerSpec declares one live server of the fleet.
type ServerSpec struct {
	Name string `json:"name"`
	// Kind is "sws" (the Web server) or "sfs" (the secure file server).
	Kind string `json:"kind"`
	// Cores is the worker-core count (0 = GOMAXPROCS).
	Cores int `json:"cores,omitempty"`
	// Policy is a live policy name: melyws (default), mely,
	// melybasews, libasync, libasyncws — or the paper-style spelling
	// accepted by the sim engine.
	Policy string `json:"policy,omitempty"`
	// Backend selects the netpoll backend for sws: auto (default),
	// epoll, pumps.
	Backend string `json:"backend,omitempty"`
	// PollerShards sets the epoll reactor shard count (0 = NumCPU).
	PollerShards int `json:"poller_shards,omitempty"`
	// Files and FileBytes size the served content: sws serves Files
	// distinct files of FileBytes each (defaults 150 x 1024, the
	// paper's corpus); sfs serves one /data file of FileBytes
	// (default 1 MiB).
	Files     int `json:"files,omitempty"`
	FileBytes int `json:"file_bytes,omitempty"`
	// MaxClients bounds simultaneous connections (0 = unlimited).
	MaxClients int `json:"max_clients,omitempty"`
	// IdleTimeout reaps idle connections ("0s" = never; default never).
	IdleTimeout string `json:"idle_timeout,omitempty"`
	// Overload-control wiring (mely.Config).
	MaxQueued      int    `json:"max_queued,omitempty"`
	MaxQueuedColor int    `json:"max_queued_color,omitempty"`
	Overload       string `json:"overload,omitempty"` // reject|block|spill
	SpillDir       string `json:"spill_dir,omitempty"`
	// ShedOverload answers 503 (sws) or an OVERLOADED status (sfs)
	// while the runtime is saturated instead of queueing more work.
	ShedOverload bool `json:"shed_overload,omitempty"`
	// PSK is the sfs pre-shared key (default "scenario").
	PSK string `json:"psk,omitempty"`
	// CryptoPenalty is the sfs crypto handler's ws_penalty annotation.
	CryptoPenalty int `json:"crypto_penalty,omitempty"`
	// StallThreshold arms the runtime's stall watchdog: a handler stuck
	// longer than this is flagged, feeding the stall-recurrence anomaly
	// detector ("" = watchdog off).
	StallThreshold string `json:"stall_threshold,omitempty"`
	// ObsInterval overrides the timeseries sampling period used when a
	// health SLO (health_ok / max_anomalies / min_anomalies) arms the
	// collector (default 50ms).
	ObsInterval string `json:"obs_interval,omitempty"`
}

// LoadSpec declares one load generator of the fleet.
type LoadSpec struct {
	// Server names the ServerSpec this generator drives.
	Server string `json:"server"`
	// Phase names the phase the load runs in (default: the measure
	// phase).
	Phase string `json:"phase,omitempty"`
	// Mode is "closed" (default: one request awaits its response) or
	// "open" (pipelined bursts decoupled from service rate; requires
	// burst > 0).
	Mode string `json:"mode,omitempty"`
	// Clients is the concurrent virtual-client count.
	Clients int `json:"clients"`
	// RequestsPerConn reconnects each client after this many requests
	// (default 150, the paper's figure).
	RequestsPerConn int `json:"requests_per_conn,omitempty"`
	// Paths overrides the request mix (default: the server's corpus,
	// round-robin).
	Paths []string `json:"paths,omitempty"`
	// Think/ThinkJitter pause each client between requests.
	Think       string `json:"think,omitempty"`
	ThinkJitter string `json:"think_jitter,omitempty"`
	// IdleConns holds this many extra silent connections open (the
	// C10K shape).
	IdleConns int `json:"idle_conns,omitempty"`
	// Burst pipelines this many requests per gulp in open mode.
	Burst      int    `json:"burst,omitempty"`
	BurstPause string `json:"burst_pause,omitempty"`
	// Chunk and ReadAhead shape sfs reads (defaults 64 KiB, window 4).
	Chunk     int `json:"chunk,omitempty"`
	ReadAhead int `json:"read_ahead,omitempty"`
}

// PhaseSpec is one step of the run.
type PhaseSpec struct {
	Name string `json:"name"`
	// Cycles is the phase length in virtual cycles (sim; divided by 10
	// under -quick, Options.Windows).
	Cycles int64 `json:"cycles,omitempty"`
	// Duration is the phase length in wall-clock time (live; divided
	// by 4 under -quick).
	Duration string `json:"duration,omitempty"`
	// Measure marks the measurement window (exactly one per spec).
	Measure bool `json:"measure,omitempty"`
	// Drain runs the sim to full quiescence (overload workload only:
	// every spilled event must reload and execute).
	Drain bool `json:"drain,omitempty"`
}

// FaultSpec is one fault injection.
type FaultSpec struct {
	// Type is one of slow-handler, spill-disk-latency,
	// spill-crash-restart (sim), or slow-handler, conn-churn,
	// core-pressure (live).
	Type string `json:"type"`
	// Phase restricts a live fault to one phase (default: whole run).
	// Sim faults are deterministic cost perturbations active for the
	// whole run, so Phase must be empty for them.
	Phase string `json:"phase,omitempty"`
	// Server names the target server (live conn-churn; default: the
	// first server).
	Server string `json:"server,omitempty"`
	// ExtraCycles is the sim perturbation: added to every EveryNth-th
	// work event (slow-handler) or charged per spill append and per
	// reload batch (spill-disk-latency).
	ExtraCycles int64 `json:"extra_cycles,omitempty"`
	// EveryNth stalls every Nth event/request (default 1 = all).
	EveryNth int `json:"every_nth,omitempty"`
	// AtSpilled arms the sim spill-crash-restart fault: after the
	// AtSpilled-th record spills, the live store is abandoned exactly
	// as a killed process would leave it and a fresh store recovers
	// the directory (overload workload, SyncAlways). The run is
	// charged a fixed restart cost, so a faulted scenario stays
	// deterministic and gate-comparable.
	AtSpilled int `json:"at_spilled,omitempty"`
	// Stall is the live slow-handler sleep per stalled request.
	Stall string `json:"stall,omitempty"`
	// Rate is the live conn-churn dial rate, connections per second.
	Rate int `json:"rate,omitempty"`
	// Spinners is the live core-pressure busy-goroutine count.
	Spinners int `json:"spinners,omitempty"`
}

// SLOSpec is one post-run assertion, attached to a declared phase.
type SLOSpec struct {
	// Phase names the phase the SLO is evaluated over (required; an
	// SLO without a matching phase is a validation error).
	Phase string `json:"phase"`
	// ZeroLoss asserts produced == consumed, spilled == reloaded, and
	// a full drain (sim overload workload, drain phase).
	ZeroLoss bool `json:"zero_loss,omitempty"`
	// MaxInMem asserts the in-memory event bound was never exceeded
	// (sim overload workload).
	MaxInMem int `json:"max_inmem,omitempty"`
	// MinKEventsPerSec floors the measured throughput (KEvents/s on
	// sim, KRequests/s on live).
	MinKEventsPerSec float64 `json:"min_kevents_per_sec,omitempty"`
	// MaxP99 caps the 99th-percentile request latency (live).
	MaxP99 string `json:"max_p99,omitempty"`
	// MaxErrorRatePct caps errors as a percentage of requests (live).
	MaxErrorRatePct float64 `json:"max_error_rate_pct,omitempty"`
	// MaxRSSMB caps the sampled peak heap footprint (live).
	MaxRSSMB int `json:"max_rss_mb,omitempty"`
	// MaxQueueDelayP99 caps the server-side sampled queue-delay p99 —
	// the post→execute wait inside the runtime, not the client-visible
	// latency — gated by scraping each server's live /metrics endpoint
	// after the measure phase (live). Declaring it forces every
	// server's runtime to ObsSampleRate 1 so quick runs have samples.
	MaxQueueDelayP99 string `json:"max_queue_delay_p99,omitempty"`
	// MaxChainDepth caps the deepest causal chain (root→leaf hops)
	// reconstructed from each server's flight-recorder dump, scraped
	// from /debug/trace after the measure phase (live). Declaring it —
	// or chain_complete — mounts every server's debug listener.
	MaxChainDepth int `json:"max_chain_depth,omitempty"`
	// ChainComplete asserts the busiest trace in each server's
	// post-measure dump is fully connected: no span claims a parent
	// absent from the dump (live).
	ChainComplete bool `json:"chain_complete,omitempty"`
	// HealthOK gates on the live health engine over each server's real
	// /debug/health endpoint, polled throughout the run: true asserts
	// every poll answered 200 (no anomaly ever fired); false asserts at
	// least one poll answered 503 — the shape of a fault-injection
	// scenario that expects its fault to be DETECTED. Declaring any
	// health SLO arms every server's timeseries collector
	// (ServerSpec.ObsInterval, default 50ms) and mounts its debug
	// listener.
	HealthOK *bool `json:"health_ok,omitempty"`
	// MaxAnomalies caps the fleet-wide anomaly episode count reported by
	// the final health scrape (live; a pointer so 0 — "no anomalies at
	// all" — is assertable).
	MaxAnomalies *int `json:"max_anomalies,omitempty"`
	// MinAnomalies floors the fleet-wide anomaly episode count (live) —
	// the detection gate of fault-injection scenarios.
	MinAnomalies int `json:"min_anomalies,omitempty"`
}

// Load reads, parses, and validates one spec file (.yaml, .yml, or
// .json).
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Parse(data, strings.EqualFold(filepath.Ext(path), ".json"))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Parse decodes and validates one spec document.
func Parse(data []byte, isJSON bool) (*Spec, error) {
	raw := data
	if !isJSON {
		doc, err := decodeYAML(data)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
		raw, err = json.Marshal(doc)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
