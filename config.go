package mely

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/melyruntime/mely/internal/policy"
	"github.com/melyruntime/mely/internal/topology"
)

// Color is an event-coloring annotation: events with equal colors run
// serially, events with different colors may run concurrently. Color 0
// (DefaultColor) serializes everything posted without a color choice.
// The space is 64-bit so identifiers — connection ids, request ids,
// object keys — color events directly, with no wraparound ever aliasing
// two serialization domains.
type Color uint64

// DefaultColor is the color of unannotated events.
const DefaultColor Color = 0

// Policy selects the queue layout and workstealing algorithm, matching
// the configurations evaluated in the paper. Batch stealing is
// orthogonal to the policy choice: the runtime applies it on top of
// every stealing policy — including the Libasync-smp baselines, whose
// original protocol moved one color per steal. The paper's protocol,
// one color per steal, is the simulator's (internal/sim), which
// regenerates the paper's tables; its ablate-batchsteal experiment
// compares the two.
type Policy int

const (
	// PolicyMelyWS is Mely with all three heuristics (the paper's
	// recommended configuration and the default).
	PolicyMelyWS Policy = iota + 1
	// PolicyMely is Mely without workstealing.
	PolicyMely
	// PolicyMelyBaseWS is Mely's queues with the naive Libasync-smp
	// stealing algorithm.
	PolicyMelyBaseWS
	// PolicyMelyTimeLeftWS enables only the time-left heuristic.
	PolicyMelyTimeLeftWS
	// PolicyMelyPenaltyWS enables time-left plus penalty-aware.
	PolicyMelyPenaltyWS
	// PolicyMelyLocalityWS enables only locality-aware victim order.
	PolicyMelyLocalityWS
	// PolicyLibasync is the Libasync-smp baseline without stealing.
	PolicyLibasync
	// PolicyLibasyncWS is the Libasync-smp baseline with its stealing.
	PolicyLibasyncWS
)

// String names the policy like the paper's tables.
func (p Policy) String() string { return p.internal().String() }

func (p Policy) internal() policy.Config {
	if p == 0 {
		p = PolicyMelyWS
	}
	if p < 0 || int(p) > len(policy.Presets) {
		return policy.Config{}
	}
	return policy.Presets[p-1].Config // the table is in this enum's order
}

// ParsePolicy parses a policy name in either spelling, case-insensitively:
// the one-word alias (melyws, mely, melybasews, melytimeleftws,
// melypenaltyws, melylocalityws, libasync, libasyncws) or the paper-style
// name Policy.String prints (mely+timeleft-WS). "" is PolicyMelyWS.
func ParsePolicy(s string) (Policy, error) {
	if s == "" {
		return PolicyMelyWS, nil
	}
	if i := policy.Lookup(s); i >= 0 {
		return Policy(i + 1), nil
	}
	return 0, fmt.Errorf("mely: unknown policy %q (%s)", s, policy.Aliases())
}

// Config configures a Runtime. The zero value is ready for production:
// one worker per CPU, the full Mely policy, topology discovered from
// the host.
type Config struct {
	// Cores is the number of worker goroutines (default GOMAXPROCS).
	Cores int
	// Policy selects the scheduling configuration (default PolicyMelyWS).
	Policy Policy
	// Pin requests best-effort CPU pinning of the workers (Linux). A
	// pinned worker is locked to an OS thread, because sched_setaffinity
	// acts on threads, and waking a parked locked thread is a futex wake
	// plus a processor hand-off where an unpinned worker is a run-queue
	// insert: ~12µs against ~1µs from Post to handler entry
	// (BenchmarkWakeLatency), ~68µs against ~21µs for a request through
	// parked workers on a 2-CPU loopback host (sws_closed lat_p50_us).
	// Pin buys cache locality under sustained load and pays for it in
	// wake-up latency on a mostly idle server.
	Pin bool
	// The six fields below are constants to users of the package, fixed
	// by withDefaults; they are fields so tests can make a park last an
	// hour or 50µs, a private run end sooner, a timer tick finer, or a
	// steal take one color.
	//
	// batchThreshold caps consecutive same-color events on a core (10,
	// the paper's setting). Only meaningful for Mely layouts.
	batchThreshold int
	// stealCostSeed seeds the steal-cost estimate before the runtime
	// has measured real steals (2µs).
	stealCostSeed time.Duration
	// parkTimeout is the longest sleep of a worker that found neither
	// local work nor anything to steal (500µs). A parked worker wakes on
	// a post to its core, on a timer armed or reset ahead of its wheel's
	// earliest deadline, and on Stop — none of these wait for the
	// timeout. Nothing wakes it for work queued on another core, so the
	// timeout (with stealBackoff beneath it) is the interval at which an
	// idle worker re-probes its neighbors for something to steal.
	parkTimeout time.Duration
	// maxStealColors caps how many colors one steal attempt migrates
	// (policy.DefaultMaxStealColors): a steal takes up to half the
	// victim's stealable colors in a single victim-lock critical
	// section, amortizing the per-color lock, table, and wakeup costs.
	// 1 is the paper's single-color steal protocol.
	maxStealColors int
	// stealBackoff is the initial pause (10µs) of the exponential
	// backoff a worker applies when consecutive steal probes find
	// nothing: each further fruitless round doubles the pause up to
	// parkTimeout, and any success resets it — throttling steal storms
	// when many cores go idle together.
	stealBackoff time.Duration
	// timerTick is the granularity of the per-core timing wheels behind
	// PostAfter/PostAt/PostEvery (1ms): timers fire on the next tick at
	// or after their deadline, so the tick bounds the structural firing
	// lag. The wheels are four levels deep (timerwheel.DefaultLevels),
	// each level multiplying the horizon by 64: 1ms ticks cover ~4.7
	// hours before deadlines park in the top level and pay extra
	// cascades (still correct, just costlier).
	timerTick time.Duration

	// ObsSampleRate is the live-observability sampling period: one in
	// every ObsSampleRate posted events carries a timestamp from post to
	// execution, feeding the per-core queue-delay and execution-time
	// histograms (Stats.Cores[i].QueueDelayHist / ExecTimeHist) and the
	// per-color delay attribution. The one-in-N count runs per posting
	// core for posts made on a worker (Ctx.Post, timer firings, spill
	// reloads) and on one shared sequence for every other poster, so
	// each posting source is sampled at the rate on its own. Rounded up
	// to a power of two. 0 means
	// the default of 64 (≈1.6% of events, within noise of the posting
	// hot path); 1 samples every event; negative disables the latency
	// histograms entirely.
	ObsSampleRate int
	// TraceRing is the per-core flight-recorder capacity in records
	// (rounded up to a power of two). The recorder is always on: every
	// execution, steal, re-home, spill, reload, timer firing, and poll
	// wakeup appends one fixed-size record, overwriting the oldest, and
	// Runtime.DumpTrace renders the rings as Chrome trace JSON on
	// demand. 0 means the default of 4096 records per core (~128 KiB
	// per core); negative disables the recorder.
	TraceRing int
	// StallThreshold arms the stall watchdog: a sampler goroutine that
	// checks each core's last-progress stamp and, when a handler has
	// been executing longer than the threshold, emits a KindStall
	// flight-recorder record carrying the stalled span's trace id,
	// captures a full goroutine stack (Runtime.LastStallStack), counts
	// the episode (Stats mely_stalls_total / mely_stalled_cores), and —
	// if IncidentDir is set — captures an incident bundle, flight
	// recorder included. One record per episode: a core stuck in one
	// handler is reported once until that handler returns. 0 (the
	// default) disables the watchdog entirely; thresholds under 1ms are
	// rejected (the stamp check runs at threshold/4, floored at 10ms —
	// finer stalls need a profiler, not a watchdog).
	StallThreshold time.Duration

	// ObsInterval arms the metrics time-series collector: every
	// interval a collector goroutine snapshots Stats into a
	// fixed-memory ring of ObsHistory samples, derives per-window rates
	// and latency quantiles (/debug/timeseries, the mely_*_rate
	// gauges), and runs the health detectors over the window
	// (Runtime.Health, /debug/health). 0 (the default) disables all of
	// it — a bare runtime pays nothing, not even the ring's memory.
	// Intervals under 1ms are rejected; 1s is the conventional
	// production setting.
	ObsInterval time.Duration
	// ObsHistory is the time-series ring's capacity in samples
	// (default 240 — four minutes of history at the 1s interval). The
	// ring's memory is allocated once, by New, and bounded by
	// ObsHistory x the fixed per-sample size; nothing grows with
	// uptime.
	ObsHistory int
	// IncidentDir arms profile-on-anomaly: when non-empty, fresh
	// anomaly episodes (and stall-watchdog episodes) capture a bounded
	// evidence bundle — CPU profile, flight-recorder trace, timeseries
	// window, health report — into a timestamped subdirectory of this
	// directory, created if missing. Captures are asynchronous and
	// rate-limited by IncidentMinGap; overlapping triggers are counted
	// but not captured.
	IncidentDir string
	// IncidentMinGap is the minimum spacing between incident captures
	// (default 30s; negative disables the gap, for tests).
	IncidentMinGap time.Duration

	// MaxQueuedEvents bounds the runtime-wide number of in-memory
	// queued events (0 = unlimited, the pre-overload behavior). Once
	// the bound is reached, posting follows OverloadPolicy. Unbounded
	// runtimes pay nothing for this machinery — the admission layer is
	// not even constructed.
	MaxQueuedEvents int
	// MaxQueuedPerColor bounds one color's in-memory queue depth
	// (0 = unlimited). A single hot color — a popular connection, a
	// runaway PostEvery — then saturates alone instead of starving the
	// whole runtime's budget.
	MaxQueuedPerColor int
	// OverloadPolicy selects what posting does at a bound:
	// OverloadReject (default; external posts fail with ErrOverloaded),
	// OverloadBlock (external posts wait, PostContext-cancelable), or
	// OverloadSpill (saturated colors' queue tails move to disk and
	// reload on drain — posting never fails, memory stays bounded).
	OverloadPolicy OverloadPolicy
	// SpillDir is the directory OverloadSpill keeps its segment files
	// in. Empty means a fresh private temp directory, removed at Stop.
	// An explicit directory must be owned by exactly one runtime:
	// without SpillRecover, leftover *.seg files in it are deleted as
	// crash orphans at startup and the runtime's own segments are
	// deleted at Stop; with SpillRecover they are scanned, repaired,
	// and reloaded instead (see docs/spillq-format.md).
	SpillDir string
	// SpillSync selects when spilled records reach stable storage
	// (default SpillSyncNone: only at segment seal). See the
	// SpillSyncPolicy constants for the loss-window/throughput
	// trade-off each policy buys.
	SpillSync SpillSyncPolicy
	// SpillRecover makes the spill store durable across restarts:
	// Open recovers surviving segments in SpillDir instead of deleting
	// them (torn tails truncated at the last CRC-valid record), the
	// backlog reloads into the owning colors' FIFOs at startup, and
	// Stop seals segments instead of deleting them. Requires an
	// explicit SpillDir and OverloadSpill. Handlers must be registered
	// in the same order across restarts — records reference handlers
	// by registration index.
	SpillRecover bool
}

func (c Config) withDefaults() Config {
	if c.Cores == 0 {
		c.Cores = runtime.GOMAXPROCS(0)
	}
	if c.Policy == 0 {
		c.Policy = PolicyMelyWS
	}
	if c.batchThreshold == 0 {
		c.batchThreshold = 10
	}
	if c.stealCostSeed == 0 {
		c.stealCostSeed = 2 * time.Microsecond
	}
	if c.parkTimeout == 0 {
		c.parkTimeout = 500 * time.Microsecond
	}
	if c.maxStealColors == 0 {
		c.maxStealColors = policy.DefaultMaxStealColors
	}
	if c.stealBackoff == 0 {
		c.stealBackoff = 10 * time.Microsecond
	}
	if c.timerTick == 0 {
		c.timerTick = time.Millisecond
	}
	if c.ObsSampleRate == 0 {
		c.ObsSampleRate = 64
	}
	if c.TraceRing == 0 {
		c.TraceRing = 4096
	}
	if c.ObsHistory == 0 {
		c.ObsHistory = 240
	}
	if c.IncidentMinGap == 0 {
		c.IncidentMinGap = 30 * time.Second
	}
	return c
}

func (c Config) validate() error {
	if c.Cores < 0 || c.Cores > 1024 {
		return fmt.Errorf("mely: invalid core count %d", c.Cores)
	}
	if err := c.Policy.internal().Validate(); err != nil {
		return fmt.Errorf("mely: invalid policy: %w", err)
	}
	if c.ObsSampleRate > 1<<30 {
		return fmt.Errorf("mely: obs sample rate %d too large", c.ObsSampleRate)
	}
	if c.TraceRing > 1<<24 {
		return fmt.Errorf("mely: trace ring size %d too large (max %d records per core)",
			c.TraceRing, 1<<24)
	}
	if c.StallThreshold < 0 {
		return fmt.Errorf("mely: negative stall threshold")
	}
	if c.StallThreshold > 0 && c.StallThreshold < time.Millisecond {
		return fmt.Errorf("mely: stall threshold %v below the 1ms floor", c.StallThreshold)
	}
	if c.ObsInterval < 0 {
		return fmt.Errorf("mely: negative obs interval")
	}
	if c.ObsInterval > 0 && c.ObsInterval < time.Millisecond {
		return fmt.Errorf("mely: obs interval %v below the 1ms floor", c.ObsInterval)
	}
	if c.ObsHistory < 0 || c.ObsHistory > 1<<20 {
		return fmt.Errorf("mely: obs history %d out of range [0, %d]", c.ObsHistory, 1<<20)
	}
	if c.MaxQueuedEvents < 0 || c.MaxQueuedPerColor < 0 {
		return fmt.Errorf("mely: negative queue bound")
	}
	switch c.OverloadPolicy {
	case OverloadReject, OverloadBlock, OverloadSpill:
	default:
		return fmt.Errorf("mely: invalid overload policy %d", int(c.OverloadPolicy))
	}
	switch c.SpillSync {
	case SpillSyncNone, SpillSyncInterval, SpillSyncAlways:
	default:
		return fmt.Errorf("mely: invalid spill sync policy %d", int(c.SpillSync))
	}
	if c.SpillRecover {
		if c.OverloadPolicy != OverloadSpill {
			return fmt.Errorf("mely: SpillRecover requires OverloadSpill")
		}
		if c.SpillDir == "" {
			return fmt.Errorf("mely: SpillRecover requires an explicit SpillDir (a private temp directory cannot survive a restart)")
		}
	}
	return nil
}

// detectTopology discovers the host hierarchy, falling back to a flat
// layout truncated or extended to n cores.
func detectTopology(n int) *topology.Topology {
	if topo, err := sysTopology(); err == nil && topo.NumCores() >= n {
		if topo.NumCores() == n {
			return topo
		}
		// Re-group the first n cores of the discovered layout.
		share := make([]int, n)
		pkg := make([]int, n)
		for i := 0; i < n; i++ {
			share[i] = topo.ShareGroup(i)
			pkg[i] = topo.Package(i)
		}
		if sub, err := topology.New(share, pkg); err == nil {
			return sub
		}
	}
	return topology.Uniform(n)
}

// sysTopology reads the machine's cache and package layout from sysfs
// once per process: the hardware does not change under a running
// program, a Topology is read-only after construction, and the read
// (a few dozen small files, ~0.6 ms) was most of what New cost.
var sysTopology = sync.OnceValues(func() (*topology.Topology, error) {
	return topology.FromSysFS("/sys/devices/system/cpu")
})
