package scenario

import (
	"errors"
	"fmt"
	"regexp"
	"time"

	"github.com/melyruntime/mely"
	"github.com/melyruntime/mely/internal/netpoll"
	"github.com/melyruntime/mely/internal/policy"
)

// Typed validation sentinels. Every validation failure unwraps
// (errors.Is) to exactly one of these, so callers and tests can match
// the class of mistake without parsing messages.
var (
	// ErrBadSpec reports a document that does not decode into the spec
	// shape at all (YAML/JSON syntax, unknown fields, wrong types).
	ErrBadSpec = errors.New("scenario: malformed spec")
	// ErrUnknownEngine reports an engine other than sim or live.
	ErrUnknownEngine = errors.New("scenario: unknown engine")
	// ErrUnknownWorkload reports a sim workload the harness cannot
	// build.
	ErrUnknownWorkload = errors.New("scenario: unknown workload")
	// ErrUnknownPolicy reports a policy name policy.Parse rejects.
	ErrUnknownPolicy = errors.New("scenario: unknown policy")
	// ErrUnknownBackend reports a netpoll backend other than
	// auto/epoll/pumps, or an overload policy other than
	// reject/block/spill.
	ErrUnknownBackend = errors.New("scenario: unknown backend")
	// ErrUnknownServerKind reports a server kind other than sws/sfs.
	ErrUnknownServerKind = errors.New("scenario: unknown server kind")
	// ErrDuplicateServer reports two servers sharing a name.
	ErrDuplicateServer = errors.New("scenario: duplicate server name")
	// ErrUnknownServer reports a load or fault referencing an
	// undeclared server.
	ErrUnknownServer = errors.New("scenario: unknown server")
	// ErrNegativeCount reports a negative connection/client/size count.
	ErrNegativeCount = errors.New("scenario: negative count")
	// ErrBadPhase reports a malformed phase list: no phases, duplicate
	// names, zero or multiple measure phases, bad cycle/duration
	// values, or a drain phase where the engine cannot drain.
	ErrBadPhase = errors.New("scenario: bad phase")
	// ErrSLOPhase reports an SLO whose phase matches no declared phase.
	ErrSLOPhase = errors.New("scenario: SLO without a matching phase")
	// ErrBadSLO reports an SLO check the scenario's engine or workload
	// cannot evaluate.
	ErrBadSLO = errors.New("scenario: bad SLO")
	// ErrUnknownFault reports a fault type the engine cannot inject.
	ErrUnknownFault = errors.New("scenario: unknown fault")
	// ErrBadFault reports fault parameters out of range.
	ErrBadFault = errors.New("scenario: bad fault")
	// ErrBadDuration reports an unparseable duration string.
	ErrBadDuration = errors.New("scenario: bad duration")
)

// FieldError locates one validation failure; Unwrap exposes the typed
// sentinel for errors.Is.
type FieldError struct {
	Field string // dotted path into the spec, e.g. "servers[1].name"
	Err   error  // one of the sentinels above
	Hint  string // human detail
}

func (e *FieldError) Error() string {
	if e.Hint == "" {
		return fmt.Sprintf("%s: %v", e.Field, e.Err)
	}
	return fmt.Sprintf("%s: %v: %s", e.Field, e.Err, e.Hint)
}

func (e *FieldError) Unwrap() error { return e.Err }

var nameRe = regexp.MustCompile(`^[a-z0-9][a-z0-9._-]*$`)

// Validate checks the spec's internal consistency. All failures are
// collected (errors.Join), each an *FieldError wrapping a typed
// sentinel.
func (s *Spec) Validate() error {
	var errs []error
	fail := func(field string, sentinel error, hint string, args ...any) {
		errs = append(errs, &FieldError{Field: field, Err: sentinel, Hint: fmt.Sprintf(hint, args...)})
	}

	if s.Name == "" || !nameRe.MatchString(s.Name) {
		fail("name", ErrBadSpec, "need a lowercase [a-z0-9._-] scenario name, got %q", s.Name)
	}
	if s.Seed < 0 {
		fail("seed", ErrNegativeCount, "seed %d", s.Seed)
	}

	phaseByName := make(map[string]*PhaseSpec, len(s.Phases))
	measures := 0
	for i := range s.Phases {
		p := &s.Phases[i]
		field := fmt.Sprintf("phases[%d]", i)
		if p.Name == "" {
			fail(field+".name", ErrBadPhase, "phase needs a name")
		} else if _, dup := phaseByName[p.Name]; dup {
			fail(field+".name", ErrBadPhase, "duplicate phase %q", p.Name)
		} else {
			phaseByName[p.Name] = p
		}
		if p.Measure {
			measures++
			if p.Drain {
				fail(field, ErrBadPhase, "a phase cannot both measure and drain")
			}
		}
		if p.Cycles < 0 {
			fail(field+".cycles", ErrNegativeCount, "cycles %d", p.Cycles)
		}
	}
	if len(s.Phases) == 0 {
		fail("phases", ErrBadPhase, "a scenario needs at least one phase")
	} else if measures != 1 {
		fail("phases", ErrBadPhase, "exactly one phase must set measure: true, got %d", measures)
	}

	switch s.Engine {
	case "sim":
		s.validateSim(fail, phaseByName)
	case "live":
		s.validateLive(fail, phaseByName)
	default:
		fail("engine", ErrUnknownEngine, "%q (want sim or live)", s.Engine)
	}

	s.validateFaults(fail, phaseByName)
	s.validateSLOs(fail, phaseByName)

	return errors.Join(errs...)
}

func (s *Spec) validateSim(fail func(string, error, string, ...any), phases map[string]*PhaseSpec) {
	if s.Sim == nil {
		fail("sim", ErrBadSpec, "engine sim needs a sim block")
		return
	}
	if len(s.Servers) != 0 || len(s.Loads) != 0 {
		fail("servers", ErrBadSpec, "sim scenarios declare workloads, not servers/loads")
	}
	if _, ok := workloads[s.Sim.Workload]; !ok {
		fail("sim.workload", ErrUnknownWorkload, "%q", s.Sim.Workload)
	}
	if len(s.Sim.Policies) == 0 {
		fail("sim.policies", ErrBadSpec, "need at least one policy")
	}
	for i, name := range s.Sim.Policies {
		if _, err := policy.Parse(name); err != nil {
			fail(fmt.Sprintf("sim.policies[%d]", i), ErrUnknownPolicy, "%v", err)
		}
	}
	// Exactly the parameter block matching the workload may be set.
	for kind, w := range workloads {
		if !w.set(s.Sim) {
			continue
		}
		if kind != s.Sim.Workload {
			fail("sim."+kind, ErrBadSpec, "parameter block does not match workload %q", s.Sim.Workload)
		}
		if w.negative != nil && w.negative(s.Sim) {
			fail("sim."+kind, ErrNegativeCount, "%s parameters must be non-negative", kind)
		}
	}

	seenMeasure := false
	for i, p := range s.Phases {
		field := fmt.Sprintf("phases[%d]", i)
		if p.Duration != "" {
			fail(field+".duration", ErrBadPhase, "sim phases are measured in cycles, not durations")
		}
		if p.Drain {
			if s.Sim.Workload != "overload" {
				fail(field, ErrBadPhase, "only the overload workload drains to quiescence")
			}
			if !seenMeasure {
				fail(field, ErrBadPhase, "drain phases follow the measure phase")
			}
			if p.Cycles != 0 {
				fail(field+".cycles", ErrBadPhase, "a drain phase runs to quiescence; drop cycles")
			}
		} else if p.Cycles <= 0 {
			fail(field+".cycles", ErrBadPhase, "sim phase needs cycles > 0")
		}
		if p.Measure {
			seenMeasure = true
		} else if seenMeasure && !p.Drain {
			fail(field, ErrBadPhase, "phases after the measure window must be drain phases")
		}
	}
	_ = phases
}

func (s *Spec) validateLive(fail func(string, error, string, ...any), phases map[string]*PhaseSpec) {
	if s.Sim != nil {
		fail("sim", ErrBadSpec, "engine live takes servers/loads, not a sim block")
	}
	if len(s.Servers) == 0 {
		fail("servers", ErrBadSpec, "engine live needs at least one server")
	}
	serverByName := make(map[string]*ServerSpec, len(s.Servers))
	for i := range s.Servers {
		sv := &s.Servers[i]
		field := fmt.Sprintf("servers[%d]", i)
		if sv.Name == "" || !nameRe.MatchString(sv.Name) {
			fail(field+".name", ErrBadSpec, "need a lowercase server name, got %q", sv.Name)
		} else if _, dup := serverByName[sv.Name]; dup {
			fail(field+".name", ErrDuplicateServer, "%q", sv.Name)
		} else {
			serverByName[sv.Name] = sv
		}
		switch sv.Kind {
		case "sws", "sfs":
		default:
			fail(field+".kind", ErrUnknownServerKind, "%q (want sws or sfs)", sv.Kind)
		}
		if _, err := netpoll.ParseBackend(sv.Backend); err != nil {
			fail(field+".backend", ErrUnknownBackend, "%v", err)
		}
		if _, err := mely.ParseOverloadPolicy(sv.Overload); err != nil {
			fail(field+".overload", ErrUnknownBackend, "%v", err)
		}
		if _, err := mely.ParsePolicy(sv.Policy); err != nil {
			fail(field+".policy", ErrUnknownPolicy, "%v", err)
		}
		if sv.Cores < 0 || sv.Files < 0 || sv.FileBytes < 0 || sv.MaxClients < 0 ||
			sv.MaxQueued < 0 || sv.MaxQueuedColor < 0 || sv.PollerShards < 0 || sv.CryptoPenalty < 0 {
			fail(field, ErrNegativeCount, "server counts must be non-negative")
		}
		checkDuration(fail, field+".idle_timeout", sv.IdleTimeout)
		checkDuration(fail, field+".stall_threshold", sv.StallThreshold)
		checkDuration(fail, field+".obs_interval", sv.ObsInterval)
	}

	if len(s.Loads) == 0 {
		fail("loads", ErrBadSpec, "engine live needs at least one load")
	}
	for i := range s.Loads {
		ld := &s.Loads[i]
		field := fmt.Sprintf("loads[%d]", i)
		if _, ok := serverByName[ld.Server]; !ok {
			fail(field+".server", ErrUnknownServer, "%q", ld.Server)
		}
		if ld.Phase != "" {
			if _, ok := phases[ld.Phase]; !ok {
				fail(field+".phase", ErrBadPhase, "load phase %q matches no declared phase", ld.Phase)
			}
		}
		switch ld.Mode {
		case "", "closed":
			if ld.Burst != 0 {
				fail(field+".burst", ErrBadSpec, "burst needs mode: open")
			}
		case "open":
			if ld.Burst <= 0 {
				fail(field+".burst", ErrBadSpec, "mode open needs burst > 0")
			}
		default:
			fail(field+".mode", ErrBadSpec, "mode %q (want closed or open)", ld.Mode)
		}
		if ld.Clients <= 0 || ld.RequestsPerConn < 0 || ld.IdleConns < 0 ||
			ld.Burst < 0 || ld.Chunk < 0 || ld.ReadAhead < 0 {
			fail(field, ErrNegativeCount, "need clients > 0 and non-negative connection counts")
		}
		checkDuration(fail, field+".think", ld.Think)
		checkDuration(fail, field+".think_jitter", ld.ThinkJitter)
		checkDuration(fail, field+".burst_pause", ld.BurstPause)
	}

	for i, p := range s.Phases {
		field := fmt.Sprintf("phases[%d]", i)
		if p.Cycles != 0 {
			fail(field+".cycles", ErrBadPhase, "live phases are measured in durations, not cycles")
		}
		if p.Drain {
			fail(field, ErrBadPhase, "drain phases are a sim overload feature")
		}
		if p.Duration == "" {
			fail(field+".duration", ErrBadPhase, "live phase needs a duration")
		} else if d, err := time.ParseDuration(p.Duration); err != nil || d <= 0 {
			fail(field+".duration", ErrBadDuration, "%q", p.Duration)
		}
	}
}

var simFaultTypes = map[string]bool{"slow-handler": true, "spill-disk-latency": true, "spill-crash-restart": true}
var liveFaultTypes = map[string]bool{"slow-handler": true, "conn-churn": true, "core-pressure": true}

func (s *Spec) validateFaults(fail func(string, error, string, ...any), phases map[string]*PhaseSpec) {
	serverNames := make(map[string]bool, len(s.Servers))
	for _, sv := range s.Servers {
		serverNames[sv.Name] = true
	}
	for i := range s.Faults {
		f := &s.Faults[i]
		field := fmt.Sprintf("faults[%d]", i)
		known := simFaultTypes[f.Type] || liveFaultTypes[f.Type]
		if !known {
			fail(field+".type", ErrUnknownFault, "%q", f.Type)
			continue
		}
		switch s.Engine {
		case "sim":
			if !simFaultTypes[f.Type] {
				fail(field+".type", ErrUnknownFault, "%q is a live fault", f.Type)
				continue
			}
			if f.Phase != "" {
				fail(field+".phase", ErrBadFault, "sim faults are active for the whole run; drop phase")
			}
			if f.Type == "spill-crash-restart" {
				if f.AtSpilled <= 0 {
					fail(field+".at_spilled", ErrBadFault, "spill-crash-restart needs at_spilled > 0")
				}
				if f.ExtraCycles != 0 {
					fail(field+".extra_cycles", ErrBadFault, "spill-crash-restart charges a fixed restart cost; drop extra_cycles")
				}
				if s.Sim == nil || s.Sim.Workload != "overload" {
					fail(field, ErrBadFault, "spill-crash-restart needs the overload workload")
				}
			} else {
				if f.ExtraCycles <= 0 {
					fail(field+".extra_cycles", ErrBadFault, "sim faults need extra_cycles > 0")
				}
				if f.AtSpilled != 0 {
					fail(field+".at_spilled", ErrBadFault, "at_spilled is a spill-crash-restart knob")
				}
			}
			if f.Type == "spill-disk-latency" && (s.Sim == nil || s.Sim.Workload != "overload") {
				fail(field, ErrBadFault, "spill-disk-latency needs the overload workload")
			}
			if f.Type == "slow-handler" && s.Sim != nil {
				switch s.Sim.Workload {
				case "timer", "connscale", "overload":
				default:
					fail(field, ErrBadFault, "slow-handler supports the timer, connscale, and overload workloads")
				}
			}
			if f.Stall != "" || f.Rate != 0 || f.Spinners != 0 || f.Server != "" {
				fail(field, ErrBadFault, "stall/rate/spinners/server are live fault knobs")
			}
		case "live":
			if !liveFaultTypes[f.Type] {
				fail(field+".type", ErrUnknownFault, "%q is a sim fault", f.Type)
				continue
			}
			if f.Phase != "" {
				if _, ok := phases[f.Phase]; !ok {
					fail(field+".phase", ErrBadPhase, "fault phase %q matches no declared phase", f.Phase)
				}
			}
			if f.Server != "" && !serverNames[f.Server] {
				fail(field+".server", ErrUnknownServer, "%q", f.Server)
			}
			switch f.Type {
			case "slow-handler":
				if d, err := time.ParseDuration(f.Stall); f.Stall == "" || err != nil || d <= 0 {
					fail(field+".stall", ErrBadFault, "slow-handler needs a positive stall duration")
				}
				if f.Phase != "" {
					fail(field+".phase", ErrBadFault, "live slow-handler is wired at server build time and stays on for the whole run; drop phase")
				}
			case "conn-churn":
				if f.Rate <= 0 {
					fail(field+".rate", ErrBadFault, "conn-churn needs rate > 0 connections/s")
				}
			case "core-pressure":
				if f.Spinners <= 0 {
					fail(field+".spinners", ErrBadFault, "core-pressure needs spinners > 0")
				}
			}
			if f.ExtraCycles != 0 {
				fail(field+".extra_cycles", ErrBadFault, "extra_cycles is a sim fault knob")
			}
			if f.AtSpilled != 0 {
				fail(field+".at_spilled", ErrBadFault, "at_spilled is a sim fault knob")
			}
		}
		if f.EveryNth < 0 {
			fail(field+".every_nth", ErrNegativeCount, "every_nth %d", f.EveryNth)
		}
	}
}

func (s *Spec) validateSLOs(fail func(string, error, string, ...any), phases map[string]*PhaseSpec) {
	for i := range s.SLOs {
		slo := &s.SLOs[i]
		field := fmt.Sprintf("slos[%d]", i)
		if _, ok := phases[slo.Phase]; !ok {
			fail(field+".phase", ErrSLOPhase, "%q", slo.Phase)
		}
		if slo.MaxInMem < 0 || slo.MaxRSSMB < 0 || slo.MinKEventsPerSec < 0 || slo.MaxErrorRatePct < 0 ||
			slo.MaxChainDepth < 0 || slo.MinAnomalies < 0 ||
			(slo.MaxAnomalies != nil && *slo.MaxAnomalies < 0) {
			fail(field, ErrNegativeCount, "SLO limits must be non-negative")
		}
		if !slo.ZeroLoss && slo.MaxInMem == 0 && slo.MinKEventsPerSec == 0 &&
			slo.MaxP99 == "" && slo.MaxErrorRatePct == 0 && slo.MaxRSSMB == 0 &&
			slo.MaxQueueDelayP99 == "" && slo.MaxChainDepth == 0 && !slo.ChainComplete &&
			slo.HealthOK == nil && slo.MaxAnomalies == nil && slo.MinAnomalies == 0 {
			fail(field, ErrBadSLO, "SLO asserts nothing")
		}
		overloadSim := s.Engine == "sim" && s.Sim != nil && s.Sim.Workload == "overload"
		if (slo.ZeroLoss || slo.MaxInMem > 0) && !overloadSim {
			fail(field, ErrBadSLO, "zero_loss/max_inmem are sim overload checks")
		}
		if (slo.MaxP99 != "" || slo.MaxErrorRatePct > 0 || slo.MaxRSSMB > 0 ||
			slo.MaxQueueDelayP99 != "" || slo.MaxChainDepth > 0 || slo.ChainComplete ||
			slo.HealthOK != nil || slo.MaxAnomalies != nil || slo.MinAnomalies > 0) && s.Engine != "live" {
			fail(field, ErrBadSLO, "max_p99/max_error_rate_pct/max_rss_mb/max_queue_delay_p99/max_chain_depth/chain_complete/health_ok/max_anomalies/min_anomalies are live checks")
		}
		checkDuration(fail, field+".max_p99", slo.MaxP99)
		checkDuration(fail, field+".max_queue_delay_p99", slo.MaxQueueDelayP99)
	}
}

func checkDuration(fail func(string, error, string, ...any), field, v string) {
	if v == "" {
		return
	}
	if d, err := time.ParseDuration(v); err != nil || d < 0 {
		fail(field, ErrBadDuration, "%q", v)
	}
}

// mustDuration returns a validated duration field's value (zero for "").
func mustDuration(v string) time.Duration {
	if v == "" {
		return 0
	}
	d, _ := time.ParseDuration(v)
	return d
}
