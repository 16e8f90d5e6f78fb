package bench

import (
	"github.com/melyruntime/mely/internal/metrics"
	"github.com/melyruntime/mely/internal/policy"
	"github.com/melyruntime/mely/internal/scenario"
)

// The overload workload reproduces the bounded-queue spill protocol of
// the real runtime (mely.OverloadSpill) on the deterministic simulated
// platform: an open-loop producer posts work at twice the whole
// machine's service rate, a MaxQueuedEvents-style bound caps the
// in-memory queues, and the overflow spills — through the real
// internal/spillq segment store, on real disk — reloading in FIFO
// order as the queues drain below the low-water mark. The workload and
// its invariants (zero loss, per-color FIFO, bound never exceeded, full
// drain) now live in internal/scenario (the declarative harness's
// builtin "overload" spec); this file is the thin shim that keeps the
// bench experiment table and its report.
func (o Options) measureOverload(pol policy.Config) (*metrics.Run, error) {
	spec, err := scenario.Builtin("overload")
	if err != nil {
		return nil, err
	}
	return scenario.MeasureSim(spec, pol, o.scenarioOptions())
}

// OverloadScenario regenerates the overload-control table: throughput
// and spill traffic when an open-loop producer exceeds the bounded
// queues at 2x the machine's service rate (no paper counterpart — the
// paper's runtime assumes queues fit in memory; this is the scenario
// the spillq subsystem opens).
func OverloadScenario(opt Options) (*Report, error) {
	opt = opt.withDefaults()
	r := &Report{
		ID:      "Overload control",
		Title:   "Open-loop 2x overload with bounded queues + disk spill (zero-loss asserted)",
		Columns: []string{"Configuration", "KEvents/s", "Spilled", "Reloaded", "Max in-mem", "Steals"},
	}
	for _, pol := range []policy.Config{
		policy.Mely(),
		policy.MelyBaseWS(),
		policy.MelyTimeLeftWS(),
		policy.MelyWS(),
	} {
		run, err := opt.measureOverload(pol)
		if err != nil {
			return nil, err
		}
		t := run.Total()
		r.AddRow(pol.Label(), f0(run.KEventsPerSecond()),
			f0(run.Payload["overload_spilled"]), f0(run.Payload["overload_reloaded"]),
			f0(run.Payload["overload_max_inmem"]), f0(float64(t.Steals)))
	}
	p := scenario.DefaultOverloadParams()
	r.AddNote("producer posts %d events per %d-cycle tick (2x the 8-core service rate) onto %d colors",
		p.PerTick, p.Tick, p.Colors)
	r.AddNote("homed on core 0; overflow spills through internal/spillq segment files on real disk and")
	r.AddNote("reloads below the low-water mark — zero loss and per-color FIFO are asserted, not sampled")
	return r, nil
}
