package bench

import (
	"github.com/melyruntime/mely/internal/metrics"
	"github.com/melyruntime/mely/internal/policy"
	"github.com/melyruntime/mely/internal/scenario"
)

// The timer workload is the deadline-driven server shape: closed-loop
// clients that think between requests, modeled with the simulator's
// timer facility (ctx.PostAfter). The workload itself now lives in
// internal/scenario (the declarative harness's builtin "timer" spec);
// this file is the thin shim that keeps the bench experiment table and
// its report, so the spec-driven path and the hand-written path are the
// same code.
func (o Options) measureTimer(pol policy.Config) (*metrics.Run, error) {
	spec, err := scenario.Builtin("timer")
	if err != nil {
		return nil, err
	}
	return scenario.MeasureSim(spec, pol, o.scenarioOptions())
}

// TimerScenario regenerates the deadline-driven workload table: how the
// stealing policies fare when all load arrives as timed events on one
// core's colors (no paper counterpart — the paper's runtime has no
// timers; this is the scenario the timerwheel subsystem opens).
func TimerScenario(opt Options) (*Report, error) {
	opt = opt.withDefaults()
	r := &Report{
		ID:      "Timer workload",
		Title:   "Deadline-driven closed loop (48 thinking clients, colors skewed onto core 0)",
		Columns: []string{"Configuration", "KEvents/s", "Steals", "Stolen colors"},
	}
	for _, pol := range []policy.Config{
		policy.Mely(),
		policy.MelyBaseWS(),
		policy.MelyTimeLeftWS(),
		policy.MelyWS(),
	} {
		run, err := opt.measureTimer(pol)
		if err != nil {
			return nil, err
		}
		t := run.Total()
		r.AddRow(pol.Label(), f0(run.KEventsPerSecond()),
			f0(float64(t.Steals)), f0(float64(t.StolenColors)))
	}
	r.AddNote("every request re-arrives as a timed event after a think pause (the sim timer heap; the")
	r.AddNote("real runtime's per-core timing wheels carry the same load shape — see BenchmarkTimerWheel)")
	return r, nil
}
