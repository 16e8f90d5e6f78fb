package bench

import (
	"github.com/melyruntime/mely/internal/metrics"
	"github.com/melyruntime/mely/internal/policy"
	"github.com/melyruntime/mely/internal/scenario"
)

// The connscale workload is the C10K shape: a very large population of
// connections of which only a sliver is active at any instant. The
// workload itself now lives in internal/scenario (the declarative
// harness's builtin "connscale" spec); this file is the thin shim that
// keeps the bench experiment table and its report.
func (o Options) measureConnScale(pol policy.Config) (*metrics.Run, error) {
	spec, err := scenario.Builtin("connscale")
	if err != nil {
		return nil, err
	}
	return scenario.MeasureSim(spec, pol, o.scenarioOptions())
}

// ConnScaleScenario regenerates the connection-scaling table: runtime
// throughput when the color population is four orders of magnitude
// larger than the active set (no paper counterpart — the paper's
// experiments stop at hundreds of clients; this is the regime the
// epoll netpoll backend opens).
func ConnScaleScenario(opt Options) (*Report, error) {
	opt = opt.withDefaults()
	r := &Report{
		ID:      "Connection scaling",
		Title:   "C10K-style mostly-idle connections (10k colors, ~2.5% active at any instant)",
		Columns: []string{"Configuration", "KEvents/s", "Steals", "Stolen colors"},
	}
	for _, pol := range []policy.Config{
		policy.Mely(),
		policy.MelyBaseWS(),
		policy.MelyTimeLeftWS(),
		policy.MelyWS(),
	} {
		run, err := opt.measureConnScale(pol)
		if err != nil {
			return nil, err
		}
		t := run.Total()
		r.AddRow(pol.Label(), f0(run.KEventsPerSecond()),
			f0(float64(t.Steals)), f0(float64(t.StolenColors)))
	}
	r.AddNote("every connection is a color that fires one 5k-cycle request then thinks ~2M cycles (sim")
	r.AddNote("timer heap); the real epoll backend carries this shape with O(shards) goroutines")
	return r, nil
}
