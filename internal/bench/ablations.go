package bench

import (
	"fmt"

	"github.com/melyruntime/mely/internal/equeue"
	"github.com/melyruntime/mely/internal/metrics"
	"github.com/melyruntime/mely/internal/policy"
	"github.com/melyruntime/mely/internal/scenario"
	"github.com/melyruntime/mely/internal/sim"
	"github.com/melyruntime/mely/internal/topology"
	"github.com/melyruntime/mely/internal/workload"
)

// ablateBatch sweeps Mely's batch threshold (section IV-A fixes it to
// 10) on a starvation-sensitive workload: one color with a deep backlog
// shares a core with many single-event colors. The threshold bounds how
// long the hot color monopolizes the core, which shows up as the mean
// completion time of the small colors' events.
func ablateBatch(opt scenario.Options) (*Report, error) {
	r := &Report{
		ID:      "Ablation: batch threshold",
		Title:   "Batch threshold vs small-color latency (hot color + 100 small colors, one core)",
		Columns: []string{"Threshold", "small mean latency (Kcycles)", "hot KEvents/s"},
	}
	hotEvents, smallColors := 1000, 100
	if opt.Quick {
		hotEvents = 300
	}
	for _, threshold := range []int{1, 10, 100, 1 << 20} {
		params := opt.Params
		params.BatchThreshold = threshold
		latency, hotRate, err := runBatchStarvation(opt, params, hotEvents, smallColors)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%d", threshold)
		switch threshold {
		case 1 << 20:
			label = "unbounded"
		case 10:
			label = "10 (paper)"
		}
		r.AddRow(label, f0(latency/1000), f0(hotRate))
	}
	r.AddNote("lower thresholds interleave the small colors sooner at a small rotation cost;")
	r.AddNote("unbounded batching parks them behind the whole hot backlog")
	return r, nil
}

// runBatchStarvation measures the mean completion time of single-event
// colors queued behind a hot color's backlog on one core (no stealing,
// so the threshold is the only fairness mechanism).
func runBatchStarvation(opt scenario.Options, params sim.Params, hotEvents, smallColors int) (meanLatency, hotKEvents float64, err error) {
	var (
		eng       *sim.Engine
		hot, cold equeue.HandlerID
		sumDone   float64
		nDone     int
	)
	cfg := sim.Config{
		Topology: opt.Topology,
		Policy:   policy.Mely(), // single-core focus: no stealing
		Params:   params,
		Seed:     opt.Seed,
	}
	eng, err = sim.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	hot = eng.Register("hot", func(ctx *sim.Ctx, ev *equeue.Event) {}, sim.HandlerOpts{})
	cold = eng.Register("cold", func(ctx *sim.Ctx, ev *equeue.Event) {
		sumDone += float64(ctx.Now())
		nDone++
	}, sim.HandlerOpts{})
	eng.Seed(func(ctx *sim.Ctx) {
		for i := 0; i < hotEvents; i++ {
			ctx.PostTo(0, sim.Ev{Handler: hot, Color: 1, Cost: 2000})
		}
		for i := 0; i < smallColors; i++ {
			ctx.PostTo(0, sim.Ev{Handler: cold, Color: equeue.Color(i + 2), Cost: 2000})
		}
	})
	eng.RunUntil(1 << 40)
	run := eng.Metrics(1)
	if nDone == 0 {
		return 0, 0, fmt.Errorf("bench: no small events completed")
	}
	hotSeconds := float64(run.Total().BusyCycles) / params.CyclesPerSecond
	if hotSeconds <= 0 {
		hotSeconds = 1
	}
	return sumDone / float64(nDone), float64(hotEvents) / hotSeconds / 1000, nil
}

// ablateIntervals sweeps the StealingQueue's partial-ordering
// granularity (section IV-B uses three time-left intervals to balance
// insertion and lookup costs). The workload gives core 0 colors whose
// cumulative costs span three orders of magnitude, so interval count
// controls how well thieves pick the richest colors first.
func ablateIntervals(opt scenario.Options) (*Report, error) {
	r := &Report{
		ID:      "Ablation: stealing-queue intervals",
		Title:   "Time-left interval count on a skewed-color workload",
		Columns: []string{"Intervals", "KEvents/s", "Steals", "Stolen time (cycles)"},
	}
	for _, n := range []int{1, 3, 8} {
		params := opt.Params
		params.StealIntervals = n
		run, err := runSkewedColors(opt, params, policy.MelyTimeLeftWS())
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%d", n)
		if n == 3 {
			label = "3 (paper)"
		}
		stolen := "-"
		if run.Total().Steals > 0 {
			stolen = f0(run.StolenTimeCycles())
		}
		r.AddRow(label, f0(run.KEventsPerSecond()), f0(float64(run.Total().Steals)), stolen)
	}
	r.AddNote("with one interval a thief takes any worthy color; more intervals steer it to the richest,")
	r.AddNote("moving more work per steal")
	return r, nil
}

// runSkewedColors builds rounds of colors whose backlogs range from one
// event to hundreds, all registered on core 0.
func runSkewedColors(opt scenario.Options, params sim.Params, pol policy.Config) (*metrics.Run, error) {
	const colors = 48
	var (
		eng  *sim.Engine
		work equeue.HandlerID
		feed equeue.HandlerID
	)
	cfg := sim.Config{
		Topology: opt.Topology,
		Policy:   pol,
		Params:   params,
		Seed:     opt.Seed,
		OnQuiescent: func(ctx *sim.Ctx) bool {
			ctx.PostTo(0, sim.Ev{Handler: feed, Color: equeue.DefaultColor, Data: 0})
			return true
		},
	}
	var err error
	eng, err = sim.New(cfg)
	if err != nil {
		return nil, err
	}
	work = eng.Register("skew-work", func(ctx *sim.Ctx, ev *equeue.Event) {}, sim.HandlerOpts{})
	feed = eng.Register("skew-register", func(ctx *sim.Ctx, ev *equeue.Event) {
		next := ev.Data.(int)
		const batch = 8
		for c := next; c < colors && c < next+batch; c++ {
			// Color c+1 holds c*c/8+1 events of 2 Kcycles: cumulative
			// costs from 2K to ~570K cycles.
			events := c*c/8 + 1
			for k := 0; k < events; k++ {
				ctx.PostTo(0, sim.Ev{Handler: work, Color: equeue.Color(c + 1), Cost: 2000})
			}
		}
		if next+batch < colors {
			ctx.Post(sim.Ev{Handler: feed, Color: ev.Color, Data: next + batch})
		}
	}, sim.HandlerOpts{})
	warm, win := opt.Windows(20_000_000, paperWindow)
	return sim.Measure(eng, warm, win), nil
}

// ablateBatchSteal measures batch stealing — not a paper mode; the
// paper's protocol migrates exactly one color per steal — on the
// skewed-color workload, where core 0 keeps regrowing a deep field of
// worthy colors: the same time-left policy with batching off
// (bit-identical to the single-color protocol everywhere else) and on,
// at two caps. Steal attempts, successes, and colors-per-steal expose
// the amortization directly: batches move the same work in fewer,
// slightly longer critical sections.
func ablateBatchSteal(opt scenario.Options) (*Report, error) {
	r := &Report{
		ID:      "Ablation: batch stealing",
		Title:   "Single-color vs batched steals (skewed colors, time-left WS)",
		Columns: []string{"Configuration", "KEvents/s", "attempts", "steals", "colors/steal"},
	}
	batched := func(limit int) policy.Config {
		p := policy.MelyTimeLeftWS()
		p.MaxStealColors = limit
		return p
	}
	rows := []struct {
		name string
		pol  policy.Config
	}{
		{"single (paper)", policy.MelyTimeLeftWS()},
		{"batch, cap 4", batched(4)},
		{"batch, cap 8 (default)", batched(8)},
	}
	for _, row := range rows {
		run, err := runSkewedColors(opt, opt.Params, row.pol)
		if err != nil {
			return nil, err
		}
		t := run.Total()
		perSteal := "-"
		if t.Steals > 0 {
			perSteal = f2(float64(t.StolenColors) / float64(t.Steals))
		}
		r.AddRow(row.name, f0(run.KEventsPerSecond()),
			f0(float64(t.StealAttempts)), f0(float64(t.Steals)), perSteal)
	}
	r.AddNote("batching pays the fixed steal costs (victim lock, can_be_stolen, migrate setup) once per")
	r.AddNote("batch; the single-color rows of Tables III-VI are untouched by the feature")
	return r, nil
}

// ablateHeuristics runs every heuristic combination over the three
// microbenchmarks — the contribution matrix behind section V-B.
func ablateHeuristics(opt scenario.Options) (*Report, error) {
	r := &Report{
		ID:      "Ablation: heuristics",
		Title:   "Heuristic combinations, KEvents/s per microbenchmark",
		Columns: []string{"Configuration", "unbalanced", "penalty", "cache-efficient"},
	}
	configs := []policy.Config{
		policy.Mely(),
		policy.MelyBaseWS(),
		policy.MelyLocalityWS(),
		policy.MelyTimeLeftWS(),
		policy.MelyPenaltyWS(),
		{Layout: policy.MelyLayout, Steal: policy.StealHeuristic, Locality: true, TimeLeft: true},
		policy.MelyWS(),
	}
	for _, pol := range configs {
		row := []string{pol.String()}
		for _, name := range []string{"unbalanced", "penalty", "cacheeff"} {
			run, err := scenario.MeasureSim(workloadSpec(name), pol, opt)
			if err != nil {
				return nil, err
			}
			row = append(row, f0(run.KEventsPerSecond()))
		}
		r.AddRow(row...)
	}
	return r, nil
}

// dynamicProfile evaluates section VII's future work: deriving the
// time-left annotations from online profiling instead of programmer
// annotations. A single handler whose events have bimodal costs (the
// unbalanced mix) defeats per-handler averages; splitting the handlers
// restores the heuristic.
func dynamicProfile(opt scenario.Options) (*Report, error) {
	r := &Report{
		ID:      "Future work: dynamic annotations",
		Title:   "Exact annotations vs learned per-handler estimates (unbalanced, time-left WS)",
		Columns: []string{"Annotation mode", "KEvents/s", "Steals"},
	}
	rows := []struct {
		name string
		spec workload.UnbalancedSpec
	}{
		// Exact per-event annotations (the paper's mode).
		{"exact (paper)", workload.UnbalancedSpec{}},
		// Learned estimates, one handler for all events: the EWMA
		// smears short and long events together.
		{"learned, single handler", workload.UnbalancedSpec{LearnedEstimates: true}},
		// Learned estimates with the short/long work split into two
		// handlers: per-handler averages become accurate again.
		{"learned, split handlers", workload.UnbalancedSpec{LearnedEstimates: true, SplitHandlers: true}},
	}
	for _, row := range rows {
		spec := workloadSpec("unbalanced")
		spec.Sim.Unbalanced = &row.spec
		run, err := scenario.MeasureSim(spec, policy.MelyTimeLeftWS(), opt)
		if err != nil {
			return nil, err
		}
		r.AddRow(row.name, f0(run.KEventsPerSecond()), f0(float64(run.Total().Steals)))
	}

	r.AddNote("dynamic profiling works when handlers have stable costs (the paper's stated assumption);")
	r.AddNote("a bimodal handler defeats the per-handler average and suppresses or misdirects stealing")
	return r, nil
}

// dynamicPenalty evaluates the other half of section VII's future work:
// deriving ws_penalty from monitored memory usage (footprint and
// data-set longevity per handler) instead of programmer annotations.
func dynamicPenalty(opt scenario.Options) (*Report, error) {
	r := &Report{
		ID:      "Future work: dynamic penalties",
		Title:   "Manual vs monitored ws_penalty (penalty microbenchmark)",
		Columns: []string{"Annotation mode", "KEvents/s", "L2 misses/event"},
	}
	// Make B events worthy by processing time alone, so only the
	// penalty (manual or monitored) can exclude them.
	const bCost = 8_000
	rows := []struct {
		name string
		pol  policy.Config
		spec workload.PenaltySpec
	}{
		{"no penalty (time-left only)", policy.MelyTimeLeftWS(), workload.PenaltySpec{BCost: bCost}},
		{"manual 1000 (paper)", policy.MelyPenaltyWS(), workload.PenaltySpec{BCost: bCost}},
		{"monitored (auto)", policy.MelyPenaltyWS(), workload.PenaltySpec{BCost: bCost, AutoPenalty: true}},
	}
	for _, row := range rows {
		spec := workloadSpec("penalty")
		spec.Sim.Penalty = &row.spec
		run, err := scenario.MeasureSim(spec, row.pol, opt)
		if err != nil {
			return nil, err
		}
		r.AddRow(row.name, f0(run.KEventsPerSecond()), f1(run.L2MissesPerEvent()))
	}
	r.AddNote("the monitored penalty reproduces the manual annotation's behaviour exactly — steal-induced")
	r.AddNote("misses vanish — with no programmer involvement, which is precisely section VII's proposal")
	return r, nil
}

// amd16Locality re-runs the locality experiment (Table VI) on the
// 16-core AMD topology of section III-A — four packages of four cores
// sharing an L3 — showing the heuristic generalizes beyond the paper's
// evaluation machine: steal victims three hops away cost more, so the
// ordered victim set matters even more than on the Xeon.
func amd16Locality(opt scenario.Options) (*Report, error) {
	opt.Topology = topology.AMD16Core()
	r := &Report{
		ID:      "Extension: AMD 16-core",
		Title:   "Locality-aware stealing on 4x4-core AMD (cache efficient)",
		Columns: []string{"Configuration", "KEvents/s", "L2 misses/event", "remote steals"},
	}
	pols := []policy.Config{policy.Mely(), policy.MelyBaseWS(), policy.MelyLocalityWS(), policy.MelyWS()}
	err := r.measureRows(workloadSpec("cacheeff"), opt, pols, func(pol policy.Config, run *metrics.Run) []string {
		return []string{pol.Label(), f0(run.KEventsPerSecond()), f1(run.L2MissesPerEvent()),
			f0(float64(run.Total().RemoteSteals))}
	})
	r.AddNote("the paper evaluates on the 8-core Xeon; this extension checks the heuristics on the")
	r.AddNote("16-core AMD hierarchy it describes (private L2s, quad-shared L3, NUMA between quads)")
	return r, err
}

// stability quantifies run-to-run variance across seeds, the analogue
// of the paper's "for all benchmarks, we observe standard deviations
// below 1%": the throughput of each microbenchmark configuration over
// several seeds, reported as mean ± relative standard deviation.
func stability(opt scenario.Options) (*Report, error) {
	r := &Report{
		ID:      "Stability",
		Title:   "Throughput across seeds (mean KEvents/s, relative stddev)",
		Columns: []string{"Configuration", "unbalanced", "rsd", "cache-efficient", "rsd"},
	}
	reps := 5
	if opt.Quick {
		reps = 3
	}
	unbalanced, cacheEff := workloadSpec("unbalanced"), workloadSpec("cacheeff")
	for _, pol := range []policy.Config{policy.Mely(), policy.MelyBaseWS(), policy.MelyWS()} {
		var unb, ce metrics.Series
		for rep := 0; rep < reps; rep++ {
			o := opt
			o.Seed = opt.Seed + int64(rep)
			u, err := scenario.MeasureSim(unbalanced, pol, o)
			if err != nil {
				return nil, err
			}
			unb.Observe(u.KEventsPerSecond())
			c, err := scenario.MeasureSim(cacheEff, pol, o)
			if err != nil {
				return nil, err
			}
			ce.Observe(c.KEventsPerSecond())
		}
		r.AddRow(pol.Label(),
			f0(unb.Mean()), f2(unb.RelStdDevPercent())+"%",
			f0(ce.Mean()), f2(ce.RelStdDevPercent())+"%")
	}
	r.AddNote("the paper reports <1%% standard deviations on its hardware; the simulator is deterministic")
	r.AddNote("per seed, so the variance here is purely workload randomness across seeds")
	return r, nil
}
