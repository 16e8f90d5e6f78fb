package bench

import (
	"github.com/melyruntime/mely/internal/metrics"
	"github.com/melyruntime/mely/internal/policy"
	"github.com/melyruntime/mely/internal/sfsmodel"
	"github.com/melyruntime/mely/internal/swsmodel"
	"github.com/melyruntime/mely/internal/workload"
)

func (o Options) unbalancedSpec() workload.UnbalancedSpec {
	spec := workload.UnbalancedSpec{}
	if o.Quick {
		spec.EventsPerRound = 2000
	}
	return spec // zero value = the paper's 50 000 events/round
}

func (o Options) penaltySpec() workload.PenaltySpec {
	spec := workload.PenaltySpec{}
	if o.Quick {
		spec.NumA = 64
	}
	return spec // zero value = 512 A events
}

func (o Options) cacheEfficientSpec() workload.CacheEfficientSpec {
	spec := workload.CacheEfficientSpec{}
	if o.Quick {
		spec.APerCore = 20
	}
	return spec // zero value = one hundred A events per producer core
}

func (o Options) measureUnbalanced(pol policy.Config) (*metrics.Run, error) {
	eng, err := workload.BuildUnbalanced(o.Topology, pol, o.Params, o.Seed, o.unbalancedSpec())
	if err != nil {
		return nil, err
	}
	warm, win := o.windows(50_000_000, 500_000_000)
	return measureBuilt(eng, warm, win), nil
}

func (o Options) measurePenalty(pol policy.Config) (*metrics.Run, error) {
	eng, err := workload.BuildPenalty(o.Topology, pol, o.Params, o.Seed, o.penaltySpec())
	if err != nil {
		return nil, err
	}
	warm, win := o.windows(20_000_000, 200_000_000)
	return measureBuilt(eng, warm, win), nil
}

func (o Options) measureCacheEfficient(pol policy.Config) (*metrics.Run, error) {
	eng, err := workload.BuildCacheEfficient(o.Topology, pol, o.Params, o.Seed, o.cacheEfficientSpec())
	if err != nil {
		return nil, err
	}
	warm, win := o.windows(20_000_000, 200_000_000)
	return measureBuilt(eng, warm, win), nil
}

// Table1 reproduces Table I: the average time spent to steal a set of
// events and the average processing time of the stolen set, for SFS and
// the SWS Web server under Libasync-smp's workstealing.
func Table1(opt Options) (*Report, error) {
	opt = opt.withDefaults()
	r := &Report{
		ID:    "Table I",
		Title: "Stealing time vs stolen time (Libasync-smp - WS)",
		Columns: []string{"System", "Stealing time (cycles)", "Stolen time (cycles)",
			"paper steal", "paper stolen"},
	}

	sfsEng, err := sfsmodel.Build(opt.Topology, policy.LibasyncWS(), opt.Params, opt.Seed, sfsmodel.Spec{})
	if err != nil {
		return nil, err
	}
	// No warmup here: SFS's 16 persistent colors are rebalanced by a
	// burst of steals early on and ownership then stays put, so the
	// steals to measure are the early ones.
	_, sfsWin := opt.windows(0, 400_000_000)
	sfsRun := measureBuilt(sfsEng, 1, sfsWin)
	r.AddRow("SFS", f0(sfsRun.StealCostCycles()), f0(sfsRun.StolenTimeCycles()), "4.8K", "1200K")

	swsEng, err := swsmodel.Build(opt.Topology, policy.LibasyncWS(), opt.Params, opt.Seed, swsmodel.Spec{Clients: 2000})
	if err != nil {
		return nil, err
	}
	warm, win := opt.windows(50_000_000, 200_000_000)
	swsRun := measureBuilt(swsEng, warm, win)
	r.AddRow("Web server", f0(swsRun.StealCostCycles()), f0(swsRun.StolenTimeCycles()), "197K", "20K")

	r.AddNote("SFS steals are cheap (short queues, coarse handlers); Web-server steals scan deep queues.")
	return r, nil
}

// Table2 reproduces Table II: the memory access latencies of the
// modeled machine. Run cmd/memlat to measure the host's real hierarchy.
func Table2(opt Options) (*Report, error) {
	opt = opt.withDefaults()
	c := opt.Params.Cache
	r := &Report{
		ID:      "Table II",
		Title:   "Memory access times (model parameters, Intel Xeon E5410)",
		Columns: []string{"Memory hierarchy level", "Access time (cycles)", "paper"},
	}
	r.AddRow("L1 cache", f0(float64(c.L1Cycles)), "4")
	r.AddRow("L2 cache", f0(float64(c.L2Cycles)), "15")
	r.AddRow("Main memory", f0(float64(c.MemCycles)), "110")
	r.AddNote("per 64-byte line; shared-bus occupancy %d cycles/line; run cmd/memlat for the host machine",
		opt.Params.BusCyclesPerLine)
	return r, nil
}

// Table3 reproduces Table III: the impact of the base workstealing on
// the unbalanced microbenchmark for both runtimes.
func Table3(opt Options) (*Report, error) {
	opt = opt.withDefaults()
	r := &Report{
		ID:    "Table III",
		Title: "Impact of the base workstealing (unbalanced)",
		Columns: []string{"Configuration", "KEvents/s", "Locking time", "WS cost (cycles)",
			"paper KEv/s"},
	}
	paper := map[string]string{
		"Libasync-smp":      "1310",
		"Libasync-smp - WS": "122",
		"Mely":              "1265",
		"Mely - base WS":    "1195",
	}
	for _, pol := range []policy.Config{
		policy.Libasync(), policy.LibasyncWS(), policy.Mely(), policy.MelyBaseWS(),
	} {
		run, err := opt.measureUnbalanced(pol)
		if err != nil {
			return nil, err
		}
		cost := "-"
		if run.Total().Steals > 0 {
			cost = f0(run.StealCostCycles())
		}
		name := pol.Label()
		r.AddRow(name, f0(run.KEventsPerSecond()), f2(run.LockingTimePercent())+"%", cost, paper[name])
	}
	r.AddNote("paper WS costs: Libasync-smp 28329 cycles, Mely base 2261 cycles")
	return r, nil
}

// Table4 reproduces Table IV: the impact of the time-left heuristic.
func Table4(opt Options) (*Report, error) {
	opt = opt.withDefaults()
	r := &Report{
		ID:    "Table IV",
		Title: "Impact of the time-left heuristic (unbalanced)",
		Columns: []string{"Configuration", "KEvents/s", "Stolen time (cycles)",
			"paper KEv/s", "paper stolen"},
	}
	paper := map[string][2]string{
		"Libasync-smp":         {"1310", "-"},
		"Libasync-smp - WS":    {"122", "484"},
		"Mely - base WS":       {"1195", "445"},
		"Mely - time-aware WS": {"2042", "49987"},
	}
	for _, pol := range []policy.Config{
		policy.Libasync(), policy.LibasyncWS(), policy.MelyBaseWS(), policy.MelyTimeLeftWS(),
	} {
		run, err := opt.measureUnbalanced(pol)
		if err != nil {
			return nil, err
		}
		stolen := "-"
		if run.Total().Steals > 0 {
			stolen = f0(run.StolenTimeCycles())
		}
		name := pol.Label()
		p := paper[name]
		r.AddRow(name, f0(run.KEventsPerSecond()), stolen, p[0], p[1])
	}
	return r, nil
}

// Table5 reproduces Table V: the impact of penalty-aware stealing.
func Table5(opt Options) (*Report, error) {
	opt = opt.withDefaults()
	r := &Report{
		ID:    "Table V",
		Title: "Impact of the penalty-aware stealing (penalty)",
		Columns: []string{"Configuration", "KEvents/s", "L2 misses/event",
			"paper KEv/s", "paper misses"},
	}
	paper := map[string][2]string{
		"Libasync-smp":            {"1103", "29"},
		"Libasync-smp - WS":       {"190", "167K"},
		"Mely - base WS":          {"1386", "42K"},
		"Mely - penalty-aware WS": {"2122", "2K"},
	}
	for _, pol := range []policy.Config{
		policy.Libasync(), policy.LibasyncWS(), policy.MelyBaseWS(), policy.MelyPenaltyWS(),
	} {
		run, err := opt.measurePenalty(pol)
		if err != nil {
			return nil, err
		}
		name := pol.Label()
		p := paper[name]
		r.AddRow(name, f0(run.KEventsPerSecond()), f1(run.L2MissesPerEvent()), p[0], p[1])
	}
	r.AddNote("absolute miss counts depend on the cache model granularity; compare ratios between rows")
	return r, nil
}

// Table6 reproduces Table VI: the impact of locality-aware stealing.
func Table6(opt Options) (*Report, error) {
	opt = opt.withDefaults()
	r := &Report{
		ID:    "Table VI",
		Title: "Impact of the locality-aware stealing (cache efficient)",
		Columns: []string{"Configuration", "KEvents/s", "L2 misses/event",
			"paper KEv/s", "paper misses"},
	}
	paper := map[string][2]string{
		"Libasync-smp":             {"1156", "0"},
		"Libasync-smp - WS":        {"1497", "13"},
		"Mely - base WS":           {"1426", "12"},
		"Mely - locality-aware WS": {"1869", "2"},
	}
	for _, pol := range []policy.Config{
		policy.Libasync(), policy.LibasyncWS(), policy.MelyBaseWS(), policy.MelyLocalityWS(),
	} {
		run, err := opt.measureCacheEfficient(pol)
		if err != nil {
			return nil, err
		}
		name := pol.Label()
		p := paper[name]
		r.AddRow(name, f0(run.KEventsPerSecond()), f1(run.L2MissesPerEvent()), p[0], p[1])
	}
	return r, nil
}
