package bench

import (
	"github.com/melyruntime/mely/internal/metrics"
	"github.com/melyruntime/mely/internal/policy"
	"github.com/melyruntime/mely/internal/scenario"
	"github.com/melyruntime/mely/internal/sfsmodel"
	"github.com/melyruntime/mely/internal/sim"
	"github.com/melyruntime/mely/internal/swsmodel"
)

// table1 reproduces Table I: the average time spent to steal a set of
// events and the average processing time of the stolen set, for SFS and
// the SWS Web server under Libasync-smp's workstealing.
func table1(opt scenario.Options) (*Report, error) {
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
	_, sfsWin := opt.Windows(0, 400_000_000)
	sfsRun := sim.Measure(sfsEng, 1, sfsWin)
	r.AddRow("SFS", f0(sfsRun.StealCostCycles()), f0(sfsRun.StolenTimeCycles()), "4.8K", "1200K")

	swsEng, err := swsmodel.Build(opt.Topology, policy.LibasyncWS(), opt.Params, opt.Seed, swsmodel.Spec{Clients: 2000})
	if err != nil {
		return nil, err
	}
	warm, win := opt.Windows(50_000_000, paperWindow)
	swsRun := sim.Measure(swsEng, warm, win)
	r.AddRow("Web server", f0(swsRun.StealCostCycles()), f0(swsRun.StolenTimeCycles()), "197K", "20K")

	r.AddNote("SFS steals are cheap (short queues, coarse handlers); Web-server steals scan deep queues.")
	return r, nil
}

// table2 reproduces Table II: the memory access latencies of the
// modeled machine. Run cmd/memlat to measure the host's real hierarchy.
func table2(opt scenario.Options) (*Report, error) {
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

// table3 reproduces Table III: the impact of the base workstealing on
// the unbalanced microbenchmark for both runtimes.
func table3(opt scenario.Options) (*Report, error) {
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
	pols := []policy.Config{policy.Libasync(), policy.LibasyncWS(), policy.Mely(), policy.MelyBaseWS()}
	err := r.measureRows(workloadSpec("unbalanced"), opt, pols, func(pol policy.Config, run *metrics.Run) []string {
		cost := "-"
		if run.Total().Steals > 0 {
			cost = f0(run.StealCostCycles())
		}
		name := pol.Label()
		return []string{name, f0(run.KEventsPerSecond()), f2(run.LockingTimePercent()) + "%", cost, paper[name]}
	})
	r.AddNote("paper WS costs: Libasync-smp 28329 cycles, Mely base 2261 cycles")
	return r, err
}

// table4 reproduces Table IV: the impact of the time-left heuristic.
func table4(opt scenario.Options) (*Report, error) {
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
	pols := []policy.Config{policy.Libasync(), policy.LibasyncWS(), policy.MelyBaseWS(), policy.MelyTimeLeftWS()}
	err := r.measureRows(workloadSpec("unbalanced"), opt, pols, func(pol policy.Config, run *metrics.Run) []string {
		stolen := "-"
		if run.Total().Steals > 0 {
			stolen = f0(run.StolenTimeCycles())
		}
		name := pol.Label()
		return []string{name, f0(run.KEventsPerSecond()), stolen, paper[name][0], paper[name][1]}
	})
	return r, err
}

// missCells is the row Tables V and VI share: throughput and L2 misses
// per event beside the paper's two values.
func missCells(paper map[string][2]string) func(policy.Config, *metrics.Run) []string {
	return func(pol policy.Config, run *metrics.Run) []string {
		name := pol.Label()
		return []string{name, f0(run.KEventsPerSecond()), f1(run.L2MissesPerEvent()), paper[name][0], paper[name][1]}
	}
}

// table5 reproduces Table V: the impact of penalty-aware stealing.
func table5(opt scenario.Options) (*Report, error) {
	r := &Report{
		ID:    "Table V",
		Title: "Impact of the penalty-aware stealing (penalty)",
		Columns: []string{"Configuration", "KEvents/s", "L2 misses/event",
			"paper KEv/s", "paper misses"},
	}
	pols := []policy.Config{policy.Libasync(), policy.LibasyncWS(), policy.MelyBaseWS(), policy.MelyPenaltyWS()}
	err := r.measureRows(workloadSpec("penalty"), opt, pols, missCells(map[string][2]string{
		"Libasync-smp":            {"1103", "29"},
		"Libasync-smp - WS":       {"190", "167K"},
		"Mely - base WS":          {"1386", "42K"},
		"Mely - penalty-aware WS": {"2122", "2K"},
	}))
	r.AddNote("absolute miss counts depend on the cache model granularity; compare ratios between rows")
	return r, err
}

// table6 reproduces Table VI: the impact of locality-aware stealing.
func table6(opt scenario.Options) (*Report, error) {
	r := &Report{
		ID:    "Table VI",
		Title: "Impact of the locality-aware stealing (cache efficient)",
		Columns: []string{"Configuration", "KEvents/s", "L2 misses/event",
			"paper KEv/s", "paper misses"},
	}
	pols := []policy.Config{policy.Libasync(), policy.LibasyncWS(), policy.MelyBaseWS(), policy.MelyLocalityWS()}
	err := r.measureRows(workloadSpec("cacheeff"), opt, pols, missCells(map[string][2]string{
		"Libasync-smp":             {"1156", "0"},
		"Libasync-smp - WS":        {"1497", "13"},
		"Mely - base WS":           {"1426", "12"},
		"Mely - locality-aware WS": {"1869", "2"},
	}))
	return r, err
}
