package bench

import (
	"fmt"
	"sort"

	"github.com/melyruntime/mely/internal/metrics"
	"github.com/melyruntime/mely/internal/scenario"
	"github.com/melyruntime/mely/internal/sim"
	"github.com/melyruntime/mely/internal/topology"
)

// Options configures an experiment run.
type Options struct {
	// Topology defaults to the paper's 8-core Xeon E5410.
	Topology *topology.Topology
	// Params defaults to the calibrated cost model.
	Params sim.Params
	// Seed makes runs reproducible.
	Seed int64
	// Quick shrinks workloads and windows for tests and smoke runs;
	// the full size is used by cmd/melybench.
	Quick bool
}

func (o Options) withDefaults() Options {
	if o.Topology == nil {
		o.Topology = topology.IntelXeonE5410()
	}
	if o.Params.CyclesPerSecond == 0 {
		o.Params = sim.DefaultParams()
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// windows returns the (warmup, measurement) horizon in cycles.
func (o Options) windows(fullWarm, fullWin int64) (int64, int64) {
	if o.Quick {
		return fullWarm / 10, fullWin / 10
	}
	return fullWarm, fullWin
}

// scenarioOptions maps bench options onto the scenario harness, which
// shares the same defaults (Xeon E5410, calibrated costs, seed 42) and
// quick-scaling rules.
func (o Options) scenarioOptions() scenario.Options {
	return scenario.Options{Topology: o.Topology, Params: o.Params, Seed: o.Seed, Quick: o.Quick}
}

// Experiment regenerates one table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*Report, error)
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Time spent stealing a set of events vs time spent executing these events", Table1},
		{"table2", "Memory access times of the modeled machine", Table2},
		{"table3", "Impact of the base workstealing (unbalanced microbenchmark)", Table3},
		{"table4", "Impact of the time-left heuristic (unbalanced microbenchmark)", Table4},
		{"table5", "Impact of the penalty-aware stealing (penalty microbenchmark)", Table5},
		{"table6", "Impact of the locality-aware stealing (cache efficient microbenchmark)", Table6},
		{"fig3", "Performance of the SFS file server with and without workstealing", Fig3},
		{"fig4", "Performance of the SWS Web server with and without workstealing", Fig4},
		{"fig7", "Performance of SWS across runtimes", Fig7},
		{"fig8", "Performance of SFS across runtimes", Fig8},
		{"amd16", "Extension: locality-aware stealing on the 16-core AMD topology", AMD16Locality},
		{"timer", "Extension: deadline-driven workload (closed-loop clients with think times)", TimerScenario},
		{"connscale", "Extension: C10K-style connection scaling (10k mostly-idle colors)", ConnScaleScenario},
		{"overload", "Extension: bounded queues + disk spill under 2x open-loop overload (zero-loss asserted)", OverloadScenario},
		{"ablate-batch", "Ablation: Mely batch threshold", AblateBatch},
		{"ablate-batchsteal", "Ablation: batched vs single-color steals", AblateBatchSteal},
		{"ablate-intervals", "Ablation: stealing-queue interval count", AblateIntervals},
		{"ablate-heuristics", "Ablation: heuristic contribution matrix", AblateHeuristics},
		{"dynamic-profile", "Future work: learned handler profiles vs exact annotations", DynamicProfile},
		{"dynamic-penalty", "Future work: monitored memory usage vs manual ws_penalty", DynamicPenalty},
		{"stability", "Run-to-run variance across seeds (paper: stddev below 1%)", Stability},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", id, ids)
}

// measureBuilt runs the standard warmup/measure protocol on an engine.
func measureBuilt(eng *sim.Engine, warm, win int64) *metrics.Run {
	return sim.Measure(eng, warm, win)
}
