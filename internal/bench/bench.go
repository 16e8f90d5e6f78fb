package bench

import (
	"fmt"
	"sort"

	"github.com/melyruntime/mely/internal/metrics"
	"github.com/melyruntime/mely/internal/policy"
	"github.com/melyruntime/mely/internal/scenario"
)

// Experiment regenerates one table or figure.
type Experiment struct {
	ID    string
	Title string
	run   func(scenario.Options) (*Report, error)
}

// Run regenerates the experiment; zero fields of opt take the harness
// defaults (the paper's Xeon E5410, the calibrated costs, seed 42).
func (e Experiment) Run(opt scenario.Options) (*Report, error) {
	return e.run(opt.WithDefaults())
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Time spent stealing a set of events vs time spent executing these events", table1},
		{"table2", "Memory access times of the modeled machine", table2},
		{"table3", "Impact of the base workstealing (unbalanced microbenchmark)", table3},
		{"table4", "Impact of the time-left heuristic (unbalanced microbenchmark)", table4},
		{"table5", "Impact of the penalty-aware stealing (penalty microbenchmark)", table5},
		{"table6", "Impact of the locality-aware stealing (cache efficient microbenchmark)", table6},
		{"fig3", "Performance of the SFS file server with and without workstealing", fig3},
		{"fig4", "Performance of the SWS Web server with and without workstealing", fig4},
		{"fig7", "Performance of SWS across runtimes", fig7},
		{"fig8", "Performance of SFS across runtimes", fig8},
		{"amd16", "Extension: locality-aware stealing on the 16-core AMD topology", amd16Locality},
		{"timer", "Extension: deadline-driven workload (closed-loop clients with think times)", extensionReport("timer")},
		{"connscale", "Extension: C10K-style connection scaling (10k mostly-idle colors)", extensionReport("connscale")},
		{"overload", "Extension: bounded queues + disk spill under 2x open-loop overload (zero-loss asserted)", extensionReport("overload")},
		{"ablate-batch", "Ablation: Mely batch threshold", ablateBatch},
		{"ablate-batchsteal", "Ablation: batched vs single-color steals", ablateBatchSteal},
		{"ablate-intervals", "Ablation: stealing-queue interval count", ablateIntervals},
		{"ablate-heuristics", "Ablation: heuristic contribution matrix", ablateHeuristics},
		{"dynamic-profile", "Future work: learned handler profiles vs exact annotations", dynamicProfile},
		{"dynamic-penalty", "Future work: monitored memory usage vs manual ws_penalty", dynamicPenalty},
		{"stability", "Run-to-run variance across seeds (paper: stddev below 1%)", stability},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	all := All()
	ids := make([]string, len(all))
	for i, e := range all {
		if e.ID == id {
			return e, nil
		}
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", id, ids)
}

// paperWindow is the measure window, in cycles at full size
// (scenario.Options.Windows scales it), of the workloads sized here
// rather than by a file under scenarios/: cache efficient, the skewed
// colors of the ablations, and the SWS model.
const paperWindow = 200_000_000

// workloadSpec returns the scenario that describes one of the reports'
// workloads — what runs, at which size, over which window. It is the
// gate's own spec, scenarios/<name>.yaml, so a table row and a gate
// record of one workload and policy are measured by one call on one
// description; cacheeff, the one paper workload the gate does not run,
// is described here instead. The names are this package's constants: an
// unknown one is a bug.
func workloadSpec(name string) *scenario.Spec {
	if name == "cacheeff" {
		return &scenario.Spec{
			Name:   name,
			Engine: "sim",
			Sim:    &scenario.SimSpec{Workload: name},
			Phases: []scenario.PhaseSpec{
				{Name: "warmup", Cycles: 20_000_000},
				{Name: "measure", Cycles: paperWindow, Measure: true},
			},
		}
	}
	spec, err := scenario.Builtin(name)
	if err != nil {
		panic(err)
	}
	return spec
}

// measureRows measures spec's workload under each policy in turn (the
// policies are a report's rows; the ones the spec lists are the gate's)
// and appends the row that cells makes of each run.
func (r *Report) measureRows(spec *scenario.Spec, opt scenario.Options, pols []policy.Config,
	cells func(policy.Config, *metrics.Run) []string) error {
	for _, pol := range pols {
		run, err := scenario.MeasureSim(spec, pol, opt)
		if err != nil {
			return err
		}
		r.AddRow(cells(pol, run)...)
	}
	return nil
}
