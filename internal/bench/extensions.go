package bench

import (
	"fmt"

	"github.com/melyruntime/mely/internal/metrics"
	"github.com/melyruntime/mely/internal/policy"
	"github.com/melyruntime/mely/internal/scenario"
)

// extension is the report of a workload the paper has no counterpart
// for, each opened by a subsystem grown after it: the four Mely
// configurations on the gate scenario of the same name
// (scenarios/<name>.yaml; the workloads themselves, and the overload
// one's zero-loss, FIFO and bound assertions, are internal/scenario's).
type extension struct {
	id, title string
	columns   []string // after Configuration and KEvents/s
	cells     func(*metrics.Run) []string
	notes     []string
}

func stealCells(run *metrics.Run) []string {
	t := run.Total()
	return []string{f0(float64(t.Steals)), f0(float64(t.StolenColors))}
}

var overloadDefaults = scenario.DefaultOverloadParams()

var extensions = map[string]extension{
	// The deadline-driven server shape (the timerwheel subsystem): all
	// load arrives as timed events on one core's colors.
	"timer": {
		id:      "Timer workload",
		title:   "Deadline-driven closed loop (48 thinking clients, colors skewed onto core 0)",
		columns: []string{"Steals", "Stolen colors"},
		cells:   stealCells,
		notes: []string{
			"every request re-arrives as a timed event after a think pause (the sim timer heap; the",
			"real runtime's per-core timing wheels carry the same load shape — see BenchmarkTimerWheel)",
		},
	},
	// The C10K shape (the epoll netpoll backend): a color population
	// four orders of magnitude larger than the active set, where the
	// paper's experiments stop at hundreds of clients.
	"connscale": {
		id:      "Connection scaling",
		title:   "C10K-style mostly-idle connections (10k colors, ~2.5% active at any instant)",
		columns: []string{"Steals", "Stolen colors"},
		cells:   stealCells,
		notes: []string{
			"every connection is a color that fires one 5k-cycle request then thinks ~2M cycles (sim",
			"timer heap); the real epoll backend carries this shape with O(shards) goroutines",
		},
	},
	// Overload control (the spillq subsystem): an open-loop producer at
	// 2x the machine's service rate against bounded queues, where the
	// paper's runtime assumes queues fit in memory.
	"overload": {
		id:      "Overload control",
		title:   "Open-loop 2x overload with bounded queues + disk spill (zero-loss asserted)",
		columns: []string{"Spilled", "Reloaded", "Max in-mem", "Steals"},
		cells: func(run *metrics.Run) []string {
			return []string{
				f0(run.Payload["overload_spilled"]), f0(run.Payload["overload_reloaded"]),
				f0(run.Payload["overload_max_inmem"]), f0(float64(run.Total().Steals)),
			}
		},
		notes: []string{
			fmt.Sprintf("producer posts %d events per %d-cycle tick (2x the 8-core service rate) onto %d colors",
				overloadDefaults.PerTick, overloadDefaults.Tick, overloadDefaults.Colors),
			"homed on core 0; overflow spills through internal/spillq segment files on real disk and",
			"reloads below the low-water mark — zero loss and per-color FIFO are asserted, not sampled",
		},
	},
}

// extensionReport is the experiment of the extension called name.
func extensionReport(name string) func(scenario.Options) (*Report, error) {
	x := extensions[name]
	return func(opt scenario.Options) (*Report, error) {
		r := &Report{
			ID:      x.id,
			Title:   x.title,
			Columns: append([]string{"Configuration", "KEvents/s"}, x.columns...),
			Notes:   x.notes,
		}
		pols := []policy.Config{policy.Mely(), policy.MelyBaseWS(), policy.MelyTimeLeftWS(), policy.MelyWS()}
		err := r.measureRows(workloadSpec(name), opt, pols, func(pol policy.Config, run *metrics.Run) []string {
			return append([]string{pol.Label(), f0(run.KEventsPerSecond())}, x.cells(run)...)
		})
		return r, err
	}
}
