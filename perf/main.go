// Command perf is the wall-clock ledger: seven live workloads against
// the real runtime and the real sws/sfs servers over host loopback,
// measured from outside — Runtime.Stats() deltas, spans recorded in this
// package around calls into public functions, and isolated calls into
// each internal package's exported API.
//
// Run one workload the way BENCHMARK.json's command does:
//
//	bash perf/run.sh --workload sws_closed --seed 1 --seconds 12 --trace 0
//
// or the whole ledger (every workload, -reps times, interleaved, then a
// traced pass each and the isolated layer rows):
//
//	bash perf/run.sh -reps 3 -seconds 6 -out perf/out/ledger.json
//	bash perf/run.sh -compare perf/baseline.json perf/out/ledger.json
//
// See README.md for the definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/melyruntime/mely"
	"github.com/melyruntime/mely/internal/netpoll"
)

// runShape is the shape of one --trace 0 run: a warm-up, then windows;
// every end-to-end metric is its second-best window (see pass.endToEnd).
type runShape struct {
	warmUp    time.Duration
	window    time.Duration
	windows   int
	setupReps int // set-ups per run besides the measured one; setup_s is the median of all of them
}

func shapeFor(seconds int) runShape {
	window := 2 * time.Second
	total := time.Duration(seconds) * time.Second
	if total < window {
		window = total
	}
	return runShape{warmUp: time.Second, window: window, windows: int(total / window), setupReps: 12}
}

const (
	// Full-length layer rows (-layers and the ledger). A --trace 1 run
	// repeats them much shorter (--seconds/200 per isolated row).
	isolatedRowDur = 300 * time.Millisecond
	crossRunDur    = 4 * time.Second
)

var workloadMakers = map[string]func(runCfg) workload{
	"sws_closed":        func(c runCfg) workload { return newSwsWL(false, c) },
	"sws_pipelined":     func(c runCfg) workload { return newSwsWL(true, c) },
	"sfs_read":          func(c runCfg) workload { return newSfsWL(c) },
	"events_chain":      func(c runCfg) workload { return newEventsWL(kindChain, c) },
	"events_unbalanced": func(c runCfg) workload { return newEventsWL(kindUnbalanced, c) },
	"timers_churn":      func(c runCfg) workload { return newTimersWL(c) },
	"spill_overload":    func(c runCfg) workload { return newEventsWL(kindSpill, c) },
}

// result is the line a single run prints last on standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print its result line (the BENCHMARK.json command); empty runs the whole ledger")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs: colours, long-event positions, timer deadlines, file bytes, path order")
		seconds = flag.Int("seconds", 6, "measured seconds per run, in windows of 2 s")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from an untraced and a traced pass")
		specAt  = flag.String("spec", "BENCHMARK.json", "path of BENCHMARK.json")
		reps    = flag.Int("reps", 3, "ledger: runs per workload, round-robin interleaved; the ledger reports their median with min and max")
		layers  = flag.Bool("layers", false, "only the isolated layer rows (0.3 s each) and the sws_closed budget line")
		compare = flag.Bool("compare", false, "compare two ledger files: perf -compare a.json b.json")
		out     = flag.String("out", "", "ledger: also write the JSON here")
		traces  = flag.String("tracedir", "perf/out", "where a --trace 1 run writes its Chrome trace")
	)
	flag.Parse()
	spec, err := loadSpec(*specAt)
	if err != nil {
		fatal(err)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two ledger files"))
		}
		regressed, err := compareLedgers(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *layers:
		m := metrics{}
		if err := layerRows(m, *seed, isolatedRowDur, crossRunDur); err != nil {
			fatal(err)
		}
		printLayerRows(os.Stdout, spec, m)
	case *name != "":
		mk, ok := workloadMakers[*name]
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		var res result
		if *trace == 0 {
			res, err = runEndToEnd(spec, *name, mk, *seed, shapeFor(*seconds))
		} else {
			res, err = runTraced(spec, *name, mk, *seed, time.Duration(*seconds)*time.Second, *traces)
		}
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	default:
		if err := runLedger(spec, *seed, *seconds, *reps, *out); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perf:", err)
	os.Exit(2)
}

// guards are the mechanism checks: a workload that does not exercise
// (or does not bypass) the mechanism it was chosen for makes the run
// invalid, whatever its numbers.
func guards(name string, m metrics) []string {
	var out []string
	share := m["steal.stolen_time_share"]
	switch name {
	case "events_unbalanced":
		if share < 0.2 {
			out = append(out, fmt.Sprintf("steal.stolen_time_share = %.3f < 0.2: core 1 is not working by stealing", share))
		}
	case "events_chain":
		if share > 0.05 {
			out = append(out, fmt.Sprintf("steal.stolen_time_share = %.3f > 0.05: the balanced workload is being stolen from", share))
		}
	}
	return out
}

// measuredPass is one workload instance taken from set-up to tear-down:
// first op, warm-up, windows, guards.
type measuredPass struct {
	pass
	m     metrics // endToEnd, statsRows and the workload's own layer rows
	first float64 // seconds from workload start to the first op's completion
	ok    bool
}

// maxLockInRetries bounds the re-measurements of a pass whose mechanism
// guard fired (see runPass).
const maxLockInRetries = 2

// runPass builds a workload, measures it and runs its guards. A pass
// whose outputs are right but whose mechanism guard fired is measured
// again on a fresh runtime: the runtime's steal-cost estimate can lock in
// (one steal that took milliseconds, because the thief lost its CPU
// mid-steal, prices every later steal out for good — about 1 run in 30 of
// events_unbalanced), and a pass taken in that state measures "stealing
// off", not the workload. Each re-measurement is reported on standard
// error; a pass that fails every attempt is invalid.
func runPass(name string, mk func(runCfg) workload, cfg runCfg, warm, window time.Duration, windows int, afterWarm func()) (measuredPass, error) {
	for attempt := 0; ; attempt++ {
		w := mk(cfg)
		first, err := timedSetup(w)
		if err != nil {
			w.teardown()
			return measuredPass{}, err
		}
		mp := measuredPass{pass: measure(w, warm, window, windows, afterWarm), m: metrics{}, first: first}
		mp.endToEnd(mp.m)
		c := mp.measured()
		statsRows(mp.m, mp.before, mp.after, c.ops, mp.wall)
		w.layerMetrics(mp.m, c.ops, mp.wall)
		outputs := w.finish(w.runtime().Stats())
		w.teardown()
		if mp.total.failed > 0 {
			outputs = append(outputs, fmt.Sprintf("%d of %d ops failed", mp.total.failed, mp.total.attempted))
		}
		mechanism := guards(name, mp.m)
		for _, v := range append(outputs, mechanism...) {
			fmt.Fprintf(os.Stderr, "perf: %s: INVALID: %s\n", name, v)
		}
		mp.ok = len(outputs) == 0 && len(mechanism) == 0
		if mp.ok || len(outputs) > 0 || attempt == maxLockInRetries {
			return mp, nil
		}
		fmt.Fprintf(os.Stderr, "perf: %s: measuring again on a fresh runtime (attempt %d of %d)\n", name, attempt+2, maxLockInRetries+1)
	}
}

// runEndToEnd is a --trace 0 run: tracing off, every end-to-end metric.
func runEndToEnd(spec *benchSpec, name string, mk func(runCfg) workload, seed int64, shape runShape) (result, error) {
	cfg := runCfg{seed: seed}
	mp, err := runPass(name, mk, cfg, shape.warmUp, shape.window, shape.windows, nil)
	if err != nil {
		return result{}, err
	}
	// The resident peak belongs to the measured run: read it before the
	// repeated set-ups, which exist only to make setup_s steady.
	mp.m["peak_rss_mb"] = peakRSSMB()
	more, err := timeSetups(func() workload { return mk(cfg) }, shape.setupReps)
	if err != nil {
		return result{}, err
	}
	mp.m["setup_s"] = median(append(more, mp.first))
	vals, err := report(mp.m, spec.EndToEnd)
	if err != nil {
		return result{}, err
	}
	return result{Correct: mp.ok, Attempted: mp.total.attempted, Failed: mp.total.failed, Metrics: vals}, nil
}

// runTraced is a --trace 1 run: an untraced pass for the counts (Stats
// deltas, allocations), a traced pass for the spans, then the isolated
// and cross-run layer rows. The time is split so the whole run lasts
// about as long as an end-to-end run.
func runTraced(spec *benchSpec, name string, mk func(runCfg) workload, seed int64, dur time.Duration, traceDir string) (result, error) {
	// The span buffers are allocated before the untraced pass, so that
	// both passes run over the same live heap: sfs_read collects ~300
	// times a second and is a third faster with a few MB more of it.
	tr := newTracer(cores)
	untraced, err := runPass(name, mk, runCfg{seed: seed}, dur/20, dur*8/100, 3, nil)
	if err != nil {
		return result{}, err
	}
	traced, err := runPass(name, mk, runCfg{seed: seed, tr: tr}, dur/20, dur*3/10, 1, tr.reset)
	if err != nil {
		return result{}, err
	}
	m := untraced.m
	m["trace.overhead_share"] = 1 - ratio(traced.m["ops_per_s"], m["ops_per_s"])
	stats, queueWait, dropped := tr.summarize()
	m["mely.queue_wait_p50_us"] = quantileUS(queueWait, 0.50)
	m["mely.queue_wait_p99_us"] = quantileUS(queueWait, 0.99)
	m["trace.spans_dropped"] = float64(dropped)
	printSpanStats(os.Stderr, name, stats, dropped)
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return result{}, err
	}
	if err := tr.writeChrome(filepath.Join(traceDir, name+".trace.json")); err != nil {
		return result{}, err
	}

	if err := layerRows(m, seed, dur/200, dur*4/100); err != nil {
		return result{}, err
	}
	// Server counters a workload does not have read 0 there.
	for _, k := range []string{"sws.served_per_op", "sfs.mb_per_s", "sfs.shed"} {
		if _, ok := m[k]; !ok {
			m[k] = 0
		}
	}
	vals, err := report(m, spec.PerLayer)
	if err != nil {
		return result{}, err
	}
	total := untraced.total
	total.add(traced.total)
	return result{Correct: untraced.ok && traced.ok, Attempted: total.attempted, Failed: total.failed, Metrics: vals}, nil
}

// layerRows fills in every row that does not depend on the workload
// being run: the isolated rows (rowDur each), the echo floors, and the
// cross-run rows, which rerun a workload under a non-default variant for
// crossDur.
func layerRows(m metrics, seed int64, rowDur, crossDur time.Duration) error {
	if err := isolatedRows(m, rowDur); err != nil {
		return err
	}
	quick := func(name string, v variant, d time.Duration) (metrics, error) {
		w := workloadMakers[name](runCfg{seed: seed, v: v})
		defer w.teardown()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s %+v: %w", name, v, err)
		}
		p := measure(w, d/4, d, 1, nil)
		qm := metrics{}
		p.endToEnd(qm)
		qm[runtimeUS] = runtimeUSPerOp(p.before, p.after, p.measured().ops)
		if p.total.failed > 0 {
			return nil, fmt.Errorf("%s %+v: %d ops failed", name, v, p.total.failed)
		}
		return qm, nil
	}
	// Each comparison runs its sides back to back, budgetRounds times,
	// and keeps the median of each side: the latency-bound rows differ
	// by less than the machine drifts over a few seconds.
	type side struct {
		name string
		v    variant
	}
	rounds := func(sides ...side) ([]map[string][]float64, error) {
		out := make([]map[string][]float64, len(sides))
		for r := 0; r < budgetRounds; r++ {
			for i, sd := range sides {
				qm, err := quick(sd.name, sd.v, crossDur/budgetRounds)
				if err != nil {
					return nil, err
				}
				if out[i] == nil {
					out[i] = map[string][]float64{}
				}
				for k, v := range qm {
					out[i][k] = append(out[i][k], v)
				}
			}
		}
		return out, nil
	}
	chain, err := rounds(side{"events_chain", variant{}}, side{"events_chain", variant{policy: mely.PolicyLibasync}}, side{"events_chain", variant{obsOff: true}})
	if err != nil {
		return err
	}
	// Ratios name their base: mely ÷ libasync, pumps ÷ epoll.
	m["policy.mely_vs_libasync_ratio"] = ratio(median(chain[0]["ops_per_s"]), median(chain[1]["ops_per_s"]))
	m["obs.cost_ns_per_event"] = 1e3 * (median(chain[0]["cpu_us_per_op"]) - median(chain[2]["cpu_us_per_op"]))
	pipe, err := rounds(side{"sws_pipelined", variant{}}, side{"sws_pipelined", variant{backend: netpoll.BackendPumps}})
	if err != nil {
		return err
	}
	m["netpoll.pumps_vs_epoll_ratio"] = ratio(median(pipe[1]["ops_per_s"]), median(pipe[0]["ops_per_s"]))

	var floor, echo, echoRuntime, p50, closedRuntime []float64
	for r := 0; r < budgetRounds; r++ {
		em := metrics{}
		ert, err := echoRows(em, crossDur/budgetRounds)
		if err != nil {
			return err
		}
		closed, err := quick("sws_closed", variant{}, crossDur/budgetRounds)
		if err != nil {
			return err
		}
		floor, echo = append(floor, em["floor.tcp_echo_rtt_us"]), append(echo, em["netpoll.echo_rtt_us"])
		echoRuntime, closedRuntime = append(echoRuntime, ert), append(closedRuntime, closed[runtimeUS])
		p50 = append(p50, closed["lat_p50_us"])
	}
	m["floor.tcp_echo_rtt_us"], m["netpoll.echo_rtt_us"] = median(floor), median(echo)
	// sws.chain_us is what the 4-event handler chain adds over a
	// one-handler echo on the same netpoll; sws.chain_est_us is the
	// same thing estimated independently, from the time the runtime's
	// own histograms attribute to a request minus that of an echo.
	m["sws.chain_us"] = median(p50) - median(echo)
	m["sws.chain_est_us"] = median(closedRuntime) - median(echoRuntime)
	m[budgetP50] = median(p50)
	return nil
}

const budgetRounds = 3

// Intermediates of the budget line; not reported metrics.
const (
	runtimeUS = "budget.runtime_us_per_op"
	budgetP50 = "budget.sws_closed_p50_us"
)
