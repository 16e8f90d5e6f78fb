package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// spread is one metric over the ledger's reps.
type spread struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Unit   string  `json:"unit"`
}

type workloadLedger struct {
	Why      string            `json:"why"`
	EndToEnd map[string]spread `json:"end_to_end"`
	PerLayer map[string]value  `json:"per_layer"`
}

// ledger is what `perf` without -workload writes, and what -compare
// reads.
type ledger struct {
	Host      string                     `json:"host"`
	Traffic   string                     `json:"traffic"`
	Seconds   int                        `json:"seconds"`
	Reps      int                        `json:"reps"`
	Seed      int64                      `json:"seed"`
	Workloads map[string]*workloadLedger `json:"workloads"`
	// Layers are the rows that do not depend on the workload: isolated
	// calls and cross-run comparisons, taken once at full length.
	Layers map[string]value   `json:"layers"`
	Budget map[string]float64 `json:"sws_closed_budget_us"`
}

// child runs one workload in a fresh process, so that peak RSS, the
// heap and the runtime's state belong to that run alone, and parses its
// result line.
func child(name string, seed int64, seconds, trace int) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", name, err)
		}
		return result{}, fmt.Errorf("%s: result line: %w", name, jerr)
	}
	if err != nil || !res.Correct {
		return res, fmt.Errorf("%s (seed %d): invalid run: %d of %d ops failed or a guard fired", name, seed, res.Failed, res.Attempted)
	}
	return res, nil
}

func runLedger(spec *benchSpec, seed int64, seconds, reps int, outPath string) error {
	if seconds < 4 {
		return fmt.Errorf("-seconds %d: a ledger run measures at least 4 s", seconds)
	}
	l := &ledger{
		Host:    fmt.Sprintf("%s/%s, %d CPUs, %s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version()),
		Traffic: "host loopback (127.0.0.1), clients in the benchmark process",
		Seconds: seconds, Reps: reps, Seed: seed,
		Workloads: map[string]*workloadLedger{},
		Layers:    map[string]value{},
	}
	runs := map[string][]result{}
	var failed []string
	// Round-robin: rep r of every workload before rep r+1 of any, so a
	// slow drift of the machine lands on all workloads alike.
	for r := 0; r < reps; r++ {
		for _, wd := range spec.Workloads {
			fmt.Fprintf(os.Stderr, "perf: %s rep %d/%d\n", wd.Name, r+1, reps)
			res, err := child(wd.Name, seed+int64(r), seconds, 0)
			if err != nil {
				failed = append(failed, err.Error())
				continue
			}
			runs[wd.Name] = append(runs[wd.Name], res)
		}
	}
	for _, wd := range spec.Workloads {
		wl := &workloadLedger{Why: wd.Why, EndToEnd: map[string]spread{}, PerLayer: map[string]value{}}
		l.Workloads[wd.Name] = wl
		for _, d := range spec.EndToEnd {
			var v []float64
			for _, res := range runs[wd.Name] {
				v = append(v, res.Metrics[d.Name].Value)
			}
			if len(v) > 0 {
				wl.EndToEnd[d.Name] = spread{Median: median(v), Min: slices.Min(v), Max: slices.Max(v), Unit: d.Unit}
			}
		}
		fmt.Fprintf(os.Stderr, "perf: %s traced run\n", wd.Name)
		res, err := child(wd.Name, seed, 10, 1)
		if err != nil {
			failed = append(failed, err.Error())
			continue
		}
		wl.PerLayer = res.Metrics
	}

	fmt.Fprintln(os.Stderr, "perf: isolated layer rows")
	lm := metrics{}
	if err := layerRows(lm, seed, isolatedRowDur, crossRunDur); err != nil {
		return err
	}
	for _, d := range spec.PerLayer {
		if v, ok := lm[d.Name]; ok {
			l.Layers[d.Name] = value{Value: v, Unit: d.Unit}
			// The traced runs repeat these rows at a tenth of the
			// length; the ledger keeps the full-length ones only.
			for _, wl := range l.Workloads {
				delete(wl.PerLayer, d.Name)
			}
		}
	}
	l.Budget = budget(lm)

	printLedger(os.Stdout, spec, l)
	raw, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	if outPath != "" {
		if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	fmt.Println(string(raw))
	if len(failed) > 0 {
		return fmt.Errorf("invalid runs:\n  %s", strings.Join(failed, "\n  "))
	}
	return nil
}

// budget is the sws_closed budget line: the request's p50 rebuilt from
// the layers under it. The chain term is the independent estimate
// (sws.chain_est_us), so the residual is a finding, not an identity.
func budget(m metrics) map[string]float64 {
	floor, echo, chain, p50 := m["floor.tcp_echo_rtt_us"], m["netpoll.echo_rtt_us"], m["sws.chain_est_us"], m[budgetP50]
	sum := echo + chain
	return map[string]float64{
		"floor.tcp_echo_rtt_us": floor,
		"netpoll_share_us":      echo - floor,
		"sws.chain_est_us":      chain,
		"sum_us":                sum,
		"measured_p50_us":       p50,
		"residual_us":           p50 - sum,
		"residual_share":        ratio(p50-sum, p50),
	}
}

func printBudget(w io.Writer, b map[string]float64) {
	fmt.Fprintf(w, "sws_closed budget: floor.tcp_echo_rtt_us %.1f + netpoll share %.1f + sws.chain_est_us %.1f = %.1f µs; measured p50 %.1f µs; residual %.1f µs (%.1f %%)\n",
		b["floor.tcp_echo_rtt_us"], b["netpoll_share_us"], b["sws.chain_est_us"], b["sum_us"], b["measured_p50_us"], b["residual_us"], 100*b["residual_share"])
}

func printLayerRows(w io.Writer, spec *benchSpec, m metrics) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "layer row\tvalue\tunit")
	for _, d := range spec.PerLayer {
		if v, ok := m[d.Name]; ok {
			fmt.Fprintf(tw, "%s\t%.4g\t%s\n", d.Name, v, d.Unit)
		}
	}
	tw.Flush()
	printBudget(w, budget(m))
}

func printSpanStats(w io.Writer, name string, stats map[string]spanStat, dropped int64) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "%s spans\tcount\ttotal µs\tself µs\tself µs/span\n", name)
	for _, n := range spanNames {
		if s, ok := stats[n]; ok {
			fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.0f\t%.2f\n", n, s.Count, s.TotalUS, s.SelfUS, s.SelfUS/float64(s.Count))
		}
	}
	tw.Flush()
	if dropped > 0 {
		fmt.Fprintf(w, "(%d spans dropped: buffers full)\n", dropped)
	}
}

func printLedger(w io.Writer, spec *benchSpec, l *ledger) {
	fmt.Fprintf(w, "host: %s\ntraffic: %s\nruns: %d × %d s per workload, seeds %d..%d; median [min–max]\n\n",
		l.Host, l.Traffic, l.Reps, l.Seconds, l.Seed, l.Seed+int64(l.Reps)-1)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprint(tw, "end to end")
	for _, wd := range spec.Workloads {
		fmt.Fprintf(tw, "\t%s", wd.Name)
	}
	fmt.Fprintln(tw)
	for _, d := range spec.EndToEnd {
		fmt.Fprintf(tw, "%s (%s)", d.Name, d.Unit)
		for _, wd := range spec.Workloads {
			s := l.Workloads[wd.Name].EndToEnd[d.Name]
			fmt.Fprintf(tw, "\t%.4g [%.4g–%.4g]", s.Median, s.Min, s.Max)
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprintln(tw)
	fmt.Fprint(tw, "per layer (traced run)")
	for _, wd := range spec.Workloads {
		fmt.Fprintf(tw, "\t%s", wd.Name)
	}
	fmt.Fprintln(tw)
	for _, d := range spec.PerLayer {
		if _, global := l.Layers[d.Name]; global {
			continue
		}
		fmt.Fprintf(tw, "%s (%s)", d.Name, d.Unit)
		for _, wd := range spec.Workloads {
			fmt.Fprintf(tw, "\t%.4g", l.Workloads[wd.Name].PerLayer[d.Name].Value)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintln(w)
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "layer row (isolated or cross-run)\tvalue\tunit")
	for _, d := range spec.PerLayer {
		if v, ok := l.Layers[d.Name]; ok {
			fmt.Fprintf(tw, "%s\t%.4g\t%s\n", d.Name, v.Value, v.Unit)
		}
	}
	tw.Flush()
	printBudget(w, l.Budget)
	fmt.Fprintln(w)
}

// compareLedgers prints, per workload × end-to-end metric, how much
// worse b is than a against the bound in BENCHMARK.json. A change past
// the bound is a regression only when the two sides' min–max ranges are
// disjoint; when they overlap, or when either side's own spread is wider
// than the bound, the pair is unresolved rather than unchanged.
func compareLedgers(w io.Writer, spec *benchSpec, pathA, pathB string) (regressed bool, err error) {
	var a, b ledger
	for _, f := range []struct {
		path string
		into *ledger
	}{{pathA, &a}, {pathB, &b}} {
		raw, err := os.ReadFile(f.path)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(raw, f.into); err != nil {
			return false, fmt.Errorf("%s: %w", f.path, err)
		}
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tworse by\tbound\tverdict")
	for _, wd := range spec.Workloads {
		wa, wb := a.Workloads[wd.Name], b.Workloads[wd.Name]
		if wa == nil || wb == nil {
			return false, fmt.Errorf("workload %s is missing from one side", wd.Name)
		}
		for _, d := range spec.EndToEnd {
			sa, oka := wa.EndToEnd[d.Name]
			sb, okb := wb.EndToEnd[d.Name]
			if !oka || !okb {
				return false, fmt.Errorf("%s %s is missing from one side", wd.Name, d.Name)
			}
			verdict, worse := judge(d, sa, sb)
			regressed = regressed || verdict == "REGRESSION"
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.1f %%\t%.0f %%\t%s\n", wd.Name, d.Name, sa.Median, sb.Median, 100*worse, 100*d.Bound, verdict)
		}
	}
	tw.Flush()
	return regressed, nil
}

func judge(d metricDef, a, b spread) (verdict string, worse float64) {
	lower := d.Better == "lower"
	if lower {
		worse = ratio(b.Median-a.Median, a.Median)
	} else {
		worse = ratio(a.Median-b.Median, a.Median)
	}
	overlap := a.Min <= b.Max && b.Min <= a.Max
	wide := ratio(a.Max-a.Min, a.Median) > d.Bound || ratio(b.Max-b.Min, b.Median) > d.Bound
	switch {
	case worse > d.Bound && !overlap:
		return "REGRESSION", worse
	case worse > d.Bound, wide && overlap:
		return "unresolved", worse
	default:
		return "ok", worse
	}
}
