// Command melytrace runs one of the paper's workloads on the simulator
// with tracing enabled and writes a Chrome trace-event file: open it in
// chrome://tracing or https://ui.perfetto.dev to watch the cores,
// steals and color migrations on the virtual timeline. The file is the
// runtime's flight-recorder format (obs.WriteChrome), one track per
// simulated core, so -validate-trace reads it like a live dump.
//
//	melytrace -workload unbalanced -policy melyws -cycles 20000000 -o trace.json
//
// Three auxiliary modes operate on observability artifacts instead of
// running the simulator (all used by CI's observability job):
//
//	melytrace -metrics-diff before.txt after.txt   # counter monotonicity between two /metrics scrapes
//	melytrace -validate-trace dump.json            # flight-recorder dump sanity + span census
//	melytrace -flow dump.json [-trace-id N]        # reconstruct causal chains as indented trees
//
// -flow rebuilds the causal-flow index (obs.FlowIndex) from a dump
// taken with Config.TraceRing enabled and prints each trace as an
// indented tree: one line per hop with its queue delay and handler
// execution time, critical-path hops marked with '*'. It exits nonzero
// when the busiest trace is broken — an orphan span whose nonzero
// parent is missing from the dump — which is CI's chain-integrity
// gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/melyruntime/mely/internal/equeue"
	"github.com/melyruntime/mely/internal/obs"
	"github.com/melyruntime/mely/internal/policy"
	"github.com/melyruntime/mely/internal/sfsmodel"
	"github.com/melyruntime/mely/internal/sim"
	"github.com/melyruntime/mely/internal/swsmodel"
	"github.com/melyruntime/mely/internal/topology"
	"github.com/melyruntime/mely/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "melytrace:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workloadName = flag.String("workload", "unbalanced", "unbalanced|penalty|ce|sws|sfs")
		policyName   = flag.String("policy", "melyws", "scheduling policy")
		cycles       = flag.Int64("cycles", 20_000_000, "virtual cycles to trace")
		out          = flag.String("o", "trace.json", "output file")
		seed         = flag.Int64("seed", 42, "simulation seed")
		clients      = flag.Int("clients", 800, "clients (sws workload)")
		metricsDiff  = flag.Bool("metrics-diff", false, "compare two /metrics scrape files (args: before after); fail on any counter that decreased or disappeared")
		validate     = flag.String("validate-trace", "", "validate a flight-recorder dump (Chrome trace-event JSON) and print a span census")
		flow         = flag.String("flow", "", "reconstruct causal chains from a flight-recorder dump and print them as indented trees")
		traceID      = flag.Uint64("trace-id", 0, "with -flow: print only this trace (default: all, busiest first)")
	)
	flag.Parse()

	if *metricsDiff {
		return runMetricsDiff(flag.Args())
	}
	if *validate != "" {
		return runValidateTrace(*validate)
	}
	if *flow != "" {
		return runFlow(*flow, *traceID)
	}

	i := policy.Lookup(*policyName)
	if i < 0 {
		return fmt.Errorf("unknown policy %q (%s)", *policyName, policy.Aliases())
	}
	eng, err := buildWorkload(*workloadName, policy.Presets[i].Config, *seed, *clients)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	c, err := traceSim(eng, *cycles, f)
	if err != nil {
		return err
	}
	fmt.Printf("melytrace: %d spans (%d exec, %d steals, %d failed steals) -> %s\n",
		c.exec+c.steals+c.failed, c.exec, c.steals, c.failed, *out)
	return nil
}

// buildWorkload builds one of the paper's workloads on the paper's
// machine (the 8-core Xeon E5410) under the default cost model.
func buildWorkload(name string, pol policy.Config, seed int64, clients int) (*sim.Engine, error) {
	topo := topology.IntelXeonE5410()
	params := sim.DefaultParams()
	switch name {
	case "unbalanced":
		return workload.BuildUnbalanced(topo, pol, params, seed,
			workload.UnbalancedSpec{EventsPerRound: 2000})
	case "penalty":
		return workload.BuildPenalty(topo, pol, params, seed, workload.PenaltySpec{})
	case "ce":
		return workload.BuildCacheEfficient(topo, pol, params, seed,
			workload.CacheEfficientSpec{APerCore: 20})
	case "sws":
		return swsmodel.Build(topo, pol, params, seed, swsmodel.Spec{Clients: clients})
	case "sfs":
		return sfsmodel.Build(topo, pol, params, seed, sfsmodel.Spec{})
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// simCensus counts the records of a traced simulator run by what they
// show: handler executions, steals, and probe rounds that found nothing.
type simCensus struct{ exec, steals, failed int }

// traceSim runs eng for the given virtual cycles with the trace hook
// installed and writes the run as a flight-recorder dump, one track
// per simulated core.
func traceSim(eng *sim.Engine, cycles int64, w io.Writer) (simCensus, error) {
	var c simCensus
	tracks := make([]obs.Track, eng.Topology().NumCores())
	for i := range tracks {
		tracks[i].Name = fmt.Sprintf("core %d", i)
	}
	eng.SetTrace(func(core int, ev obs.Event) {
		switch {
		case ev.Kind == obs.KindExec:
			c.exec++
		case ev.N > 0:
			c.steals++
		default:
			c.failed++
		}
		tracks[core].Events = append(tracks[core].Events, ev)
	})
	eng.RunUntil(cycles)
	return c, obs.WriteChrome(w, tracks, obs.ChromeConfig{HandlerName: func(id uint32) string {
		return eng.HandlerName(equeue.HandlerID(id))
	}})
}

// runMetricsDiff is CI's counter-monotonicity gate: given two /metrics
// scrapes of one process (before and after load), every counter-typed
// series must be present and non-decreasing in the second.
func runMetricsDiff(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-metrics-diff needs exactly two scrape files (before after)")
	}
	parse := func(path string) (map[string]float64, error) {
		text, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		samples, err := obs.ParseExposition(string(text))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if len(samples) == 0 {
			return nil, fmt.Errorf("%s: no samples (empty scrape?)", path)
		}
		return samples, nil
	}
	before, err := parse(args[0])
	if err != nil {
		return err
	}
	after, err := parse(args[1])
	if err != nil {
		return err
	}
	if violations := obs.MonotonicViolations(before, after); violations != nil {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "melytrace: VIOLATION:", v)
		}
		return fmt.Errorf("%d counter monotonicity violations between %s and %s",
			len(violations), args[0], args[1])
	}
	fmt.Printf("melytrace: %d series before, %d after, all counters monotonic\n",
		len(before), len(after))
	return nil
}

// runFlow rebuilds causal chains from a flight-recorder dump and
// prints them as indented trees, one line per hop with its queue delay
// and handler execution time; hops on the trace's critical path (the
// chain bounding its end-to-end latency) are marked with '*'. With
// traceID nonzero only that trace prints; otherwise every trace, the
// busiest first. Exits with an error when the busiest trace is broken:
// an orphan span claiming a parent the dump does not contain.
func runFlow(path string, traceID uint64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	idx, parseErr := obs.ParseFlowDump(f)
	f.Close()
	if parseErr != nil {
		return parseErr
	}
	if len(idx.Spans) == 0 {
		return fmt.Errorf("%s: no flow spans — was the runtime's TraceRing enabled?", path)
	}

	var traces []uint64
	if traceID != 0 {
		if len(idx.Traces[traceID]) == 0 {
			return fmt.Errorf("%s: no spans for trace %#x", path, traceID)
		}
		traces = []uint64{traceID}
	} else {
		for t := range idx.Traces {
			if t != 0 {
				traces = append(traces, t)
			}
		}
		// Busiest first; ties toward the lower id so output is stable.
		sort.Slice(traces, func(i, j int) bool {
			ni, nj := len(idx.Traces[traces[i]]), len(idx.Traces[traces[j]])
			if ni != nj {
				return ni > nj
			}
			return traces[i] < traces[j]
		})
	}

	for _, t := range traces {
		printFlowTrace(idx, t)
	}

	busiest := idx.BusiestTrace()
	var broken []*obs.FlowSpan
	for _, s := range idx.Orphans {
		if s.Trace == busiest {
			broken = append(broken, s)
		}
	}
	fmt.Printf("melytrace: %d spans in %d traces, %d orphans; busiest trace %#x: %d spans, depth %d\n",
		len(idx.Spans), len(idx.Traces), len(idx.Orphans), busiest,
		len(idx.Traces[busiest]), idx.Depth(busiest))
	if len(broken) > 0 {
		for _, s := range broken {
			fmt.Fprintf(os.Stderr, "melytrace: BROKEN: span %#x (handler %s) claims missing parent %#x\n",
				s.Span, s.Handler, s.Parent)
		}
		return fmt.Errorf("busiest trace %#x is broken: %d orphan spans with a nonzero parent", busiest, len(broken))
	}
	return nil
}

// printFlowTrace renders one trace as an indented tree.
func printFlowTrace(idx *obs.FlowIndex, t uint64) {
	spans := idx.Traces[t]
	crit := map[uint64]bool{}
	for _, s := range idx.CriticalPath(t) {
		crit[s.Span] = true
	}
	state := "connected"
	if !idx.Connected(t) {
		state = "BROKEN"
	}
	first, last := spans[0].Start, spans[0].End
	for _, s := range spans {
		if s.End > last {
			last = s.End
		}
	}
	fmt.Printf("trace %#x: %d spans, depth %d, %.0fµs end-to-end, %s\n",
		t, len(spans), idx.Depth(t), last-first, state)
	var walk func(s *obs.FlowSpan, depth int)
	walk = func(s *obs.FlowSpan, depth int) {
		mark := " "
		if crit[s.Span] {
			mark = "*"
		}
		stolen := ""
		if s.Stolen {
			stolen = " (stolen)"
		}
		fmt.Printf("  %s %s%s [span %#x core %d color %#x] queued %.0fµs, ran %.0fµs%s\n",
			mark, strings.Repeat("  ", depth), s.Handler, s.Span, s.Core, s.Color,
			idx.QueueDelayMicros(s), s.ExecMicros(), stolen)
		for _, c := range s.Children {
			walk(c, depth+1)
		}
	}
	for _, s := range spans {
		// Roots, plus orphan subtree heads (parent missing from the
		// dump): everything else prints under its parent.
		if s.Parent == 0 {
			walk(s, 0)
			continue
		}
		if _, ok := idx.Spans[s.Parent]; !ok {
			fmt.Printf("    … missing parent %#x:\n", s.Parent)
			walk(s, 1)
		}
	}
}

// runValidateTrace checks that a flight-recorder dump is a well-formed
// Chrome trace-event array and prints a census of its spans.
func runValidateTrace(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var events []obs.ChromeEvent
	if err := json.Unmarshal(raw, &events); err != nil {
		return fmt.Errorf("%s is not a Chrome trace-event array: %w", path, err)
	}
	byPhase := map[string]int{}
	tracks := map[int]bool{}
	for i, ev := range events {
		if ev.Name == "" || ev.Phase == "" {
			return fmt.Errorf("%s: event %d has no name/ph", path, i)
		}
		if ev.TsMicros < 0 {
			return fmt.Errorf("%s: event %d (%s) has negative timestamp", path, i, ev.Name)
		}
		byPhase[ev.Phase]++
		tracks[ev.TID] = true
	}
	fmt.Printf("melytrace: %s: %d events on %d tracks (%d spans, %d instants, %d metadata)\n",
		path, len(events), len(tracks), byPhase["X"], byPhase["i"], byPhase["M"])
	return nil
}
