// Command melybench regenerates every table and figure of "Efficient
// Workstealing for Multicore Event-Driven Systems" (ICDCS 2010) on the
// simulated platform, plus the ablation and extension studies
// (docs/measurement.md says what measures what).
//
// Usage:
//
//	melybench -all              # every experiment, full size
//	melybench -exp table3       # one experiment
//	melybench -exp fig7 -quick  # scaled-down smoke run
//	melybench -list             # experiment inventory
//
// The CI benchmark-regression gate runs the deterministic gate suite
// (the specs under scenarios/), writes the measurements as JSON, and
// fails when throughput drops more than 10% against a committed
// baseline:
//
//	melybench -quick -gate-out BENCH_PR2.json -gate-against BENCH_baseline.json
//	melybench -quick -gate-out BENCH_baseline.json   # refresh the baseline
//
// Declarative scenarios (docs/topology-schema.md): a topology spec
// describes the whole fleet — workloads or servers, loads, faults,
// phases, SLOs — and the harness materializes and runs it:
//
//	melybench -topology scenarios/overload.yaml -quick
//	melybench -topology-dir scenarios -quick -gate-against BENCH_baseline.json
//	melybench -topology-check scenarios   # lint specs (recursive), run nothing
//
// -scenario-out writes one gate-comparable JSON artifact per scenario.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/melyruntime/mely/internal/bench"
	"github.com/melyruntime/mely/internal/obs"
	"github.com/melyruntime/mely/internal/scenario"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "melybench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		expID       = flag.String("exp", "", "experiment id (see -list)")
		all         = flag.Bool("all", false, "run every experiment")
		list        = flag.Bool("list", false, "list experiments")
		quick       = flag.Bool("quick", false, "scaled-down workloads and windows")
		seed        = flag.Int64("seed", 42, "simulation seed")
		gateOut     = flag.String("gate-out", "", "run the benchmark gate suite and write its JSON here")
		gateAgainst = flag.String("gate-against", "", "baseline gate JSON to compare against (fails on >10% regression)")
		topology    = flag.String("topology", "", "run one topology spec file (.yaml/.json)")
		topologyDir = flag.String("topology-dir", "", "run every topology spec in a directory (non-recursive, sorted)")
		topoCheck   = flag.String("topology-check", "", "lint every topology spec under a directory (recursive); runs nothing")
		scenarioOut = flag.String("scenario-out", "", "directory for per-scenario JSON artifacts (with -topology/-topology-dir)")
	)
	flag.Parse()

	if *topoCheck != "" {
		return runTopologyCheck(*topoCheck)
	}
	opt := scenario.Options{Quick: *quick, Seed: *seed}
	if *topology != "" || *topologyDir != "" {
		return runTopology(*topology, *topologyDir, *scenarioOut, *gateOut, *gateAgainst, opt)
	}

	if *list {
		fmt.Println("experiments (-exp <id>):")
		for _, e := range bench.All() {
			fmt.Printf("  %-18s %s\n", e.ID, e.Title)
		}
		fmt.Println("\ngate scenarios (-gate-out / -gate-against):")
		for _, s := range scenario.Builtins() {
			for _, pol := range s.Sim.Policies {
				fmt.Printf("  %s/%s\n", s.Name, pol)
			}
		}
		return nil
	}

	if *gateOut != "" || *gateAgainst != "" {
		return runGate(opt, *gateOut, *gateAgainst)
	}
	var exps []bench.Experiment
	switch {
	case *all:
		exps = bench.All()
	case *expID != "":
		e, err := bench.ByID(*expID)
		if err != nil {
			return err
		}
		exps = []bench.Experiment{e}
	default:
		flag.Usage()
		return fmt.Errorf("nothing to do: pass -all, -exp <id>, -list, or -gate-out")
	}

	for _, e := range exps {
		start := time.Now()
		report, err := e.Run(opt)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if _, err := report.WriteTo(os.Stdout); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// specFiles lists the topology specs of dir, non-recursive, sorted by
// name — a stable scenario order, which keeps gate artifacts
// deterministic. Subdirectories (e.g. scenarios/live) are deliberately
// not descended into: the gate runs the deterministic sim specs only.
func specFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		switch strings.ToLower(filepath.Ext(e.Name())) {
		case ".yaml", ".yml", ".json":
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(files)
	return files, nil
}

// runTopologyCheck lints every spec under root (recursive — the live/
// subdirectory is linted even though -topology-dir skips it).
func runTopologyCheck(root string) error {
	var checked, bad int
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		switch strings.ToLower(filepath.Ext(path)) {
		case ".yaml", ".yml", ".json":
		default:
			return nil
		}
		checked++
		if _, err := scenario.Load(path); err != nil {
			bad++
			fmt.Fprintf(os.Stderr, "BAD %s:\n%v\n", path, err)
		} else {
			fmt.Printf("ok  %s\n", path)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("topology check: %d of %d spec(s) invalid", bad, checked)
	}
	fmt.Fprintf(os.Stderr, "[%d topology spec(s) ok]\n", checked)
	return nil
}

// runTopology runs one spec file or a directory of them, prints the
// records, writes per-scenario artifacts, and optionally gates the
// emitted records against a baseline.
func runTopology(file, dir, outDir, gateOut, gateAgainst string, opt scenario.Options) error {
	var files []string
	if file != "" {
		files = append(files, file)
	}
	if dir != "" {
		more, err := specFiles(dir)
		if err != nil {
			return err
		}
		files = append(files, more...)
	}
	if len(files) == 0 {
		return fmt.Errorf("no topology specs found")
	}
	var recs []scenario.Record
	var failures []string
	for _, path := range files {
		spec, err := scenario.Load(path)
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := scenario.Run(spec, opt)
		if err != nil {
			// SLO violations still carry records; write the artifact for
			// diagnosis, then fail at the end.
			failures = append(failures, fmt.Sprintf("%s: %v", path, err))
		}
		if res == nil {
			continue
		}
		for _, r := range res.Records {
			fmt.Printf("%-18s %-34s %8.0f KEvents/s  attempts=%d steals=%d colors=%d\n",
				r.Experiment, r.Config, r.KEventsPerSecond, r.StealAttempts, r.Steals, r.StolenColors)
			for _, slo := range r.SLOs {
				status := "pass"
				if !slo.Pass {
					status = "FAIL"
				}
				fmt.Printf("%18s SLO %s/%s: %s (%g, limit %g)\n", "", slo.Phase, slo.Check, status, slo.Value, slo.Limit)
			}
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", spec.Name, time.Since(start).Round(time.Millisecond))
		recs = append(recs, res.Records...)
		if outDir != "" {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return err
			}
			artifact := filepath.Join(outDir, spec.Name+".json")
			if err := obs.DumpToFile(artifact, res.WriteJSON); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "[scenario artifact written to %s]\n", artifact)
		}
	}
	if err := finishGate(bench.GateFromRecords(opt.Seed, opt.Quick, recs), gateOut, gateAgainst); err != nil {
		return err
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "SCENARIO FAILED:", f)
		}
		return fmt.Errorf("%d scenario(s) failed", len(failures))
	}
	return nil
}

// runGate measures the gate suite from the builtin specs and finishes
// it like a -topology-dir run of the same files.
func runGate(opt scenario.Options, outPath, againstPath string) error {
	start := time.Now()
	result, err := bench.GateSuite(opt)
	if err != nil {
		return fmt.Errorf("gate suite: %w", err)
	}
	for _, e := range result.Entries {
		fmt.Printf("%-12s %-34s %8.0f KEvents/s  attempts=%d steals=%d colors=%d\n",
			e.Experiment, e.Config, e.KEventsPerSecond, e.StealAttempts, e.Steals, e.StolenColors)
	}
	fmt.Fprintf(os.Stderr, "[gate suite done in %v]\n", time.Since(start).Round(time.Millisecond))
	return finishGate(result, outPath, againstPath)
}

// finishGate optionally writes the gate result as a JSON artifact and
// optionally enforces the regression threshold against a baseline.
func finishGate(result *bench.GateResult, outPath, againstPath string) error {
	if outPath != "" {
		if err := obs.DumpToFile(outPath, result.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[gate results written to %s]\n", outPath)
	}
	if againstPath != "" {
		baseline, err := bench.LoadGate(againstPath)
		if err != nil {
			return err
		}
		if violations := bench.CompareGate(baseline, result, bench.GateTolerance); len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "REGRESSION:", v)
			}
			return fmt.Errorf("benchmark gate failed: %d regression(s) against %s", len(violations), againstPath)
		}
		fmt.Fprintf(os.Stderr, "[gate passed against %s]\n", againstPath)
	}
	return nil
}
