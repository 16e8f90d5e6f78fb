package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/melyruntime/mely/internal/scenario"
)

// GateSchema versions the gate JSON so a future layout change fails
// loudly instead of comparing apples to oranges.
const GateSchema = 1

// GateTolerance is the relative throughput drop the CI gate accepts
// before failing: measured / baseline must stay above 1 - GateTolerance.
const GateTolerance = 0.10

// GateEntry is one measured configuration of the benchmark gate.
type GateEntry struct {
	Experiment string `json:"experiment"`
	Config     string `json:"config"`
	// KEventsPerSecond is the gated metric (higher is better).
	KEventsPerSecond float64 `json:"kevents_per_second"`
	// Steal counters ride along for diagnosis; they are reported, not
	// gated (they shift legitimately when policies change).
	StealAttempts int64 `json:"steal_attempts"`
	Steals        int64 `json:"steals"`
	StolenColors  int64 `json:"stolen_colors"`
}

// GateResult is the JSON payload of one gate run (BENCH_baseline.json,
// BENCH_PR<N>.json).
type GateResult struct {
	Schema  int         `json:"schema"`
	Seed    int64       `json:"seed"`
	Quick   bool        `json:"quick"`
	Entries []GateEntry `json:"entries"`
}

// GateSuite measures every gate configuration by running the builtin
// scenario specs (scenario.Builtins: the steal-relevant rows of the
// unbalanced and penalty microbenchmarks, batched stealing, the timer
// and connscale workloads, and overload with its slow-disk and
// crash-recovery variants, which assert zero event loss through the
// spillq disk store, so the gate fails on a correctness regression
// there, not just a throughput one) — the exact same code path
// `melybench -topology-dir scenarios` takes with the committed spec
// files. The simulator is
// deterministic, so for a fixed seed and size the entries are exact:
// any drift against a committed baseline is a code change, not noise —
// which is what lets a 10% gate run on shared CI runners at all.
func GateSuite(opt scenario.Options) (*GateResult, error) {
	opt = opt.WithDefaults()
	var recs []scenario.Record
	for _, s := range scenario.Builtins() {
		res, err := scenario.Run(s, opt)
		if err != nil {
			return nil, fmt.Errorf("bench: scenario %s: %w", s.Name, err)
		}
		recs = append(recs, res.Records...)
	}
	return GateFromRecords(opt.Seed, opt.Quick, recs), nil
}

// GateFromRecords converts scenario-harness records into a gate result,
// so topology-emitted measurements (`melybench -topology-dir`) gate
// against BENCH_baseline.json exactly like the code-driven suite.
func GateFromRecords(seed int64, quick bool, recs []scenario.Record) *GateResult {
	res := &GateResult{Schema: GateSchema, Seed: seed, Quick: quick}
	for _, r := range recs {
		res.Entries = append(res.Entries, GateEntry{
			Experiment:       r.Experiment,
			Config:           r.Config,
			KEventsPerSecond: r.KEventsPerSecond,
			StealAttempts:    r.StealAttempts,
			Steals:           r.Steals,
			StolenColors:     r.StolenColors,
		})
	}
	return res
}

// WriteJSON writes the result as indented JSON (the committed-baseline
// and artifact format).
func (g *GateResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(g)
}

// LoadGate reads a gate JSON file.
func LoadGate(path string) (*GateResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g GateResult
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if g.Schema != GateSchema {
		return nil, fmt.Errorf("bench: %s: gate schema %d, want %d (regenerate the baseline)",
			path, g.Schema, GateSchema)
	}
	return &g, nil
}

// CompareGate checks current against baseline and returns one message
// per violation: an entry whose throughput dropped more than tolerance,
// or a baseline entry the current run no longer measures. New entries
// in current are fine (the next baseline refresh picks them up).
func CompareGate(baseline, current *GateResult, tolerance float64) []string {
	var violations []string
	if baseline.Quick != current.Quick || baseline.Seed != current.Seed {
		return []string{fmt.Sprintf(
			"gate runs are not comparable: baseline quick=%v seed=%d vs current quick=%v seed=%d",
			baseline.Quick, baseline.Seed, current.Quick, current.Seed)}
	}
	cur := make(map[string]GateEntry, len(current.Entries))
	for _, e := range current.Entries {
		cur[e.Experiment+"/"+e.Config] = e
	}
	for _, base := range baseline.Entries {
		key := base.Experiment + "/" + base.Config
		got, ok := cur[key]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: missing from current run", key))
			continue
		}
		floor := base.KEventsPerSecond * (1 - tolerance)
		if got.KEventsPerSecond < floor {
			violations = append(violations, fmt.Sprintf(
				"%s: %.0f KEvents/s, below %.0f (baseline %.0f - %.0f%%)",
				key, got.KEventsPerSecond, floor, base.KEventsPerSecond, tolerance*100))
		}
	}
	return violations
}
