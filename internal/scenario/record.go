package scenario

import (
	"encoding/json"
	"io"
)

// RecordSchema versions the per-scenario JSON artifact.
const RecordSchema = 1

// Record is one gate-comparable measurement: a scenario run under one
// configuration. Experiment/Config key it exactly like a
// bench.GateEntry, which is how records gate against
// BENCH_baseline.json.
type Record struct {
	Scenario   string `json:"scenario"`
	Experiment string `json:"experiment"`
	Config     string `json:"config"`
	Engine     string `json:"engine"`
	// KEventsPerSecond is the gated metric: simulated KEvents/s (sim)
	// or measured KRequests/s (live).
	KEventsPerSecond float64 `json:"kevents_per_second"`
	// Steal counters ride along for diagnosis.
	StealAttempts int64 `json:"steal_attempts"`
	Steals        int64 `json:"steals"`
	StolenColors  int64 `json:"stolen_colors"`
	// Payload carries scenario-specific measurements (spill counters,
	// latency percentiles, shed counts, peak RSS, ...).
	Payload map[string]float64 `json:"payload,omitempty"`
	// SLOs are the evaluated SLO blocks, pass or fail.
	SLOs []SLOResult `json:"slos,omitempty"`
}

// SLOResult is one evaluated SLO check.
type SLOResult struct {
	Phase string  `json:"phase"`
	Check string  `json:"check"`
	Limit float64 `json:"limit"`
	Value float64 `json:"value"`
	Pass  bool    `json:"pass"`
}

// Result is the JSON artifact of one scenario run (all configurations).
type Result struct {
	Schema  int      `json:"schema"`
	Name    string   `json:"name"`
	Engine  string   `json:"engine"`
	Seed    int64    `json:"seed"`
	Quick   bool     `json:"quick"`
	Records []Record `json:"records"`
}

// WriteJSON writes the result as indented JSON.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
