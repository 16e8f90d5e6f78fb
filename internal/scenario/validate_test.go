package scenario

import (
	"errors"
	"strings"
	"testing"

	"github.com/melyruntime/mely/internal/workload"
)

// minimal valid documents the malformed cases below are derived from.
const validSimDoc = `
name: ok-sim
engine: sim
sim:
  workload: unbalanced
  policies: [mely]
phases:
  - name: measure
    cycles: 1000
    measure: true
`

const validLiveDoc = `
name: ok-live
engine: live
servers:
  - name: web
    kind: sws
loads:
  - server: web
    clients: 2
phases:
  - name: run
    duration: 1s
    measure: true
`

func TestParseValidDocs(t *testing.T) {
	for _, doc := range []string{validSimDoc, validLiveDoc} {
		if _, err := Parse([]byte(doc), false); err != nil {
			t.Fatalf("valid doc rejected: %v", err)
		}
	}
}

// TestValidateMalformed is the contract test for the typed sentinels:
// every class of spec mistake must surface as an errors.Is-able sentinel
// with a dotted field path, so tooling can classify failures without
// parsing prose.
func TestValidateMalformed(t *testing.T) {
	tests := []struct {
		name  string
		doc   string
		want  error  // sentinel the joined error must unwrap to
		field string // substring of the offending FieldError path
	}{
		{
			name: "yaml syntax",
			doc:  "name: [unclosed",
			want: ErrBadSpec,
		},
		{
			name: "unknown top-level field",
			doc:  validSimDoc + "bogus_knob: 7\n",
			want: ErrBadSpec,
		},
		{
			// The paper workloads' blocks decode straight into their
			// internal/workload specs: a key those do not tag is as
			// unknown as any other, ...
			name: "unknown key in a workload block",
			doc:  strings.Replace(validSimDoc, "  policies: [mely]", "  policies: [mely]\n  unbalanced:\n    events_per_rnd: 7", 1),
			want: ErrBadSpec,
		},
		{
			// ... and so is a spec field the ablations set from Go only.
			name: "untagged workload spec field",
			doc:  strings.Replace(validSimDoc, "  policies: [mely]", "  policies: [mely]\n  unbalanced:\n    LearnedEstimates: true", 1),
			want: ErrBadSpec,
		},
		{
			name:  "parameter block of another workload",
			doc:   strings.Replace(validSimDoc, "  policies: [mely]", "  policies: [mely]\n  penalty:\n    num_a: 8", 1),
			want:  ErrBadSpec,
			field: "sim.penalty",
		},
		{
			name:  "negative workload parameter",
			doc:   strings.Replace(strings.Replace(validSimDoc, "workload: unbalanced", "workload: timer", 1), "  policies: [mely]", "  policies: [mely]\n  timer:\n    clients: -1", 1),
			want:  ErrNegativeCount,
			field: "sim.timer",
		},
		{
			name:  "bad scenario name",
			doc:   strings.Replace(validSimDoc, "name: ok-sim", "name: Ok_Sim!", 1),
			want:  ErrBadSpec,
			field: "name",
		},
		{
			name:  "unknown engine",
			doc:   strings.Replace(validSimDoc, "engine: sim", "engine: quantum", 1),
			want:  ErrUnknownEngine,
			field: "engine",
		},
		{
			name:  "unknown workload",
			doc:   strings.Replace(validSimDoc, "workload: unbalanced", "workload: fractal", 1),
			want:  ErrUnknownWorkload,
			field: "sim.workload",
		},
		{
			name:  "unknown policy",
			doc:   strings.Replace(validSimDoc, "policies: [mely]", "policies: [mely, turbo-WS]", 1),
			want:  ErrUnknownPolicy,
			field: "sim.policies[1]",
		},
		{
			name:  "negative seed",
			doc:   validSimDoc + "seed: -1\n",
			want:  ErrNegativeCount,
			field: "seed",
		},
		{
			name:  "no phases",
			doc:   strings.SplitN(validSimDoc, "phases:", 2)[0] + "phases: []\n",
			want:  ErrBadPhase,
			field: "phases",
		},
		{
			name: "duplicate phase names",
			doc: validSimDoc + `  - name: measure
    cycles: 10
`,
			want:  ErrBadPhase,
			field: "phases[1].name",
		},
		{
			name:  "no measure phase",
			doc:   strings.Replace(validSimDoc, "    measure: true\n", "", 1),
			want:  ErrBadPhase,
			field: "phases",
		},
		{
			name:  "sim phase with duration",
			doc:   strings.Replace(validSimDoc, "cycles: 1000", "duration: 2s", 1),
			want:  ErrBadPhase,
			field: "phases[0]",
		},
		{
			name:  "drain outside overload workload",
			doc:   validSimDoc + "  - name: drain\n    drain: true\n",
			want:  ErrBadPhase,
			field: "phases[1]",
		},
		{
			name:  "unknown backend",
			doc:   strings.Replace(validLiveDoc, "kind: sws", "kind: sws\n    backend: iouring", 1),
			want:  ErrUnknownBackend,
			field: "servers[0].backend",
		},
		{
			name:  "unknown overload policy",
			doc:   strings.Replace(validLiveDoc, "kind: sws", "kind: sws\n    overload: shrug", 1),
			want:  ErrUnknownBackend,
			field: "servers[0].overload",
		},
		{
			name:  "unknown server kind",
			doc:   strings.Replace(validLiveDoc, "kind: sws", "kind: ftp", 1),
			want:  ErrUnknownServerKind,
			field: "servers[0].kind",
		},
		{
			name: "duplicate server name",
			doc: strings.Replace(validLiveDoc, "loads:", `  - name: web
    kind: sfs
loads:`, 1),
			want:  ErrDuplicateServer,
			field: "servers[1].name",
		},
		{
			name:  "load references unknown server",
			doc:   strings.Replace(validLiveDoc, "server: web", "server: ghost", 1),
			want:  ErrUnknownServer,
			field: "loads[0].server",
		},
		{
			name:  "negative client count",
			doc:   strings.Replace(validLiveDoc, "clients: 2", "clients: -3", 1),
			want:  ErrNegativeCount,
			field: "loads[0]",
		},
		{
			name:  "open mode without burst",
			doc:   strings.Replace(validLiveDoc, "clients: 2", "clients: 2\n    mode: open", 1),
			want:  ErrBadSpec,
			field: "loads[0].burst",
		},
		{
			name:  "live phase without duration",
			doc:   strings.Replace(validLiveDoc, "duration: 1s", "cycles: 10", 1),
			want:  ErrBadPhase,
			field: "phases[0]",
		},
		{
			name:  "bad duration string",
			doc:   strings.Replace(validLiveDoc, "duration: 1s", "duration: 5 parsecs", 1),
			want:  ErrBadDuration,
			field: "phases[0].duration",
		},
		{
			name:  "SLO names unknown phase",
			doc:   validSimDoc + "slos:\n  - phase: cooldown\n    zero_loss: true\n",
			want:  ErrSLOPhase,
			field: "slos[0].phase",
		},
		{
			name:  "SLO asserts nothing",
			doc:   validSimDoc + "slos:\n  - phase: measure\n",
			want:  ErrBadSLO,
			field: "slos[0]",
		},
		{
			name:  "sim SLO on a live scenario",
			doc:   validLiveDoc + "slos:\n  - phase: run\n    zero_loss: true\n",
			want:  ErrBadSLO,
			field: "slos[0]",
		},
		{
			name:  "live SLO on a sim scenario",
			doc:   validSimDoc + "slos:\n  - phase: measure\n    max_p99: 10ms\n",
			want:  ErrBadSLO,
			field: "slos[0]",
		},
		{
			name:  "metrics SLO on a sim scenario",
			doc:   validSimDoc + "slos:\n  - phase: measure\n    max_queue_delay_p99: 10ms\n",
			want:  ErrBadSLO,
			field: "slos[0]",
		},
		{
			name:  "metrics SLO with a bad duration",
			doc:   validLiveDoc + "slos:\n  - phase: run\n    max_queue_delay_p99: quickly\n",
			want:  ErrBadDuration,
			field: "slos[0].max_queue_delay_p99",
		},
		{
			name:  "health SLO on a sim scenario",
			doc:   validSimDoc + "slos:\n  - phase: measure\n    health_ok: true\n",
			want:  ErrBadSLO,
			field: "slos[0]",
		},
		{
			name:  "negative max_anomalies",
			doc:   validLiveDoc + "slos:\n  - phase: run\n    max_anomalies: -1\n",
			want:  ErrNegativeCount,
			field: "slos[0]",
		},
		{
			name:  "negative min_anomalies",
			doc:   validLiveDoc + "slos:\n  - phase: run\n    min_anomalies: -2\n",
			want:  ErrNegativeCount,
			field: "slos[0]",
		},
		{
			name:  "bad stall_threshold duration",
			doc:   strings.Replace(validLiveDoc, "kind: sws", "kind: sws\n    stall_threshold: forever", 1),
			want:  ErrBadDuration,
			field: "servers[0].stall_threshold",
		},
		{
			name:  "bad obs_interval duration",
			doc:   strings.Replace(validLiveDoc, "kind: sws", "kind: sws\n    obs_interval: sometimes", 1),
			want:  ErrBadDuration,
			field: "servers[0].obs_interval",
		},
		{
			name:  "unknown fault type",
			doc:   validSimDoc + "faults:\n  - type: meteor-strike\n    extra_cycles: 5\n",
			want:  ErrUnknownFault,
			field: "faults[0].type",
		},
		{
			name:  "live fault on sim engine",
			doc:   validSimDoc + "faults:\n  - type: conn-churn\n    rate: 10\n",
			want:  ErrUnknownFault,
			field: "faults[0].type",
		},
		{
			name:  "spill fault outside overload workload",
			doc:   validSimDoc + "faults:\n  - type: spill-disk-latency\n    extra_cycles: 100\n",
			want:  ErrBadFault,
			field: "faults[0]",
		},
		{
			name:  "conn-churn without rate",
			doc:   validLiveDoc + "faults:\n  - type: conn-churn\n",
			want:  ErrBadFault,
			field: "faults[0].rate",
		},
		{
			name:  "crash-restart without at_spilled",
			doc:   validSimDoc + "faults:\n  - type: spill-crash-restart\n",
			want:  ErrBadFault,
			field: "faults[0].at_spilled",
		},
		{
			name:  "crash-restart with extra_cycles",
			doc:   validSimDoc + "faults:\n  - type: spill-crash-restart\n    at_spilled: 10\n    extra_cycles: 5\n",
			want:  ErrBadFault,
			field: "faults[0].extra_cycles",
		},
		{
			name:  "crash-restart outside overload workload",
			doc:   validSimDoc + "faults:\n  - type: spill-crash-restart\n    at_spilled: 10\n",
			want:  ErrBadFault,
			field: "faults[0]",
		},
		{
			name:  "at_spilled on another sim fault",
			doc:   validSimDoc + "faults:\n  - type: slow-handler\n    extra_cycles: 5\n    at_spilled: 10\n",
			want:  ErrBadFault,
			field: "faults[0].at_spilled",
		},
		{
			name:  "at_spilled on a live fault",
			doc:   validLiveDoc + "faults:\n  - type: conn-churn\n    rate: 10\n    at_spilled: 10\n",
			want:  ErrBadFault,
			field: "faults[0].at_spilled",
		},
		{
			name:  "live slow-handler scoped to a phase",
			doc:   validLiveDoc + "faults:\n  - type: slow-handler\n    stall: 1ms\n    phase: run\n",
			want:  ErrBadFault,
			field: "faults[0].phase",
		},
	}

	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc), false)
			if err == nil {
				t.Fatalf("malformed doc accepted:\n%s", tc.doc)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v does not unwrap to %v", err, tc.want)
			}
			if tc.field == "" {
				return
			}
			// The offending FieldError must carry the dotted path.
			found := false
			for _, line := range strings.Split(err.Error(), "\n") {
				if strings.HasPrefix(line, tc.field+":") || strings.HasPrefix(line, tc.field+".") {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("no FieldError at %q in:\n%v", tc.field, err)
			}
		})
	}
}

// TestPaperWorkloadBlockKeys pins the spec keys of the three paper
// workloads' parameter blocks, which are the json tags of the
// internal/workload specs: no committed spec file sets one, so the
// decoded-spec golden cannot see a renamed key.
func TestPaperWorkloadBlockKeys(t *testing.T) {
	block := func(name, keys string) string {
		doc := strings.Replace(validSimDoc, "workload: unbalanced", "workload: "+name, 1)
		return strings.Replace(doc, "  policies: [mely]", "  policies: [mely]\n  "+name+":\n"+keys, 1)
	}
	tests := []struct {
		doc  string
		got  func(*SimSpec) any
		want any
	}{
		{
			block("unbalanced", "    events_per_round: 1\n    short_cost: 2\n    long_min: 3\n    long_max: 4\n    short_permille: 5\n"),
			func(s *SimSpec) any { return *s.Unbalanced },
			workload.UnbalancedSpec{EventsPerRound: 1, ShortCost: 2, LongMin: 3, LongMax: 4, ShortPermille: 5},
		},
		{
			block("penalty", "    num_a: 1\n    array_bytes: 2\n    chunk_bytes: 3\n    a_cost: 4\n    b_cost: 5\n    b_penalty: 6\n"),
			func(s *SimSpec) any { return *s.Penalty },
			workload.PenaltySpec{NumA: 1, ArrayBytes: 2, ChunkBytes: 3, ACost: 4, BCost: 5, BPenalty: 6},
		},
		{
			block("cacheeff", "    a_per_core: 1\n    array_bytes: 2\n    a_cost: 3\n    sort_cost: 4\n    sync_cost: 5\n    merge_cost: 6\n"),
			func(s *SimSpec) any { return *s.CacheEff },
			workload.CacheEfficientSpec{APerCore: 1, ArrayBytes: 2, ACost: 3, SortCost: 4, SyncCost: 5, MergeCost: 6},
		},
	}
	for _, tc := range tests {
		spec, err := Parse([]byte(tc.doc), false)
		if err != nil {
			t.Fatalf("%v\n%s", err, tc.doc)
		}
		if got := tc.got(spec.Sim); got != tc.want {
			t.Errorf("decoded %+v, want %+v", got, tc.want)
		}
	}
}
