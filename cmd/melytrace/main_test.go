package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/melyruntime/mely"
	"github.com/melyruntime/mely/internal/policy"
)

// captureStdout runs fn with os.Stdout redirected into a pipe and
// returns what it printed (runFlow writes its trees with fmt.Printf).
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// TestRunFlowReconstructsChain drives a real runtime through a
// three-hop handler chain, dumps its flight recorder, and checks that
// -flow rebuilds the same chain: one connected trace of depth 3 with
// the hops nested in causal order and per-hop queue/exec durations.
func TestRunFlowReconstructsChain(t *testing.T) {
	rt, err := mely.New(mely.Config{Cores: 2, ObsSampleRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	hLeaf := rt.Register("leaf", func(ctx *mely.Ctx) { close(done) })
	hMid := rt.Register("mid", func(ctx *mely.Ctx) {
		if err := ctx.Post(hLeaf, 3, nil); err != nil {
			t.Error(err)
		}
	})
	hRoot := rt.Register("root", func(ctx *mely.Ctx) {
		if err := ctx.Post(hMid, 2, nil); err != nil {
			t.Error(err)
		}
	})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	if err := rt.Post(hRoot, 1, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("chain never completed")
	}
	// The leaf's exec record is written after its handler returns: wait
	// for the chain to retire before dumping, not only to run.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "flight.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.DumpTrace(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	out, err := captureStdout(t, func() error { return runFlow(path, 0) })
	if err != nil {
		t.Fatalf("runFlow: %v\noutput:\n%s", err, out)
	}
	rootAt := strings.Index(out, "root [span")
	midAt := strings.Index(out, "mid [span")
	leafAt := strings.Index(out, "leaf [span")
	if rootAt < 0 || midAt < 0 || leafAt < 0 || !(rootAt < midAt && midAt < leafAt) {
		t.Errorf("hops missing or out of causal order:\n%s", out)
	}
	for _, want := range []string{"connected", "queued", "ran", "depth 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "BROKEN") {
		t.Errorf("chain reported broken:\n%s", out)
	}

	// -trace-id with an id absent from the dump is an explicit error,
	// not an empty print.
	if _, err := captureStdout(t, func() error { return runFlow(path, 0xdeadbeef) }); err == nil {
		t.Error("runFlow with an unknown -trace-id succeeded")
	}
}

// TestRunFlowFailsOnBrokenChain: an orphan span (nonzero parent absent
// from the dump) in the busiest trace must fail the run — this is CI's
// chain-integrity gate.
func TestRunFlowFailsOnBrokenChain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "broken.json")
	dump := `[
 {"name":"a","ph":"X","ts":0,"dur":10,"tid":0,"args":{"trace":1,"span":1}},
 {"name":"b","ph":"X","ts":20,"dur":5,"tid":1,"args":{"trace":1,"span":3,"parent":2}}
]`
	if err := os.WriteFile(path, []byte(dump), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error { return runFlow(path, 0) })
	if err == nil {
		t.Fatalf("runFlow accepted a broken busiest trace:\n%s", out)
	}
	if !strings.Contains(err.Error(), "broken") {
		t.Errorf("error %q does not name the broken chain", err)
	}
	if !strings.Contains(out, "missing parent") {
		t.Errorf("output does not flag the orphan subtree:\n%s", out)
	}
}

// TestSimRunIsAFlightRecorderDump runs the unbalanced workload with the
// trace hook and checks the file melytrace writes for it: it is the
// format -validate-trace accepts, it has one named track per simulated
// core, exec spans on a core never overlap (the virtual timeline is
// serial per core), and the spans it holds are the census the command
// prints — executions, steals, fruitless steal rounds.
func TestSimRunIsAFlightRecorderDump(t *testing.T) {
	eng, err := buildWorkload("unbalanced", policy.MelyTimeLeftWS(), 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sim.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	census, err := traceSim(eng, 5_000_000, f)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if census.exec == 0 || census.steals == 0 || census.failed == 0 {
		t.Fatalf("census %+v: an imbalanced workload must execute, steal and probe in vain", census)
	}

	cores := eng.Topology().NumCores()
	out, err := captureStdout(t, func() error { return runValidateTrace(path) })
	if err != nil {
		t.Fatalf("runValidateTrace: %v", err)
	}
	total := census.exec + census.steals + census.failed
	if want := fmt.Sprintf("%d events on %d tracks (%d spans, 0 instants, %d metadata)",
		total+cores, cores, total, cores); !strings.Contains(out, want) {
		t.Errorf("validate printed %q, want it to contain %q", out, want)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name  string         `json:"name"`
		Phase string         `json:"ph"`
		Ts    float64        `json:"ts"`
		Dur   float64        `json:"dur"`
		TID   int            `json:"tid"`
		Args  map[string]any `json:"args"`
	}
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatal(err)
	}
	var got simCensus
	var stolen int
	named := map[int]string{}
	lastEnd := make([]float64, cores)
	for _, ev := range events {
		if ev.TID < 0 || ev.TID >= cores {
			t.Fatalf("event %+v is on no simulated core", ev)
		}
		switch {
		case ev.Phase == "M":
			named[ev.TID], _ = ev.Args["name"].(string)
		case ev.Name == "steal (failed)":
			got.failed++
		case strings.HasPrefix(ev.Name, "STEAL ×"):
			got.steals++
			if ev.Args["victim"] == float64(ev.TID) {
				t.Errorf("core %d stole from itself: %+v", ev.TID, ev)
			}
		default:
			got.exec++
			if _, ok := ev.Args["color"]; !ok || strings.HasPrefix(ev.Name, "handler ") {
				t.Fatalf("exec span %+v lost its color or its handler's name", ev)
			}
			if ev.Args["stolen"] == true {
				stolen++
			}
			// Microsecond floats of abutting nanosecond stamps may
			// differ in the last bit.
			if ev.Ts+1e-6 < lastEnd[ev.TID] {
				t.Fatalf("core %d: exec span at %vµs overlaps one ending at %vµs", ev.TID, ev.Ts, lastEnd[ev.TID])
			}
			lastEnd[ev.TID] = ev.Ts + ev.Dur
		}
	}
	if got != census {
		t.Errorf("file holds %+v, the run counted %+v", got, census)
	}
	if stolen == 0 {
		t.Error("no exec span carries the stolen flag")
	}
	for c := 0; c < cores; c++ {
		if want := fmt.Sprintf("core %d", c); named[c] != want {
			t.Errorf("track %d is named %q, want %q", c, named[c], want)
		}
	}
}
