package bench

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"github.com/melyruntime/mely/internal/scenario"
)

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

func TestGateSuiteDeterministic(t *testing.T) {
	opt := scenario.Options{Quick: true, Seed: 42}
	a, err := GateSuite(opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GateSuite(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("gate suite is not deterministic:\n%+v\n%+v", a, b)
	}
	if len(a.Entries) == 0 {
		t.Fatal("gate suite measured nothing")
	}
	for _, e := range a.Entries {
		if e.KEventsPerSecond <= 0 {
			t.Fatalf("%s/%s: zero throughput", e.Experiment, e.Config)
		}
	}
}

func TestCompareGate(t *testing.T) {
	base := &GateResult{Schema: GateSchema, Seed: 42, Quick: true, Entries: []GateEntry{
		{Experiment: "unbalanced", Config: "mely", KEventsPerSecond: 1000},
		{Experiment: "penalty", Config: "mely-baseWS", KEventsPerSecond: 2000},
	}}
	pass := &GateResult{Schema: GateSchema, Seed: 42, Quick: true, Entries: []GateEntry{
		{Experiment: "unbalanced", Config: "mely", KEventsPerSecond: 950},
		{Experiment: "penalty", Config: "mely-baseWS", KEventsPerSecond: 2500},
		{Experiment: "penalty", Config: "new-config", KEventsPerSecond: 1},
	}}
	if v := CompareGate(base, pass, 0.10); len(v) != 0 {
		t.Fatalf("within-tolerance run must pass, got %v", v)
	}

	fail := &GateResult{Schema: GateSchema, Seed: 42, Quick: true, Entries: []GateEntry{
		{Experiment: "unbalanced", Config: "mely", KEventsPerSecond: 899},
	}}
	v := CompareGate(base, fail, 0.10)
	if len(v) != 2 {
		t.Fatalf("want a throughput violation and a missing-entry violation, got %v", v)
	}

	mismatched := &GateResult{Schema: GateSchema, Seed: 7, Quick: true, Entries: pass.Entries}
	if v := CompareGate(base, mismatched, 0.10); len(v) != 1 {
		t.Fatalf("mismatched seeds must be reported, got %v", v)
	}
}

func TestGateJSONRoundTrip(t *testing.T) {
	g := &GateResult{Schema: GateSchema, Seed: 42, Quick: true, Entries: []GateEntry{
		{Experiment: "unbalanced", Config: "mely", KEventsPerSecond: 1234.5, Steals: 7},
	}}
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := dir + "/gate.json"
	if err := writeFile(path, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	got, err := LoadGate(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, got) {
		t.Fatalf("round trip mismatch: %+v vs %+v", g, got)
	}

	bad := &GateResult{Schema: GateSchema + 1}
	buf.Reset()
	if err := bad.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(path, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadGate(path); err == nil {
		t.Fatal("wrong schema must be rejected")
	}
}
