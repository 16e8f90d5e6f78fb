package scenario

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScenarioFilesMatchBuiltins: the builtins are parsed from the spec
// files under scenarios/, so the gate directory must contain nothing but
// them — then `melybench -topology-dir scenarios` and the builtin
// GateSuite are the same suite, and the CI gate's baseline stays
// bit-identical whichever entry point produced it.
func TestScenarioFilesMatchBuiltins(t *testing.T) {
	dir := filepath.Join("..", "..", "scenarios")
	want := make(map[string]bool)
	for _, b := range Builtins() {
		want[b.Name+".yaml"] = true
	}
	if len(want) != len(gateOrder) {
		t.Errorf("builtins %v do not carry the names of their files %v", want, gateOrder)
	}

	// No stray gate specs: a file the builtins don't know about would
	// run in -topology-dir but not in the builtin suite (or vice versa).
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read %s: %v", dir, err)
	}
	for _, e := range entries {
		if e.IsDir() { // scenarios/live is deliberately outside the gate
			continue
		}
		name := e.Name()
		if !strings.HasSuffix(name, ".yaml") && !strings.HasSuffix(name, ".yml") && !strings.HasSuffix(name, ".json") {
			continue
		}
		if !want[name] {
			t.Errorf("stray gate spec %s has no builtin twin", name)
		}
	}
}

// TestBuiltinsValidate: the builtin specs must pass their own validator
// (the gate depends on them being well-formed by construction).
func TestBuiltinsValidate(t *testing.T) {
	for _, b := range Builtins() {
		if err := b.Validate(); err != nil {
			t.Errorf("builtin %s: %v", b.Name, err)
		}
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/specs.golden from this run")

// TestSpecFilesDecodeGolden pins what every committed spec file decodes
// to: testdata/specs.golden was captured before the paper workloads'
// parameter blocks became the internal/workload specs themselves, so a
// tag that drifts from the key it replaced (or a default that moves into
// the decoded value) shows up as a diff here, not as a moved gate number.
func TestSpecFilesDecodeGolden(t *testing.T) {
	root := filepath.Join("..", "..", "scenarios")
	var got strings.Builder
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".yaml" {
			return err
		}
		spec, err := Load(path)
		if err != nil {
			return err
		}
		doc, err := json.MarshalIndent(spec, "", "  ")
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(&got, "# %s\n%s\n", filepath.ToSlash(rel), doc)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "specs.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("a spec file decodes differently (-update only for an intended change)\n--- got\n%s--- want\n%s", got.String(), want)
	}
}
