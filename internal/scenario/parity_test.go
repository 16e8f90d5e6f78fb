package scenario

import (
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
