package scenario

import (
	"fmt"

	"github.com/melyruntime/mely/scenarios"
)

// gateOrder is the gate-entry order of the builtin scenarios: the five
// legacy scenarios first (their records keep the exact
// BENCH_baseline.json keys and order they always had), then the
// fault-injection scenarios the declarative harness adds, newest last
// (so a baseline regeneration is append-only).
var gateOrder = []string{
	"unbalanced", "penalty", "timer", "connscale",
	"overload", "overload-slowdisk", "overload-recover",
}

// Builtins returns the canonical gate scenarios, in gate-entry order,
// parsed from the spec files under scenarios/ (embedded in the binary) —
// the same files `melybench -topology-dir scenarios` loads, which is what
// makes that run and bench.GateSuite one suite.
func Builtins() []*Spec {
	specs := make([]*Spec, len(gateOrder))
	for i, name := range gateOrder {
		spec, err := Builtin(name)
		if err != nil {
			// A committed gate spec that does not parse is a bug in the
			// tree (TestBuiltinsValidate), not an input error.
			panic(err)
		}
		specs[i] = spec
	}
	return specs
}

// Builtin returns a fresh copy of one canonical scenario by name (its
// file's name: TestScenarioFilesMatchBuiltins holds the two equal).
func Builtin(name string) (*Spec, error) {
	data, err := scenarios.Files.ReadFile(name + ".yaml")
	if err != nil {
		return nil, fmt.Errorf("scenario: no builtin scenario %q", name)
	}
	spec, err := Parse(data, false)
	if err != nil {
		return nil, fmt.Errorf("scenario: builtin %s: %w", name, err)
	}
	return spec, nil
}
