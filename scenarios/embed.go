// Package scenarios embeds the gate suite's spec files, the one source
// scenario.Builtins parses.
package scenarios

import "embed"

// Files holds every gate spec of this directory (scenarios/live, the
// wall-clock specs no gate can run, is not part of it).
//
//go:embed *.yaml
var Files embed.FS
