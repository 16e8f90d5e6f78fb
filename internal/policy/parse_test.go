package policy

import (
	"strings"
	"testing"
)

// TestParseRoundTrip checks what Parse's doc claims: every preset comes
// back from its String(), and so does every stealing preset at the
// default steal budget, through the "+batchsteal" suffix.
func TestParseRoundTrip(t *testing.T) {
	for _, p := range Presets {
		got, err := Parse(p.Config.String())
		if err != nil || got != p.Config {
			t.Errorf("Parse(%q) = %+v, %v; want %+v", p.Config, got, err, p.Config)
		}
		if p.Config.Steal == StealNone {
			continue
		}
		batch := p.Config
		batch.MaxStealColors = DefaultMaxStealColors
		name := batch.String()
		if !strings.HasSuffix(name, "+batchsteal") {
			t.Errorf("%s at the default cap prints %q, no +batchsteal", p.Alias, name)
		}
		if got, err := Parse(name); err != nil || got != batch {
			t.Errorf("Parse(%q) = %+v, %v; want %+v", name, got, err, batch)
		}
	}
	// Any cap above 1 prints the suffix, which names the default cap.
	cap4 := MelyWS()
	cap4.MaxStealColors = 4
	if got, err := Parse(cap4.String()); err != nil || got.MaxStealColors != DefaultMaxStealColors {
		t.Errorf("Parse(%q) = %+v, %v; want the default cap", cap4, got, err)
	}
}

func TestParseRejects(t *testing.T) {
	for _, name := range []string{
		"",
		"fifo",
		"mely-WS",                  // a heuristic steal names at least one flag
		"mely+penalty+timeleft-WS", // flags out of canonical order
		"mely+batchsteal",          // a cap without stealing
	} {
		if c, err := Parse(name); err == nil {
			t.Errorf("Parse(%q) = %+v, want an error", name, c)
		}
	}
}
