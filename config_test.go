package mely

import (
	"strings"
	"testing"

	"github.com/melyruntime/mely/internal/policy"
)

func TestDetectTopologyFallback(t *testing.T) {
	for _, n := range []int{1, 2, 8, 64} {
		topo := detectTopology(n)
		if topo.NumCores() != n {
			t.Fatalf("detectTopology(%d) gave %d cores", n, topo.NumCores())
		}
	}
}

func TestPolicyStrings(t *testing.T) {
	tests := []struct {
		pol  Policy
		want string
	}{
		{PolicyMelyWS, "mely+locality+timeleft+penalty-WS"},
		{PolicyMely, "mely"},
		{PolicyLibasync, "libasync"},
		{PolicyLibasyncWS, "libasync-WS"},
		{PolicyMelyBaseWS, "mely-baseWS"},
	}
	for _, tt := range tests {
		if got := tt.pol.String(); got != tt.want {
			t.Errorf("Policy(%d).String() = %q, want %q", tt.pol, got, tt.want)
		}
	}
}

// TestParsePolicy pins the one policy table (internal/policy.Presets) to
// the Policy constants: each parses from its alias and from the name it
// prints, in any case.
func TestParsePolicy(t *testing.T) {
	tests := []struct {
		pol              Policy
		alias, canonical string
	}{
		{PolicyMelyWS, "melyws", "mely+locality+timeleft+penalty-WS"},
		{PolicyMely, "mely", "mely"},
		{PolicyMelyBaseWS, "melybasews", "mely-baseWS"},
		{PolicyMelyTimeLeftWS, "melytimeleftws", "mely+timeleft-WS"},
		{PolicyMelyPenaltyWS, "melypenaltyws", "mely+timeleft+penalty-WS"},
		{PolicyMelyLocalityWS, "melylocalityws", "mely+locality-WS"},
		{PolicyLibasync, "libasync", "libasync"},
		{PolicyLibasyncWS, "libasyncws", "libasync-WS"},
	}
	for _, tt := range tests {
		if got := tt.pol.String(); got != tt.canonical {
			t.Errorf("Policy(%d).String() = %q, want %q", tt.pol, got, tt.canonical)
		}
		for _, name := range []string{tt.alias, strings.ToUpper(tt.alias), tt.canonical, strings.ToLower(tt.canonical)} {
			if got, err := ParsePolicy(name); err != nil || got != tt.pol {
				t.Errorf("ParsePolicy(%q) = %d, %v, want %d", name, got, err, tt.pol)
			}
		}
	}
	if got, err := ParsePolicy(""); err != nil || got != PolicyMelyWS {
		t.Errorf(`ParsePolicy("") = %d, %v, want the default PolicyMelyWS`, got, err)
	}
	for _, name := range []string{"melytimeleft", "mely+penalty-WS", "fifo"} {
		if _, err := ParsePolicy(name); err == nil {
			t.Errorf("ParsePolicy(%q) succeeded", name)
		}
	}
	if _, err := New(Config{Cores: 1, Policy: PolicyLibasyncWS + 1}); err == nil {
		t.Error("New accepted a policy past the table")
	}
}

func TestZeroPolicyDefaultsToMelyWS(t *testing.T) {
	// The full heuristic set plus batch stealing.
	r, err := New(Config{Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.pol.String() != "mely+locality+timeleft+penalty-WS+batchsteal" {
		t.Fatalf("default policy = %s", r.pol)
	}
}

func TestSingleColorStealOptOut(t *testing.T) {
	r, err := New(Config{Cores: 1, maxStealColors: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.pol.MaxStealColors != 1 {
		t.Fatalf("steal cap = %d, want 1: a single-color steal", r.pol.MaxStealColors)
	}
	if r.pol.String() != "mely+locality+timeleft+penalty-WS" {
		t.Fatalf("single-color policy = %s", r.pol)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Cores <= 0 || cfg.batchThreshold != 10 ||
		cfg.stealCostSeed <= 0 || cfg.parkTimeout <= 0 ||
		cfg.maxStealColors != policy.DefaultMaxStealColors ||
		cfg.stealBackoff <= 0 || cfg.timerTick <= 0 {
		t.Fatalf("defaults incomplete: %+v", cfg)
	}
}
