package policy

import (
	"fmt"
	"strings"
)

// Parse is the inverse of Config.String: it resolves a paper-style
// configuration name ("mely", "mely-baseWS", "mely+timeleft-WS",
// "libasync-WS", optionally suffixed "+batchsteal") back into a Config.
// It is what lets declarative scenario specs name policies the same way
// the gate baseline and the paper's tables do. Matching is exact on the
// canonical spelling. Parse(c.String()) == c for each of the Presets,
// and for each stealing preset with MaxStealColors set to
// DefaultMaxStealColors, which is what "+batchsteal" parses to: String
// prints the suffix for any cap above 1, so another cap does not come
// back.
func Parse(name string) (Config, error) {
	orig := name
	var c Config
	if rest, ok := strings.CutSuffix(name, "+batchsteal"); ok {
		c.MaxStealColors = DefaultMaxStealColors
		name = rest
	}
	switch name {
	case "libasync":
		c.Layout, c.Steal = ListLayout, StealNone
	case "libasync-WS":
		c.Layout, c.Steal = ListLayout, StealBase
	case "mely":
		c.Layout, c.Steal = MelyLayout, StealNone
	case "mely-baseWS":
		c.Layout, c.Steal = MelyLayout, StealBase
	default:
		flags, ok := strings.CutPrefix(name, "mely")
		if !ok {
			return Config{}, fmt.Errorf("policy: unknown configuration %q", orig)
		}
		flags, ok = strings.CutSuffix(flags, "-WS")
		if !ok {
			return Config{}, fmt.Errorf("policy: unknown configuration %q", orig)
		}
		c.Layout, c.Steal = MelyLayout, StealHeuristic
		// The canonical flag order is locality, timeleft, penalty (see
		// baseName); parse in that order so round-trips are exact.
		flags, c.Locality = strings.CutPrefix(flags, "+locality")
		flags, c.TimeLeft = strings.CutPrefix(flags, "+timeleft")
		flags, c.PenaltyAware = strings.CutPrefix(flags, "+penalty")
		if flags != "" || (!c.Locality && !c.TimeLeft && !c.PenaltyAware) {
			return Config{}, fmt.Errorf("policy: unknown configuration %q", orig)
		}
	}
	if err := c.Validate(); err != nil {
		return Config{}, fmt.Errorf("policy: %q: %w", orig, err)
	}
	return c, nil
}

// Preset is one of the eight configurations the paper evaluates, with the
// two other names it goes by; its canonical name is Config.String().
type Preset struct {
	Config Config
	Alias  string // the one-word flag spelling
	Label  string // the paper's tables
}

// Presets lists the paper's configurations, in the order of the runtime's
// mely.Policy constants. Every place that names a policy reads this table.
var Presets = [...]Preset{
	{MelyWS(), "melyws", "Mely - WS"},
	{Mely(), "mely", "Mely"},
	{MelyBaseWS(), "melybasews", "Mely - base WS"},
	{MelyTimeLeftWS(), "melytimeleftws", "Mely - time-aware WS"},
	{MelyPenaltyWS(), "melypenaltyws", "Mely - penalty-aware WS"},
	{MelyLocalityWS(), "melylocalityws", "Mely - locality-aware WS"},
	{Libasync(), "libasync", "Libasync-smp"},
	{LibasyncWS(), "libasyncws", "Libasync-smp - WS"},
}

// Lookup returns the index in Presets of the configuration name names, by
// alias or by canonical name, case-insensitively; -1 when there is none.
func Lookup(name string) int {
	for i, p := range Presets {
		if strings.EqualFold(name, p.Alias) || strings.EqualFold(name, p.Config.String()) {
			return i
		}
	}
	return -1
}

// Aliases is the "a|b|c" list of preset aliases, for usage messages.
func Aliases() string {
	names := make([]string, len(Presets))
	for i, p := range Presets {
		names[i] = p.Alias
	}
	return strings.Join(names, "|")
}

// Label names a configuration the way the paper's tables do; one that is
// not in them keeps its canonical name.
func (c Config) Label() string {
	for _, p := range Presets {
		if p.Config == c {
			return p.Label
		}
	}
	return c.String()
}
