package policy

import (
	"testing"
	"testing/quick"

	"github.com/melyruntime/mely/internal/equeue"
	"github.com/melyruntime/mely/internal/topology"
)

func TestPresetsValidate(t *testing.T) {
	if len(Presets) != 8 {
		t.Fatalf("%d presets, the paper evaluates 8", len(Presets))
	}
	for i, p := range Presets {
		if err := p.Config.Validate(); err != nil {
			t.Errorf("%s: %v", p.Alias, err)
		}
		if Lookup(p.Alias) != i || Lookup(p.Config.String()) != i {
			t.Errorf("%s / %s do not look up preset %d", p.Alias, p.Config, i)
		}
		if got := p.Config.Label(); got != p.Label {
			t.Errorf("%s: Label() = %q, want %q", p.Alias, got, p.Label)
		}
	}
	// Outside the table: no index, and the canonical name as label.
	batch := MelyTimeLeftWS()
	batch.MaxStealColors = DefaultMaxStealColors
	if Lookup(batch.String()) != -1 || batch.Label() != "mely+timeleft-WS+batchsteal" {
		t.Errorf("%s: Lookup %d, Label %q", batch, Lookup(batch.String()), batch.Label())
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{"zero", Config{}},
		{"bad layout", Config{Layout: 9, Steal: StealNone}},
		{"bad steal", Config{Layout: MelyLayout, Steal: 9}},
		{"heuristics without heuristic steal", Config{Layout: MelyLayout, Steal: StealBase, Locality: true}},
		{"timeleft on list layout", Config{Layout: ListLayout, Steal: StealHeuristic, TimeLeft: true}},
		{"penalty without timeleft", Config{Layout: MelyLayout, Steal: StealHeuristic, PenaltyAware: true}},
	}
	for _, tt := range tests {
		if err := tt.cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tt.name, tt.cfg)
		}
	}
}

func TestConfigString(t *testing.T) {
	tests := []struct {
		cfg  Config
		want string
	}{
		{Libasync(), "libasync"},
		{LibasyncWS(), "libasync-WS"},
		{Mely(), "mely"},
		{MelyBaseWS(), "mely-baseWS"},
		{MelyTimeLeftWS(), "mely+timeleft-WS"},
		{MelyWS(), "mely+locality+timeleft+penalty-WS"},
	}
	for _, tt := range tests {
		if got := tt.cfg.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestEffectivePenalty(t *testing.T) {
	if got := MelyWS().EffectivePenalty(1000); got != 1000 {
		t.Errorf("penalty-aware config must keep the annotation, got %d", got)
	}
	if got := MelyTimeLeftWS().EffectivePenalty(1000); got != 1 {
		t.Errorf("non-penalty config must neutralize the annotation, got %d", got)
	}
	if got := MelyWS().EffectivePenalty(0); got != 1 {
		t.Errorf("unannotated events have penalty 1, got %d", got)
	}
}

func TestVictimOrderBase(t *testing.T) {
	topo := topology.IntelXeonE5410()
	// Paper's example: core 6 is the most loaded on an 8-core machine,
	// so the set is {6, 7, 0, 1, 2, 3, 4, 5} (self excluded).
	lens := []int{0, 1, 2, 3, 4, 5, 100, 7}
	got := LibasyncWS().VictimOrder(3, lens, topo, nil)
	want := []int{6, 7, 0, 1, 2, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("VictimOrder = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("VictimOrder = %v, want %v", got, want)
		}
	}
}

func TestVictimOrderExcludesSelfEvenWhenLoaded(t *testing.T) {
	topo := topology.Uniform(4)
	lens := []int{100, 1, 1, 1}
	got := LibasyncWS().VictimOrder(0, lens, topo, nil)
	for _, v := range got {
		if v == 0 {
			t.Fatalf("self in victim order: %v", got)
		}
	}
	if len(got) != 3 {
		t.Fatalf("VictimOrder = %v", got)
	}
}

func TestVictimOrderLocality(t *testing.T) {
	topo := topology.IntelXeonE5410()
	lens := make([]int, 8)
	lens[7] = 1000 // most loaded, but distance wins for locality
	got := MelyWS().VictimOrder(0, lens, topo, nil)
	if got[0] != 1 {
		t.Fatalf("locality order must start with the L2 pair mate: %v", got)
	}
	// All same-package cores before the other package.
	seenRemote := false
	for _, v := range got {
		remote := topo.Package(v) != topo.Package(0)
		if seenRemote && !remote {
			t.Fatalf("locality order interleaves packages: %v", got)
		}
		seenRemote = seenRemote || remote
	}
}

func TestVictimOrderSingleCore(t *testing.T) {
	topo := topology.Uniform(1)
	if got := LibasyncWS().VictimOrder(0, []int{5}, topo, nil); len(got) != 0 {
		t.Fatalf("single core has no victims, got %v", got)
	}
}

func TestVictimOrderReusesBuffer(t *testing.T) {
	topo := topology.Uniform(4)
	buf := make([]int, 0, 8)
	got := LibasyncWS().VictimOrder(0, []int{0, 1, 2, 3}, topo, buf)
	if cap(got) != cap(buf) {
		t.Error("VictimOrder should reuse the provided buffer")
	}
}

// fakeVictim implements VictimView for decision tests.
type fakeVictim struct {
	queued     int
	colors     int
	running    equeue.Color
	hasRunning bool
	other      bool
	sq         *equeue.StealingQueue
}

func (f *fakeVictim) Len() int                              { return f.queued }
func (f *fakeVictim) DistinctColors() int                   { return f.colors }
func (f *fakeVictim) RunningColor() (equeue.Color, bool)    { return f.running, f.hasRunning }
func (f *fakeVictim) HasColorOtherThan(c equeue.Color) bool { return f.other }
func (f *fakeVictim) HasWorthy() bool {
	return f.sq != nil && f.sq.HasWorthy(f.running, f.hasRunning)
}

func TestCanBeStolenBase(t *testing.T) {
	cfg := LibasyncWS()
	tests := []struct {
		name string
		v    fakeVictim
		want bool
	}{
		{"empty", fakeVictim{}, false},
		{"two colors idle victim", fakeVictim{queued: 5, colors: 2, other: true}, true},
		{"one color idle victim", fakeVictim{queued: 5, colors: 1, hasRunning: false}, false},
		{"one color is running", fakeVictim{queued: 5, colors: 1, running: 3, hasRunning: true, other: false}, false},
		{"one color differs from running", fakeVictim{queued: 5, colors: 1, running: 3, hasRunning: true, other: true}, true},
	}
	for _, tt := range tests {
		if got := cfg.CanBeStolen(&tt.v); got != tt.want {
			t.Errorf("%s: CanBeStolen = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestCanBeStolenTimeLeft(t *testing.T) {
	cfg := MelyTimeLeftWS()
	// No stealing queue -> cannot steal.
	if cfg.CanBeStolen(&fakeVictim{queued: 100, colors: 10}) {
		t.Error("time-left without a StealingQueue must refuse")
	}
	// Empty stealing queue -> nothing worthy.
	q := equeue.NewCoreQueue(1000)
	cq := q.NewColorQueue(1)
	q.Push(cq, &equeue.Event{Color: 1, Cost: 10, Penalty: 1})
	v := &fakeVictim{queued: 1, colors: 1, sq: q.Stealing()}
	if cfg.CanBeStolen(v) {
		t.Error("unworthy colors must not be stealable under time-left")
	}
	// Worthy color present (two colors pending now).
	cq2 := q.NewColorQueue(2)
	q.Push(cq2, &equeue.Event{Color: 2, Cost: 50000, Penalty: 1})
	v.queued, v.colors, v.other = 2, 2, true
	if !cfg.CanBeStolen(v) {
		t.Error("a worthy color must be stealable")
	}
	// ... unless it is the running color: with color 2 running, the
	// only other pending color (1) is unworthy, so nothing to steal.
	v.running, v.hasRunning = 2, true
	if cfg.CanBeStolen(v) {
		t.Error("the running color must not make the victim stealable")
	}
}

func TestCanBeStolenSingleColorVictims(t *testing.T) {
	base := LibasyncWS()
	// A single-color idle victim must never be stolen from: the color is
	// serial, so migrating it moves the work without adding parallelism.
	if base.CanBeStolen(&fakeVictim{queued: 100, colors: 1, other: false}) {
		t.Error("single-color idle victim must not be stealable")
	}
	// A victim executing its only queued color keeps it too.
	if base.CanBeStolen(&fakeVictim{queued: 3, colors: 1, running: 7, hasRunning: true, other: false}) {
		t.Error("running-color-only victim must not be stealable")
	}
	// But a victim mid-event whose single queued color differs from the
	// running one may lose it: the running color is its kept color.
	if !base.CanBeStolen(&fakeVictim{queued: 3, colors: 1, running: 7, hasRunning: true, other: true}) {
		t.Error("mid-event victim with one other color must be stealable")
	}
}

func TestVictimOrderTieBreak(t *testing.T) {
	topo := topology.Uniform(4)
	// Two victims with equal (maximal) queue lengths: the scan keeps the
	// first maximum in core order, and the rest wrap around from it —
	// deterministic, so thieves do not herd randomly.
	lens := []int{0, 5, 5, 1}
	got := LibasyncWS().VictimOrder(0, lens, topo, nil)
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("VictimOrder = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("VictimOrder = %v, want %v (first equal maximum leads)", got, want)
		}
	}
	// Ties behind self: the wrap-around must still exclude self.
	lens = []int{9, 2, 9, 2}
	got = LibasyncWS().VictimOrder(2, lens, topo, nil)
	if got[0] != 0 {
		t.Fatalf("VictimOrder = %v, want first equal maximum (core 0) first", got)
	}
}

func TestStealBudget(t *testing.T) {
	single := MelyTimeLeftWS()
	for _, n := range []int{0, 1, 5, 100} {
		if got := single.StealBudget(n); got != 1 {
			t.Fatalf("single-color budget(%d) = %d, want 1", n, got)
		}
	}
	batch := MelyTimeLeftWS()
	batch.MaxStealColors = DefaultMaxStealColors
	tests := []struct{ stealable, want int }{
		{0, 1}, {1, 1}, {2, 1}, {4, 2}, {10, 5},
		{16, 8}, {100, DefaultMaxStealColors},
	}
	for _, tt := range tests {
		if got := batch.StealBudget(tt.stealable); got != tt.want {
			t.Errorf("budget(%d) = %d, want %d", tt.stealable, got, tt.want)
		}
	}
	batch.MaxStealColors = 3
	if got := batch.StealBudget(100); got != 3 {
		t.Errorf("capped budget = %d, want 3", got)
	}
}

// The per-core state both platforms embed is the victim view.
var _ VictimView = (*equeue.Core)(nil)

// buildVictim fills a Mely core with n worthy colors (1..n), each holding
// one event far above the steal-cost threshold.
func buildVictim(n int) *equeue.Core {
	v := equeue.NewCore(false, 100, 0)
	for c := 1; c <= n; c++ {
		color := equeue.Color(c)
		v.Push(v.NewColorQueue(color), &equeue.Event{Color: color, Cost: 1_000_000, Penalty: 1})
	}
	return &v
}

func TestSelectStealSetNeverTakesRunningOrLastColor(t *testing.T) {
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"timeleft", func() Config { c := MelyTimeLeftWS(); c.MaxStealColors = DefaultMaxStealColors; return c }()},
		{"base", func() Config { c := MelyBaseWS(); c.MaxStealColors = DefaultMaxStealColors; return c }()},
	} {
		// Idle victim: the set must leave at least one color behind.
		var set equeue.StealSet
		v := buildVictim(4)
		mode.cfg.SelectStealSet(v, &set)
		if len(set.Colors) == 0 {
			t.Fatalf("%s: nothing stolen from a 4-color victim", mode.name)
		}
		if v.DistinctColors() < 1 {
			t.Fatalf("%s: victim lost its last color (left %d)", mode.name, v.DistinctColors())
		}

		// Mid-event victim: the running color must never be in the set,
		// but every other color may go.
		v = buildVictim(4)
		running := equeue.Color(2)
		v.SetRunning(running)
		mode.cfg.SelectStealSet(v, &set)
		if len(set.Colors) == 0 {
			t.Fatalf("%s: nothing stolen from a mid-event victim", mode.name)
		}
		for _, c := range set.Colors {
			if c == running {
				t.Fatalf("%s: stole the running color", mode.name)
			}
		}

		// Idle single-color victim: nothing to take.
		v = buildVictim(1)
		mode.cfg.SelectStealSet(v, &set)
		if len(set.Colors) != 0 {
			t.Fatalf("%s: stole the last color of an idle victim", mode.name)
		}
	}
}

func TestSelectStealSetHonorsBudget(t *testing.T) {
	cfg := MelyTimeLeftWS()
	cfg.MaxStealColors = DefaultMaxStealColors
	var set equeue.StealSet
	v := buildVictim(12)
	w := cfg.SelectStealSet(v, &set)
	if len(set.Colors) != 6 { // half of 12 worthy colors
		t.Fatalf("batch size = %d, want 6", len(set.Colors))
	}
	if w.Unlinked != 6 || w.Inspected != 6 || w.Scanned != 0 {
		t.Fatalf("work = %+v, want 6 inspected, 6 unlinked", w)
	}
	if v.DistinctColors() != 6 {
		t.Fatalf("victim keeps %d colors, want 6", v.DistinctColors())
	}
	// At cap 1 the same call is the paper's single-color steal.
	cfg.MaxStealColors = 1
	v = buildVictim(12)
	cfg.SelectStealSet(v, &set)
	if len(set.Colors) != 1 {
		t.Fatalf("single-color batch size = %d, want 1", len(set.Colors))
	}
}

func TestSelectStealColorsListLayout(t *testing.T) {
	cfg := LibasyncWS()
	cfg.MaxStealColors = DefaultMaxStealColors
	v := equeue.NewCore(true, 0, 0)
	for c := 1; c <= 6; c++ {
		v.Push(nil, &equeue.Event{Color: equeue.Color(c), Cost: 100, Penalty: 1})
	}
	// Idle victim: at most half the colors (budget 3), never all six.
	var set equeue.StealSet
	w := cfg.SelectStealSet(&v, &set)
	if len(set.Colors) != 3 {
		t.Fatalf("chose %d colors, want 3", len(set.Colors))
	}
	// The choose pass is charged the whole queue (6 links), the
	// extraction stops at the third chosen event.
	if w.Scanned != 6+3 || w.Inspected != 0 || w.Unlinked != 0 {
		t.Fatalf("work = %+v, want 9 links scanned", w)
	}
	// Running color excluded even when eligible by counts.
	v.SetRunning(5)
	cfg.SelectStealSet(&v, &set)
	for _, c := range set.Colors {
		if c == 5 {
			t.Fatal("chose the running color")
		}
	}
}

func TestValidateBatchStealKnobs(t *testing.T) {
	bad := Mely() // no stealing
	bad.MaxStealColors = DefaultMaxStealColors
	if err := bad.Validate(); err == nil {
		t.Error("batch stealing without stealing must be rejected")
	}
	single := Mely()
	single.MaxStealColors = 1 // one color per steal is no batch
	if err := single.Validate(); err != nil {
		t.Errorf("cap 1 without stealing rejected: %v", err)
	}
	good := MelyWS()
	good.MaxStealColors = 4
	if err := good.Validate(); err != nil {
		t.Errorf("valid batch config rejected: %v", err)
	}
	if got := good.String(); got != "mely+locality+timeleft+penalty-WS+batchsteal" {
		t.Errorf("batch config String() = %q", got)
	}
}

// Property: VictimOrder is always a permutation of every core but self.
func TestVictimOrderPermutationProperty(t *testing.T) {
	f := func(rawCores uint8, rawSelf uint8, useLocality bool, rawLens []uint8) bool {
		n := int(rawCores%15) + 2
		self := int(rawSelf) % n
		topo := topology.Pairs(n)
		lens := make([]int, n)
		for i := range lens {
			if i < len(rawLens) {
				lens[i] = int(rawLens[i])
			}
		}
		cfg := LibasyncWS()
		if useLocality {
			cfg = MelyLocalityWS()
		}
		order := cfg.VictimOrder(self, lens, topo, nil)
		if len(order) != n-1 {
			return false
		}
		seen := make(map[int]bool, n)
		for _, v := range order {
			if v == self || v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
