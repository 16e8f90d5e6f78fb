// Package policy encodes the workstealing decision logic of the paper:
// the base Libasync-smp algorithm (Figure 2) and Mely's three heuristics
// (section III). The same policy code drives both the discrete-event
// simulator and the real runtime; platforms own locking and cost
// accounting, this package owns the decisions. Colors are 64-bit
// (equeue.Color) everywhere: the policy interfaces carry full-width
// colors so victim views and steal choices never alias two colors.
package policy

import (
	"fmt"

	"github.com/melyruntime/mely/internal/equeue"
	"github.com/melyruntime/mely/internal/topology"
)

// Layout selects the queue family of the runtime.
type Layout int

const (
	// ListLayout is Libasync-smp's single per-core FIFO.
	ListLayout Layout = iota + 1
	// MelyLayout is the per-color queue design of section IV.
	MelyLayout
)

func (l Layout) String() string {
	switch l {
	case ListLayout:
		return "libasync"
	case MelyLayout:
		return "mely"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// StealKind selects the workstealing algorithm.
type StealKind int

const (
	// StealNone disables workstealing.
	StealNone StealKind = iota + 1
	// StealBase is the Libasync-smp algorithm of Figure 2.
	StealBase
	// StealHeuristic enables the Mely heuristics selected in Config.
	StealHeuristic
)

func (k StealKind) String() string {
	switch k {
	case StealNone:
		return "none"
	case StealBase:
		return "base"
	case StealHeuristic:
		return "heuristic"
	default:
		return fmt.Sprintf("StealKind(%d)", int(k))
	}
}

// Config names a runtime configuration as evaluated in the paper.
type Config struct {
	Layout Layout
	Steal  StealKind

	// Locality orders steal victims by cache distance (section III-A).
	Locality bool
	// TimeLeft steals only worthy colors via the StealingQueue
	// (section III-B). Only meaningful with MelyLayout.
	TimeLeft bool
	// PenaltyAware honors per-handler ws_penalty annotations when
	// accounting color worthiness (section III-C). Requires TimeLeft
	// to influence choices.
	PenaltyAware bool

	// MaxStealColors is the steal budget: 0 or 1 migrates one color per
	// steal attempt, the paper's protocol; above 1, a steal takes half
	// the victim's stealable colors, capped at this value (StealBudget) —
	// the steal-side analogue of batched posting: per-color lock, table,
	// and wakeup costs amortize over the batch. There is one steal
	// routine either way. The preset constructors below all leave it 0
	// (the simulator's regenerated tables depend on that); the real
	// runtime sets it to DefaultMaxStealColors for every stealing policy.
	MaxStealColors int
}

// DefaultMaxStealColors is the runtime's steal budget, and what the
// "+batchsteal" suffix names: large enough to amortize the per-steal
// overhead, small enough that a thief cannot empty a loaded victim in
// one swoop. The whole batch is selected, detached, and lease-published
// inside one victim-lock critical section, so the cap also bounds how
// long one steal stalls the victim's posters.
const DefaultMaxStealColors = 8

// The paper's evaluated configurations.

// Libasync is Libasync-smp without workstealing.
func Libasync() Config { return Config{Layout: ListLayout, Steal: StealNone} }

// LibasyncWS is Libasync-smp with its original workstealing.
func LibasyncWS() Config { return Config{Layout: ListLayout, Steal: StealBase} }

// Mely is the Mely runtime without workstealing.
func Mely() Config { return Config{Layout: MelyLayout, Steal: StealNone} }

// MelyBaseWS is Mely's queue design running the base (Libasync-smp)
// workstealing algorithm — the "Mely - base WS" rows of Tables III-VI.
func MelyBaseWS() Config { return Config{Layout: MelyLayout, Steal: StealBase} }

// MelyTimeLeftWS enables only the time-left heuristic (Table IV).
func MelyTimeLeftWS() Config {
	return Config{Layout: MelyLayout, Steal: StealHeuristic, TimeLeft: true}
}

// MelyPenaltyWS enables time-left plus penalty-aware accounting
// (Table V; penalty-aware chooses among the worthy colors).
func MelyPenaltyWS() Config {
	return Config{Layout: MelyLayout, Steal: StealHeuristic, TimeLeft: true, PenaltyAware: true}
}

// MelyLocalityWS enables only locality-aware victim ordering (Table VI).
func MelyLocalityWS() Config {
	return Config{Layout: MelyLayout, Steal: StealHeuristic, Locality: true}
}

// MelyWS is the full Mely configuration: all heuristics on (the
// system-service evaluations of section V-C).
func MelyWS() Config {
	return Config{
		Layout: MelyLayout, Steal: StealHeuristic,
		Locality: true, TimeLeft: true, PenaltyAware: true,
	}
}

// Validate reports configuration mistakes.
func (c Config) Validate() error {
	switch c.Layout {
	case ListLayout, MelyLayout:
	default:
		return fmt.Errorf("policy: invalid layout %d", int(c.Layout))
	}
	switch c.Steal {
	case StealNone, StealBase, StealHeuristic:
	default:
		return fmt.Errorf("policy: invalid steal kind %d", int(c.Steal))
	}
	if c.Steal != StealHeuristic && (c.Locality || c.TimeLeft || c.PenaltyAware) {
		return fmt.Errorf("policy: heuristics require StealHeuristic")
	}
	if c.TimeLeft && c.Layout != MelyLayout {
		return fmt.Errorf("policy: time-left requires the Mely layout")
	}
	if c.PenaltyAware && !c.TimeLeft {
		return fmt.Errorf("policy: penalty-aware builds on time-left")
	}
	if c.MaxStealColors > 1 && c.Steal == StealNone {
		return fmt.Errorf("policy: batch stealing requires stealing")
	}
	return nil
}

// String names the configuration the way the paper's tables do; batch
// stealing (not a paper mode) is suffixed.
func (c Config) String() string {
	name := c.baseName()
	if c.MaxStealColors > 1 {
		name += "+batchsteal"
	}
	return name
}

func (c Config) baseName() string {
	switch {
	case c.Steal == StealNone:
		return c.Layout.String()
	case c.Steal == StealBase && c.Layout == ListLayout:
		return "libasync-WS"
	case c.Steal == StealBase:
		return "mely-baseWS"
	}
	s := "mely"
	if c.Locality {
		s += "+locality"
	}
	if c.TimeLeft {
		s += "+timeleft"
	}
	if c.PenaltyAware {
		s += "+penalty"
	}
	return s + "-WS"
}

// EffectivePenalty returns the penalty the queues should account for an
// event: the annotation when penalty-aware stealing is enabled, else 1
// (raw processing time), so disabling the heuristic really disables it.
func (c Config) EffectivePenalty(annotated int32) int32 {
	if !c.PenaltyAware || annotated <= 1 {
		return 1
	}
	return annotated
}

// VictimOrder writes into buf the cores to probe, in order, and returns
// the filled slice.
//
// Base (construct_core_set of Figure 2): the core with the highest
// number of queued events first, then successive core numbers wrapping
// around, the stealing core excluded.
//
// Locality-aware (section III-A): all cores ordered by their cache
// distance from the stealing core.
func (c Config) VictimOrder(self int, queueLens []int, topo *topology.Topology, buf []int) []int {
	n := len(queueLens)
	buf = buf[:0]
	if n <= 1 {
		return buf
	}
	if c.Steal == StealHeuristic && c.Locality {
		return append(buf, topo.StealOrder(self)...)
	}
	most := -1
	for i := 0; i < n; i++ {
		if i == self {
			continue
		}
		if most < 0 || queueLens[i] > queueLens[most] {
			most = i
		}
	}
	for i := 0; i < n; i++ {
		v := (most + i) % n
		if v == self {
			continue
		}
		buf = append(buf, v)
	}
	return buf
}

// VictimView is what a steal decision may inspect about a locked victim;
// *equeue.Core, which both platforms embed in their per-core state,
// implements it.
type VictimView interface {
	// Len is the victim's total pending event count.
	Len() int
	// DistinctColors is the number of colors with pending events.
	DistinctColors() int
	// RunningColor reports the color being executed, if any.
	RunningColor() (equeue.Color, bool)
	// HasColorOtherThan reports whether some pending color differs
	// from c (O(1) in both layouts thanks to the per-color counters).
	HasColorOtherThan(c equeue.Color) bool
	// HasWorthy reports whether the victim's StealingQueue holds a color
	// other than the running one (never on the list layout).
	HasWorthy() bool
}

// StealBudget returns how many colors one steal attempt may migrate
// from a victim currently exposing `stealable` candidate colors (worthy
// colors under time-left, distinct colors otherwise): half the
// candidates — enough to rebalance in O(log) steals while never emptying
// the victim — capped by MaxStealColors, and always at least one so a
// stealable victim is never skipped.
func (c Config) StealBudget(stealable int) int {
	return max(1, min(stealable/2, c.MaxStealColors))
}

// SelectStealSet picks and detaches, into set, the colors one steal
// attempt migrates from a locked victim that passed CanBeStolen: up to
// StealBudget colors, worthy ones first under time-left (richest
// intervals first, penalty-aware through the cumulative costs the queues
// maintain), or base-eligible colors otherwise. The victim's running
// color is never taken, and an idle victim always keeps its last color.
// The returned counts are what the selection walked and unlinked, for
// platform cost accounting; the caller owns the set's migration.
func (c Config) SelectStealSet(v *equeue.Core, set *equeue.StealSet) equeue.StealWork {
	if c.Steal == StealHeuristic && c.TimeLeft {
		return v.Detach(true, c.StealBudget(v.WorthyColors()), set)
	}
	return v.Detach(false, c.StealBudget(v.DistinctColors()), set)
}

// CanBeStolen is Figure 2's can_be_stolen, refined per heuristics:
//
//   - base: the victim holds events of at least two different colors —
//     one color must stay because the victim itself needs work (and the
//     running color can never be stolen). When the victim is mid-event,
//     the running color counts as its "kept" color, so a single queued
//     color different from it is stealable.
//   - time-left: additionally, some worthy color other than the running
//     one must exist in the victim's StealingQueue.
//
// Stealing the only color of an idle victim is rejected in every mode:
// a color is serial, so migrating it cannot add parallelism — the victim
// would just have executed it. (It would also let idle cores circulate
// a color indefinitely without anyone executing it.)
func (c Config) CanBeStolen(v VictimView) bool {
	running, hasRunning := v.RunningColor()
	if v.Len() == 0 {
		return false
	}
	eligible := false
	if hasRunning {
		eligible = v.HasColorOtherThan(running)
	} else {
		eligible = v.DistinctColors() >= 2
	}
	if !eligible {
		return false
	}
	if c.Steal == StealHeuristic && c.TimeLeft {
		return v.HasWorthy()
	}
	return true
}
