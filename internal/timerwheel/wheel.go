// Package timerwheel is the runtime's per-core timer structure: a
// hierarchical (cascading) timing wheel in the lineage of hashed
// hierarchical timing wheels — Varghese & Lauck's scheme, the shape
// Linux kernel timers and time-bucketed queues like timeq use — tuned
// for the event-coloring runtime:
//
//   - Arm/cancel/reschedule are O(1); expiry is a batch harvest
//     (Advance) the owning worker folds into its scheduling loop, so
//     firing costs no goroutines and no per-timer allocations.
//   - An entry stays on the wheel it was added to until it fires or is
//     canceled: a steal or a lease re-home moves a color's queue, never
//     its timers. The platform routes the expiry to the color's owner
//     when it fires, as it routes any post.
//   - Cancel and Reschedule are race-safe against a concurrent harvest:
//     entry state is a small atomic state machine (armed → firing →
//     fired, or → canceled) and exactly one of Cancel/harvest wins.
//
// The wheel is clock-agnostic: all instants are int64 nanoseconds on a
// monotonic clock the caller owns (the runtime uses one epoch for every
// core's wheel, so a periodic entry re-armed on another wheel keeps its
// deadlines).
package timerwheel

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/melyruntime/mely/internal/equeue"
)

const (
	slotBits = 6
	numSlots = 1 << slotBits // 64 slots per level: occupancy is one uint64
	slotMask = numSlots - 1

	// DefaultLevels stacks four 64-slot levels: at the default 1ms tick
	// the horizon is 64^4 ticks ≈ 4.7 hours; deadlines beyond it park in
	// the top level and cascade back in (arbitrary durations work, they
	// just pay extra cascades).
	DefaultLevels = 4
	// MaxLevels bounds the hierarchy (64^8 ticks is already ~585 years
	// of millisecond ticks).
	MaxLevels = 8
	// DefaultTick is the default wheel granularity.
	DefaultTick = time.Millisecond
)

// Entry states. The only transitions are
// Armed→{Firing,Canceled}, Firing→{Fired,Armed(periodic re-arm),Canceled}.
const (
	StateArmed int32 = iota
	StateFiring
	StateFired
	StateCanceled
)

// none is the NextDue value of an empty wheel.
const none = math.MaxInt64

// Entry is one armed timer. The exported fields are set before Add and
// are read-only while armed, except When/Period which only the wheel
// (under its lock) and the firing owner (while state is Firing) touch.
type Entry struct {
	state atomic.Int32
	wheel atomic.Pointer[Wheel]

	// When is the absolute deadline (caller-clock nanoseconds); Period
	// is the re-arm interval of a periodic timer (0 = one-shot).
	When   int64
	Period int64

	// Color routes the expiry to the color's owning core; Handler and
	// Data are opaque payload for the platform firing the entry.
	Color   equeue.Color
	Handler int32
	Data    any

	// TraceID/SpanID carry the arming context's causal identifiers —
	// the trace and span of the event whose handler armed this timer
	// (zero when armed from outside a handler or with tracing off). The
	// fired event inherits them as its lineage, so a timer hop stays
	// inside its chain. Set before Add, like the other exported fields.
	TraceID uint64
	SpanID  uint64

	// slot list links (the due list uses the same links). level -1
	// means the due list; -2 means unlinked.
	next, prev  *Entry
	level, slot int
}

// NewEntry returns an armed, unlinked entry; Add links it into a wheel.
func NewEntry(color equeue.Color, handler int32, data any, when, period int64) *Entry {
	e := new(Entry)
	e.Init(color, handler, data, when, period)
	return e
}

// Init makes e, a zero Entry, what NewEntry returns: a platform that
// embeds the entry in its own timer handle arms it without a second
// allocation.
func (e *Entry) Init(color equeue.Color, handler int32, data any, when, period int64) {
	e.When, e.Period = when, period
	e.Color, e.Handler, e.Data = color, handler, data
	e.level = -2
}

// State exposes the entry's lifecycle state (tests and introspection).
func (e *Entry) State() int32 { return e.state.Load() }

// CurrentWheel reports the wheel the entry is linked into, or nil when
// it is not yet added, firing, or done.
func (e *Entry) CurrentWheel() *Wheel { return e.wheel.Load() }

// Cancel stops the timer. It returns true when a scheduled firing was
// averted: for a one-shot timer true means the handler will never run
// (exact-once with respect to expiry — exactly one of Cancel-true and
// the firing happens); for a periodic timer caught mid-firing the
// in-flight occurrence still runs but no further one does, and Cancel
// still returns true. False means the timer had already fired (or was
// already canceled) and Cancel changed nothing.
func (e *Entry) Cancel() bool {
	for {
		switch s := e.state.Load(); s {
		case StateFired, StateCanceled:
			return false
		case StateFiring:
			if e.Period == 0 {
				// The harvest won the race: the event is on its way to a
				// queue and will execute.
				return false
			}
			if e.state.CompareAndSwap(s, StateCanceled) {
				return true // the periodic re-arm will observe this and stop
			}
		case StateArmed:
			if e.state.CompareAndSwap(s, StateCanceled) {
				e.detach()
				return true
			}
		}
	}
}

// detach best-effort unlinks a canceled entry from its wheel. An entry
// with no wheel is a periodic one between Rearm and Add, which drops
// it; a canceled entry Add linked all the same is reaped at harvest.
func (e *Entry) detach() {
	w := e.wheel.Load()
	if w == nil {
		return
	}
	w.mu.Lock()
	if e.wheel.Load() == w {
		w.removeLocked(e)
	}
	w.mu.Unlock()
}

// Reschedule moves a linked, armed entry's deadline. ok is false — and
// nothing changed — when the entry is fired, firing (a periodic entry
// until its re-arm is linked again), or canceled: re-arming a completed
// timer is the platform's job, not the wheel's. earlier reports, as Add
// does, that the wheel's earliest bound moved earlier and a parked
// owner should be woken.
func (e *Entry) Reschedule(when int64) (ok, earlier bool) {
	for {
		w := e.wheel.Load()
		if w == nil {
			return false, false
		}
		w.mu.Lock()
		if e.wheel.Load() != w {
			// Fired and re-armed elsewhere since the load (periodic).
			w.mu.Unlock()
			continue
		}
		if e.state.Load() != StateArmed {
			w.mu.Unlock()
			return false, false
		}
		w.removeLocked(e)
		e.When = when
		earlier = w.addLocked(e)
		w.mu.Unlock()
		return true, earlier
	}
}

// FinishFire retires a harvested one-shot entry.
func (e *Entry) FinishFire() { e.state.CompareAndSwap(StateFiring, StateFired) }

// Rearm moves a harvested periodic entry back to armed with a new
// deadline, failing if Cancel intervened during the firing. The caller
// then Adds it to a wheel, not necessarily the one it fired from.
func (e *Entry) Rearm(when int64) bool {
	e.When = when
	return e.state.CompareAndSwap(StateFiring, StateArmed)
}

type slotList struct {
	head, tail *Entry
}

// Wheel is one core's timer hierarchy. All methods are safe for
// concurrent use; Advance is additionally designed to be called by a
// single harvesting owner (the core's worker).
type Wheel struct {
	mu sync.Mutex

	tick   int64
	levels int

	// cur is the last fully processed tick.
	cur   int64
	slots [][]slotList // [level][numSlots]
	occ   []uint64     // per-level slot occupancy bitmaps

	// due holds entries whose deadline was already reached when they
	// were (re)inserted; the next Advance drains it.
	due slotList

	count int

	// nextDue is a conservative lower bound on the earliest deadline
	// (none when empty): the real expiry may be later — a harvest then
	// finds nothing and re-tightens — but never earlier.
	nextDue atomic.Int64

	// Owner is an opaque owner tag (the runtime stores the core id so a
	// rescheduling poster can wake the right worker).
	Owner int
}

// New builds a wheel with the given granularity and level count
// (defaults: DefaultTick, DefaultLevels).
func New(tick time.Duration, levels int) *Wheel {
	if tick <= 0 {
		tick = DefaultTick
	}
	if levels <= 0 {
		levels = DefaultLevels
	}
	if levels > MaxLevels {
		levels = MaxLevels
	}
	w := &Wheel{
		tick:   tick.Nanoseconds(),
		levels: levels,
		slots:  make([][]slotList, levels),
		occ:    make([]uint64, levels),
	}
	for l := range w.slots {
		w.slots[l] = make([]slotList, numSlots)
	}
	w.nextDue.Store(none)
	return w
}

// Tick reports the wheel granularity in nanoseconds.
func (w *Wheel) Tick() int64 { return w.tick }

// Len reports the number of linked entries (including canceled entries
// not yet reaped).
func (w *Wheel) Len() int {
	w.mu.Lock()
	n := w.count
	w.mu.Unlock()
	return n
}

// NextDue returns the conservative earliest-deadline bound, or
// math.MaxInt64 when the wheel is empty. One atomic load: the worker
// polls it every loop iteration.
func (w *Wheel) NextDue() int64 { return w.nextDue.Load() }

// Add links an armed entry (a non-armed one is dropped: a periodic
// entry canceled between Rearm and Add). It reports whether the wheel's
// earliest bound moved earlier, in which case a parked owner should be
// woken to re-fold its sleep.
func (w *Wheel) Add(e *Entry) (earlier bool) {
	w.mu.Lock()
	if e.state.Load() != StateArmed {
		w.mu.Unlock()
		return false
	}
	earlier = w.addLocked(e)
	w.mu.Unlock()
	return earlier
}

// Advance processes every tick up to now, appending each expired entry
// to buf after winning its armed→firing handshake (canceled entries are
// reaped silently). Returned entries are unlinked and owned by the
// caller.
func (w *Wheel) Advance(now int64, buf []*Entry) []*Entry {
	target := now / w.tick
	w.mu.Lock()
	buf = w.collectDue(buf)
	for w.cur < target {
		if w.count == 0 {
			w.cur = target
			break
		}
		if w.occ[0] == 0 {
			// Level 0 is empty: jump straight to the next cascade
			// boundary holding any entry (or the target). Skipped
			// boundaries only cascade empty slots, so a wheel that sat
			// idle for hours catches up in a handful of jumps instead of
			// walking the whole gap 64 ticks at a time.
			next := w.nextBoundaryTickLocked()
			if next > target {
				w.cur = target
				break
			}
			w.cur = next
			w.cascade(1)
			buf = w.collectDue(buf)
			continue
		}
		w.cur++
		idx := int(w.cur & slotMask)
		if idx == 0 {
			w.cascade(1)
			buf = w.collectDue(buf)
		}
		if w.occ[0]&(1<<uint(idx)) != 0 {
			buf = w.collectSlot(idx, buf)
		}
	}
	buf = w.collectDue(buf)
	w.retightenLocked()
	w.mu.Unlock()
	return buf
}

// --- internals (all under mu) ---

// tickOf rounds a deadline up to its tick: an entry may fire late by
// the granularity, never early.
func (w *Wheel) tickOf(when int64) int64 {
	return (when + w.tick - 1) / w.tick
}

// addLocked links e and reports whether it lowered the nextDue bound.
// It reads When under the lock: once that is released the owner may fire
// the entry, and a periodic entry's Rearm rewrites the deadline.
func (w *Wheel) addLocked(e *Entry) (earlier bool) {
	w.reinsertLocked(e)
	e.wheel.Store(w)
	w.count++
	if earlier = e.When < w.nextDue.Load(); earlier {
		w.nextDue.Store(e.When)
	}
	return earlier
}

// reinsertLocked places an entry into the due list or its slot — the
// shared placement step of a fresh Add and of a cascade re-place (which
// leaves count and wheel pointer untouched).
func (w *Wheel) reinsertLocked(e *Entry) {
	whenTick := w.tickOf(e.When)
	delta := whenTick - w.cur
	if delta < 1 {
		w.pushDue(e)
		return
	}
	l := 0
	for l < w.levels-1 && delta >= int64(1)<<uint(slotBits*(l+1)) {
		l++
	}
	t := whenTick
	// Beyond-horizon deadlines park in the top level's farthest
	// reachable slot and cascade back toward their true position.
	if maxTick := w.cur + int64(1)<<uint(slotBits*w.levels) - 1; t > maxTick {
		t = maxTick
		l = w.levels - 1
	}
	w.pushSlot(e, l, int((t>>uint(slotBits*l))&slotMask))
}

// cascade redistributes level l's slot at the current position into
// lower levels (recursing upward first when level l itself wrapped).
// Called when w.cur crosses a multiple of numSlots^l.
func (w *Wheel) cascade(l int) {
	if l >= w.levels {
		return
	}
	idx := int((w.cur >> uint(slotBits*l)) & slotMask)
	if idx == 0 {
		w.cascade(l + 1)
	}
	if w.occ[l]&(1<<uint(idx)) == 0 {
		return
	}
	s := &w.slots[l][idx]
	e := s.head
	s.head, s.tail = nil, nil
	w.occ[l] &^= 1 << uint(idx)
	for e != nil {
		next := e.next
		e.next, e.prev = nil, nil
		e.level = -2
		w.reinsertLocked(e)
		e = next
	}
}

// collectSlot expires level 0's slot idx into buf.
func (w *Wheel) collectSlot(idx int, buf []*Entry) []*Entry {
	s := &w.slots[0][idx]
	e := s.head
	s.head, s.tail = nil, nil
	w.occ[0] &^= 1 << uint(idx)
	for e != nil {
		next := e.next
		buf = w.harvestOne(e, buf)
		e = next
	}
	return buf
}

func (w *Wheel) collectDue(buf []*Entry) []*Entry {
	e := w.due.head
	w.due.head, w.due.tail = nil, nil
	for e != nil {
		next := e.next
		buf = w.harvestOne(e, buf)
		e = next
	}
	return buf
}

// harvestOne finalizes one expired entry: unlink bookkeeping plus the
// armed→firing handshake. Canceled entries are reaped here. A slot
// reaching its turn does not prove every resident deadline passed — a
// beyond-horizon entry parked in the top level (always, on a one-level
// wheel) still has its true deadline ahead — so the deadline is
// re-checked and such entries cascade onward instead of firing early.
func (w *Wheel) harvestOne(e *Entry, buf []*Entry) []*Entry {
	e.next, e.prev = nil, nil
	e.level = -2
	if w.tickOf(e.When) > w.cur && e.state.Load() == StateArmed {
		w.reinsertLocked(e)
		return buf
	}
	w.count--
	e.wheel.Store(nil)
	if e.state.CompareAndSwap(StateArmed, StateFiring) {
		buf = append(buf, e)
	}
	return buf
}

// removeLocked unlinks one entry from its slot or the due list (cancel
// and reschedule paths); the caller has checked e.wheel == w under mu,
// so e is linked.
func (w *Wheel) removeLocked(e *Entry) {
	s := &w.due
	if e.level >= 0 {
		s = &w.slots[e.level][e.slot]
	}
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	if e.level >= 0 && s.head == nil {
		w.occ[e.level] &^= 1 << uint(e.slot)
	}
	e.next, e.prev = nil, nil
	e.level = -2
	w.count--
	e.wheel.Store(nil)
}

func (w *Wheel) pushDue(e *Entry) {
	e.level, e.slot = -1, 0
	e.next, e.prev = nil, w.due.tail
	if w.due.tail != nil {
		w.due.tail.next = e
	} else {
		w.due.head = e
	}
	w.due.tail = e
}

func (w *Wheel) pushSlot(e *Entry, l, idx int) {
	e.level, e.slot = l, idx
	s := &w.slots[l][idx]
	e.next, e.prev = nil, s.tail
	if s.tail != nil {
		s.tail.next = e
	} else {
		s.head = e
	}
	s.tail = e
	w.occ[l] |= 1 << uint(idx)
}

// nextBoundaryTickLocked returns the earliest future tick at which a
// cascade can release any linked entry: the minimum, over the occupied
// slots of levels ≥ 1, of that slot's next cascade boundary. Level 0 is
// assumed empty (the caller's branch condition); with entries linked
// that means some higher level is occupied.
func (w *Wheel) nextBoundaryTickLocked() int64 {
	best := int64(none)
	for l := 1; l < w.levels; l++ {
		bits := w.occ[l]
		if bits == 0 {
			continue
		}
		block := (w.cur >> uint(slotBits*l)) & slotMask
		for idx := 0; idx < numSlots; idx++ {
			if bits&(1<<uint(idx)) == 0 {
				continue
			}
			d := int64(idx) - int64(block)
			if d <= 0 {
				d += numSlots
			}
			if b := ((w.cur >> uint(slotBits*l)) + d) << uint(slotBits*l); b < best {
				best = b
			}
		}
	}
	if best == none {
		// Only possible on a one-level wheel, where beyond-horizon
		// entries live in level 0 itself; fall back to stepping one
		// rotation at a time.
		best = (w.cur | slotMask) + 1
	}
	return best
}

// retightenLocked recomputes the nextDue bound from the due list and
// the occupancy bitmaps. Slot starts are used for levels above 0, so
// the bound is conservative (never later than the true earliest).
func (w *Wheel) retightenLocked() {
	if w.due.head != nil {
		w.nextDue.Store(w.cur * w.tick)
		return
	}
	if w.count == 0 {
		w.nextDue.Store(none)
		return
	}
	best := int64(none)
	for l := 0; l < w.levels; l++ {
		bits := w.occ[l]
		if bits == 0 {
			continue
		}
		pos := int((w.cur >> uint(slotBits*l)) & slotMask)
		for idx := 0; idx < numSlots; idx++ {
			if bits&(1<<uint(idx)) == 0 {
				continue
			}
			d := int64(idx - pos)
			if d <= 0 {
				d += numSlots
			}
			// Slot idx next comes due d level-l steps ahead; its start
			// lower-bounds every deadline it holds.
			blockStart := ((w.cur >> uint(slotBits*l)) + d) << uint(slotBits*l)
			if t := blockStart * w.tick; t < best {
				best = t
			}
		}
	}
	w.nextDue.Store(best)
}
