package obs

import "github.com/melyruntime/mely/internal/spinlock"

// Kind tags a flight-recorder record with the runtime action it
// captured. Values are stable — they appear in dumped traces and in
// docs/observability.md.
type Kind uint8

const (
	// KindNone is the zero Kind: no record carries it.
	KindNone Kind = iota
	// KindPost: an event was accepted into a core's queue. Ts is the
	// post timestamp, Arg the color, N the handler id.
	KindPost
	// KindExec: a handler ran. Ts is the execution start, Dur the
	// handler wall time, Arg the color, N the handler id (with
	// StolenFlag set when the event executed away from its home core).
	KindExec
	// KindSteal: a steal batch completed. Ts is the probe start, Dur
	// the whole steal (probe + transfer), Arg the victim core, N the
	// number of colors taken. N == 0 is a probe round that found
	// nothing (only the simulator records those).
	KindSteal
	// KindReHome: a lease ended — a stolen color drained away from home
	// and went back to its home core. Arg is the color, N the home core.
	KindReHome
	// KindSpill: an event was spilled to disk. Arg is the color, N the
	// on-disk depth after the append.
	KindSpill
	// KindReload: spilled events were reloaded. Arg is the color, N
	// the batch size.
	KindReload
	// KindTimerFire: a timer fired. Ts is the fire time, Dur the lag
	// behind the deadline, Arg the color.
	KindTimerFire
	// KindPollWake: a poller shard woke up. N is the number of readiness
	// events harvested.
	KindPollWake
	// KindStall: the stall watchdog caught a handler exceeding the
	// configured threshold. Ts is the detection time, Dur the elapsed
	// execution time so far, Arg the stalled core, N the handler id;
	// the flow fields carry the stalled span's trace/span ids.
	KindStall

	numKinds
)

// StolenFlag is OR-ed into a KindExec record's N field when the event
// ran on a thief core rather than its home.
const StolenFlag uint32 = 1 << 31

var kindNames = [numKinds]string{
	KindNone:      "none",
	KindPost:      "post",
	KindExec:      "exec",
	KindSteal:     "steal",
	KindReHome:    "re-home",
	KindSpill:     "spill",
	KindReload:    "reload",
	KindTimerFire: "timer",
	KindPollWake:  "poll",
	KindStall:     "stall",
}

// String names the kind for trace output.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one flight-recorder record, as a Ring stores it and as
// Snapshot returns it. Ts and Dur are nanoseconds relative to the
// runtime's epoch. Trace/Span/Parent are the causal-flow identifiers
// (zero on records of untraced actions).
type Event struct {
	Ts     int64
	Dur    int64
	Arg    uint64
	Trace  uint64
	Span   uint64
	Parent uint64
	N      uint32
	Kind   Kind
}

// snapChunk bounds the slots Snapshot copies out per hold of the ring's
// lock: a dump delays the ring's writers by one chunk at a time (about
// 3.5 KB moved, a fraction of a microsecond), whatever the ring's size.
const snapChunk = 64

// Ring is a fixed-size flight-recorder buffer: one lock, a write
// position and the records, overwritten oldest-first. An append is the
// lock, seven plain words and the unlock — cheap enough to leave on in
// production. One Ring belongs to one core (plus one shared auxiliary
// ring for off-core actions: spill, reload, poll wakeups), so the lock is
// nearly always its worker's own.
//
// Lock order: a ring's lock is a leaf. A post record (notePosted) and a
// re-home record (deliverLocked) are appended while holding a core lock,
// so the order is core lock, then ring lock, never the reverse; Snapshot,
// and with it DumpTrace, takes ring locks only, one at a time.
type Ring struct {
	mu    spinlock.Lock
	mask  uint64
	pos   uint64  // records ever appended; the next goes to slots[pos&mask]
	slots []Event // guarded, like pos, by mu
}

// NewRing returns a ring holding size records, rounded up to a power
// of two (minimum 64).
func NewRing(size int) *Ring {
	n := 64
	for n < size {
		n <<= 1
	}
	return &Ring{mask: uint64(n - 1), slots: make([]Event, n)}
}

// Cap is the ring's slot count.
func (r *Ring) Cap() int { return len(r.slots) }

// Append records one event, overwriting the oldest slot once the ring
// is full. Safe for concurrent use from any goroutine.
func (r *Ring) Append(k Kind, ts, dur int64, arg uint64, n uint32) {
	r.AppendFlow(k, ts, dur, arg, n, 0, 0, 0)
}

// AppendFlow is Append carrying the causal-flow identifiers: the
// record's trace id, its own span id, and the span that caused it
// (zero when unknown).
func (r *Ring) AppendFlow(k Kind, ts, dur int64, arg uint64, n uint32, trace, span, parent uint64) {
	r.mu.Lock()
	s := &r.slots[r.pos&r.mask]
	s.Ts, s.Dur, s.Arg, s.Trace, s.Span, s.Parent, s.N, s.Kind = ts, dur, arg, trace, span, parent, n, k
	r.pos++
	r.mu.Unlock()
}

// Snapshot appends to dst, oldest first, the records the ring held when
// it was called: exactly what was appended, at most Cap of them. It
// copies them out a chunk per hold of the lock, so writers keep
// appending meanwhile; records they overwrite before the copy reaches
// them are skipped, records they add are not part of the snapshot.
func (r *Ring) Snapshot(dst []Event) []Event {
	var buf [snapChunk]Event
	n := uint64(len(r.slots))
	r.mu.Lock()
	end := r.pos
	for next := uint64(0); ; {
		// Records older than pos-n are overwritten: before the first
		// chunk, or by writers since the last one.
		next = max(next, r.pos-min(r.pos, n))
		if next >= end {
			break
		}
		// A chunk stops at the end of slots, so it is one contiguous copy.
		i := next & r.mask
		c := copy(buf[:], r.slots[i:min(n, i+end-next)])
		next += uint64(c)
		r.mu.Unlock()
		dst = append(dst, buf[:c]...)
		r.mu.Lock()
	}
	r.mu.Unlock()
	return dst
}
