// Package equeue implements the event representation and the two queue
// families studied in "Efficient Workstealing for Multicore Event-Driven
// Systems" (Gaud et al., ICDCS 2010):
//
//   - ListQueue: the Libasync-smp layout — a single per-core FIFO holding
//     events of all colors, plus per-color pending counters (the footnote-1
//     optimization of the paper). Steal extraction is O(queue length).
//   - CoreQueue / ColorQueue / StealingQueue: the Mely layout — events are
//     grouped per color into ColorQueues, chained into a per-core CoreQueue;
//     a partially ordered StealingQueue (three time-left intervals) indexes
//     the colors that are currently worth stealing. Steal extraction is O(1).
//
// Core is what a platform holds per core: a queue of one of the two
// families plus the color being executed. It implements the victim view
// the steal policy inspects, and it carries the layout-neutral halves of
// the steal transaction — Detach a StealSet from a victim, Adopt it on the
// thief — so that neither platform's steal routine tests for a layout. It
// also holds the lease rule, StopRunning: a color that stops running away
// from its hash home with nothing of it left goes back home, in both
// platforms at the same points.
//
// The queues carry no locking and no clock: both the discrete-event
// simulator (internal/sim) and the real runtime (package mely) embed Core
// and drive the same structures under their own synchronization, which
// keeps the reproduction honest — the algorithm that is measured is the
// algorithm that runs.
package equeue

// Color is an event-coloring annotation. Two events with different colors
// may be handled concurrently; events of the same color are handled
// serially (on the same core). The paper represents colors as short
// integers and uses a statically allocated 64K-entry table to map colors
// to queues; we widen the space to 64 bits (a production server colors
// each of millions of connections individually) and replace the static
// array with the sharded ColorTable.
type Color uint64

// DefaultColor is the color assigned to events registered without an
// annotation. All such events serialize, which is always safe.
const DefaultColor Color = 0

// HandlerID identifies a registered event handler. Handler tables live in
// the platform packages (sim and runtime); the queues only need identity.
type HandlerID int32

// Event is a unit of work: a handler to run plus a continuation.
//
// Cost is the (estimated) processing time of the event in CPU cycles. In
// the simulator it is charged to the executing core's virtual clock; in
// the real runtime it is the profiled estimate used by the time-left
// heuristic. Penalty is the workstealing penalty annotation of the
// penalty-aware heuristic: the cumulative processing time of a color is
// increased by Cost/Penalty, so a high penalty makes an event look cheap
// to thieves. Footprint and DataID describe the data set the handler
// touches, for the cache model.
type Event struct {
	next, prev *Event

	Handler HandlerID
	Color   Color

	// Cost is the processing time in cycles (charged at execution).
	Cost int64
	// Est overrides Cost in the worthiness accounting when positive:
	// the time-left heuristic then sees the profiled estimate instead
	// of the exact cost (section VII's dynamic annotations).
	Est int64
	// Penalty is the workstealing penalty (>= 1). Zero means 1.
	Penalty int32
	// Stolen records that a steal migrated this event, so the platform
	// can attribute its execution time to "stolen time" (Table I).
	Stolen bool
	// Slab marks an event allocated inside a batch slab: it must never
	// enter an event pool, because a pooled interior pointer would pin
	// the whole slab (and every sibling's payload backing array) for as
	// long as it sits there.
	Slab bool

	// PostNanos is the observability sampling stamp: when nonzero, the
	// event was selected by the runtime's latency sampler and carries
	// its post time (nanoseconds since the runtime epoch) to execution,
	// where the queue delay is observed. Zero on unsampled events.
	PostNanos int64

	// TraceID/SpanID/ParentSpan are the causal-tracing identifiers
	// (Dapper-style span/parent model): SpanID names this event,
	// TraceID groups every event derived from one ingress root, and
	// ParentSpan links to the event whose handler posted this one (zero
	// for roots). All three stay zero when the runtime's flight
	// recorder is disabled, so an untraced runtime pays nothing — the
	// fields ride in the event struct either way but are never written.
	TraceID    uint64
	SpanID     uint64
	ParentSpan uint64

	// Footprint is the number of bytes of the data set the handler
	// touches, DataID identifies that data set for the cache model, and
	// DataSize is the data set's full size (zero means Footprint — the
	// handler touches the whole object).
	Footprint int64
	DataSize  int64
	DataID    uint64

	// Data is the continuation payload, interpreted by the handler.
	Data any
}

// WeightedCost returns Cost divided by the workstealing penalty, the value
// the penalty-aware heuristic accumulates per color (section IV-B of the
// paper: event_time / ws_penalty).
func (e *Event) WeightedCost() int64 {
	base := e.Cost
	if e.Est > 0 {
		base = e.Est
	}
	p := e.Penalty
	if p <= 1 {
		return base
	}
	w := base / int64(p)
	if w < 1 {
		w = 1
	}
	return w
}

// reset clears links and flags so a pooled event can be reused.
func (e *Event) reset() {
	e.next = nil
	e.prev = nil
	e.Stolen = false
}

// Pool is a simple free list of events. Each core of the real runtime owns
// one (mirroring Mely's per-core memory pools via TCMalloc); the simulator
// uses one per engine. Pool is not safe for concurrent use.
type Pool struct {
	free *Event
	n    int
}

// Get returns a zeroed event, reusing a pooled one if available.
func (p *Pool) Get() *Event {
	if p.free == nil {
		return &Event{}
	}
	e := p.free
	p.free = e.next
	p.n--
	*e = Event{}
	return e
}

// Put recycles an event. The caller must not retain references to it.
func (p *Pool) Put(e *Event) {
	if p.n >= poolMax {
		return
	}
	e.reset()
	e.Data = nil
	e.next = p.free
	p.free = e
	p.n++
}

// Len reports the number of pooled events.
func (p *Pool) Len() int { return p.n }

const poolMax = 1 << 16
