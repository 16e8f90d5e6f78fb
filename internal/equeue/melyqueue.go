package equeue

// ColorQueue groups the pending events of one color, in FIFO order. It is
// the unit Mely steals: migrating a color means unlinking its ColorQueue
// from the victim's CoreQueue (and StealingQueue) and linking it into the
// thief's — O(1) instead of Libasync-smp's O(queue length) scan.
type ColorQueue struct {
	head, tail *Event
	count      int

	// cumCost is the cumulative penalty-weighted processing time of the
	// queued events (section IV-B: incremented by event_time/ws_penalty
	// on insertion, decremented on removal).
	cumCost int64

	// sizePad holds the struct at 104 bytes (Go size class 112): at 88
	// (size class 96) events_chain lost 6-10 % of its ops_per_s in 6 of
	// 6 pairs (TestColorQueueSize has the table). Whether another size
	// is faster still is not known.
	sizePad [2]int64

	color Color

	// CoreQueue links.
	cqNext, cqPrev *ColorQueue
	inCore         bool

	// StealingQueue links. interval is -1 when not enqueued.
	sqNext, sqPrev *ColorQueue
	interval       int
}

// Color returns the color whose events this queue holds.
func (cq *ColorQueue) Color() Color { return cq.color }

// MarkStolen flags every queued event as stolen so the executing
// platform attributes its processing time to stolen time (Table I).
func (cq *ColorQueue) MarkStolen() {
	for e := cq.head; e != nil; e = e.next {
		e.Stolen = true
	}
}

// Len reports the number of pending events.
func (cq *ColorQueue) Len() int { return cq.count }

// CumCost reports the cumulative penalty-weighted pending cost.
func (cq *ColorQueue) CumCost() int64 { return cq.cumCost }

// Drain removes and returns the head event, or nil.
func (cq *ColorQueue) Drain() *Event { return cq.popFront() }

// Append adds an event at the tail of a detached queue (see PopRun);
// linked queues take theirs through CoreQueue.Push.
func (cq *ColorQueue) Append(e *Event) {
	if cq.inCore || cq.color != e.Color {
		panic("equeue: Append to a linked ColorQueue or one of different color")
	}
	cq.pushBack(e)
}

func (cq *ColorQueue) pushBack(e *Event) {
	e.next = nil
	e.prev = cq.tail
	if cq.tail != nil {
		cq.tail.next = e
	} else {
		cq.head = e
	}
	cq.tail = e
	cq.count++
	cq.cumCost += e.WeightedCost()
}

func (cq *ColorQueue) popFront() *Event {
	e := cq.head
	if e == nil {
		return nil
	}
	cq.head = e.next
	if cq.head != nil {
		cq.head.prev = nil
	} else {
		cq.tail = nil
	}
	e.next = nil
	cq.count--
	cq.cumCost -= e.WeightedCost()
	if cq.count == 0 {
		cq.cumCost = 0
	}
	return e
}

// CoreQueue is the per-core Mely structure: a doubly-linked list of
// ColorQueues plus the StealingQueue indexing the worthy ones. The core's
// thread processes the first event of the first ColorQueue, batching at
// most BatchThreshold events of one color before moving on (threshold 10
// in all the paper's experiments).
type CoreQueue struct {
	head, tail *ColorQueue
	ncolors    int
	nevents    int

	steal StealingQueue

	// BatchThreshold caps consecutive events of one color. Zero means
	// DefaultBatchThreshold.
	BatchThreshold int
	batchCount     int

	pool colorQueuePool
}

// DefaultBatchThreshold is the paper's batching limit (section IV-A).
const DefaultBatchThreshold = 10

// NewCoreQueue returns an empty Mely per-core queue whose StealingQueue
// classifies colors as worthy when their cumulative cost exceeds
// stealCost (updated later via SetStealCost).
func NewCoreQueue(stealCost int64) *CoreQueue {
	q := &CoreQueue{BatchThreshold: DefaultBatchThreshold}
	q.steal.stealCost = stealCost
	return q
}

// Len reports the total number of pending events on the core.
func (q *CoreQueue) Len() int { return q.nevents }

// Colors reports the number of ColorQueues currently linked.
func (q *CoreQueue) Colors() int { return q.ncolors }

// Stealing exposes the core's StealingQueue.
func (q *CoreQueue) Stealing() *StealingQueue { return &q.steal }

// SetStealCost updates the worthiness threshold used to classify colors.
// Existing classifications are corrected lazily as queues are touched;
// the paper's runtime refreshes the estimate from built-in monitoring.
func (q *CoreQueue) SetStealCost(c int64) { q.steal.stealCost = c }

// Push appends an event to its ColorQueue, creating and linking the queue
// if the color had none. It returns the ColorQueue and whether it had to
// be linked into the CoreQueue (a cost the paper calls out: short-lived
// colors make Mely without workstealing slower than Libasync-smp).
func (q *CoreQueue) Push(cq *ColorQueue, e *Event) (linked bool) {
	if cq.color != e.Color {
		panic("equeue: event pushed to ColorQueue of different color")
	}
	cq.pushBack(e)
	q.nevents++
	if !cq.inCore {
		q.linkColor(cq)
		linked = true
	}
	q.steal.reclassify(cq)
	return linked
}

// NewColorQueue returns a (pooled) empty ColorQueue for color c. The
// caller links it by pushing the first event.
func (q *CoreQueue) NewColorQueue(c Color) *ColorQueue {
	cq := q.pool.get()
	cq.color = c
	return cq
}

// ReleaseColorQueue returns an empty, unlinked ColorQueue to the pool.
func (q *CoreQueue) ReleaseColorQueue(cq *ColorQueue) {
	if cq.count != 0 || cq.inCore || cq.interval >= 0 {
		panic("equeue: releasing a live ColorQueue")
	}
	q.pool.put(cq)
}

// PopNext removes and returns the next event to process: the first event
// of the first ColorQueue, rotating to the next color once BatchThreshold
// events of the current color have been processed consecutively. When a
// ColorQueue empties it is unlinked; emptied reports that (so platforms
// can charge the removal cost and release ownership).
func (q *CoreQueue) PopNext() (e *Event, emptied *ColorQueue) {
	e, cq := q.PopNextFrom()
	if cq != nil && cq.count == 0 {
		emptied = cq
	}
	return e, emptied
}

// PopNextFrom is PopNext reporting the ColorQueue the event came from
// whether or not the pop emptied it (an emptied queue, Len() == 0, has
// been unlinked).
func (q *CoreQueue) PopNextFrom() (e *Event, cq *ColorQueue) {
	cq = q.head
	if cq == nil {
		return nil, nil
	}
	if q.batchCount >= q.threshold() && cq.cqNext != nil {
		q.rotate()
		cq = q.head
	}
	e = cq.popFront()
	q.nevents--
	q.batchCount++
	q.popped(cq)
	return e, cq
}

// popped settles the CoreQueue after events left the front of cq: an
// emptied queue goes out of it, ending the batch.
func (q *CoreQueue) popped(cq *ColorQueue) {
	if cq.count == 0 {
		q.unlinkColor(cq)
		q.steal.remove(cq)
		q.batchCount = 0
	} else {
		q.steal.reclassify(cq)
	}
}

// PopRun detaches the rest of the current batch into run, an empty,
// unlinked ColorQueue that takes cq's color: the private part of a split
// queue, which nothing of the CoreQueue's accounting (Len, the
// StealingQueue) covers, so whoever owns it works it — Drain, Append —
// without the CoreQueue's synchronization. cq is the queue the preceding
// PopNextFrom returned, and the events moved are exactly those the next
// calls of PopNextFrom would return before a rotation falls due: the
// front of cq, as many as BatchThreshold still allows. The CoreQueue is
// left as those calls would leave it (an emptied cq is unlinked).
func (q *CoreQueue) PopRun(cq, run *ColorQueue) {
	if run.count != 0 || run.inCore {
		panic("equeue: PopRun into a ColorQueue in use")
	}
	if cq.count != 0 && cq != q.head {
		panic("equeue: PopRun on a ColorQueue that is not being popped")
	}
	run.color = cq.color
	k := min(q.threshold()-q.batchCount, cq.count)
	if k <= 0 {
		return
	}
	q.nevents -= k
	q.batchCount += k
	for ; k > 0; k-- {
		run.pushBack(cq.popFront())
	}
	q.popped(cq)
}

// PushFrontRun puts what is left of a run back in front of cq's events,
// in order, and empties the run. The run's batch counts as spent: an
// unlinked cq is re-linked at the tail of the CoreQueue, and if cq
// stands at the head the next PopNextFrom rotates past it as soon as
// another color is queued behind it. It reports whether cq had to be
// linked.
func (q *CoreQueue) PushFrontRun(cq, run *ColorQueue) (linked bool) {
	if run.color != cq.color {
		panic("equeue: run put back on ColorQueue of different color")
	}
	if run.count == 0 {
		return false
	}
	if !cq.inCore {
		q.linkColor(cq)
		linked = true
	}
	q.MergeFront(cq, run)
	if q.head == cq {
		q.batchCount = q.threshold()
	}
	return linked
}

func (q *CoreQueue) threshold() int {
	if q.BatchThreshold <= 0 {
		return DefaultBatchThreshold
	}
	return q.BatchThreshold
}

// StealWorthySet implements the time-left steal: it detaches up to max
// worthy ColorQueues (richest time-left intervals first, never the
// running color) in one pass over the StealingQueue and returns them
// appended to buf[:0]. An idle victim always keeps at least one color —
// stealing its last color cannot add parallelism, it only moves the
// work — whereas a victim mid-event keeps its running color instead, so
// every queued color is fair game.
func (q *CoreQueue) StealWorthySet(running Color, hasRunning bool, max int, buf []*ColorQueue) []*ColorQueue {
	buf = q.steal.CollectWorthy(running, hasRunning, max, buf[:0])
	buf = buf[:q.capTake(len(buf), hasRunning)]
	for _, cq := range buf {
		q.detach(cq)
	}
	return buf
}

// StealBaseSet mimics the Libasync-smp color choice on the Mely layout
// (the "Mely - base WS" configurations): walk the CoreQueue and detach up
// to max colors that are not running and hold no more than half of the
// core's pending events, keeping one color on an idle victim. inspected
// counts ColorQueues examined, for cost accounting.
func (q *CoreQueue) StealBaseSet(running Color, hasRunning bool, max int, buf []*ColorQueue) (set []*ColorQueue, inspected int) {
	half := q.nevents / 2
	buf = buf[:0]
	for c := q.head; c != nil && len(buf) < max; c = c.cqNext {
		inspected++
		if hasRunning && c.color == running {
			continue
		}
		if c.count <= half || q.ncolors == 1 {
			buf = append(buf, c)
		}
	}
	buf = buf[:q.capTake(len(buf), hasRunning)]
	for _, cq := range buf {
		q.detach(cq)
	}
	return buf, inspected
}

// capTake bounds how many colors a batch steal may detach: an idle
// victim keeps at least one (the serial color it would have executed
// itself), a mid-event victim's kept color is the running one.
func (q *CoreQueue) capTake(n int, hasRunning bool) int {
	if !hasRunning && q.ncolors-n < 1 {
		n = q.ncolors - 1
	}
	if n < 0 {
		n = 0
	}
	return n
}

// Adopt links a stolen ColorQueue into this core's structures (migrate).
func (q *CoreQueue) Adopt(cq *ColorQueue) {
	if cq.inCore || cq.interval >= 0 {
		panic("equeue: adopting a linked ColorQueue")
	}
	q.nevents += cq.count
	q.linkColor(cq)
	q.steal.reclassify(cq)
}

// detach removes a ColorQueue (and its events) from the core entirely.
func (q *CoreQueue) detach(cq *ColorQueue) {
	q.nevents -= cq.count
	q.unlinkColor(cq)
	q.steal.remove(cq)
}

func (q *CoreQueue) linkColor(cq *ColorQueue) {
	cq.cqPrev = q.tail
	cq.cqNext = nil
	if q.tail != nil {
		q.tail.cqNext = cq
	} else {
		q.head = cq
	}
	q.tail = cq
	cq.inCore = true
	q.ncolors++
}

func (q *CoreQueue) unlinkColor(cq *ColorQueue) {
	if !cq.inCore {
		return
	}
	if cq.cqPrev != nil {
		cq.cqPrev.cqNext = cq.cqNext
	} else {
		q.head = cq.cqNext
	}
	if cq.cqNext != nil {
		cq.cqNext.cqPrev = cq.cqPrev
	} else {
		q.tail = cq.cqPrev
	}
	cq.cqNext, cq.cqPrev = nil, nil
	cq.inCore = false
	q.ncolors--
}

// rotate moves the head ColorQueue to the tail (batch threshold reached).
func (q *CoreQueue) rotate() {
	cq := q.head
	if cq == nil || cq.cqNext == nil {
		q.batchCount = 0
		return
	}
	q.unlinkColor(cq)
	q.linkColor(cq)
	q.batchCount = 0
}

// FirstColor returns the color at the head of the CoreQueue, if any.
func (q *CoreQueue) FirstColor() (Color, bool) {
	if q.head == nil {
		return 0, false
	}
	return q.head.color, true
}

type colorQueuePool struct {
	free []*ColorQueue
}

func (p *colorQueuePool) get() *ColorQueue {
	if n := len(p.free); n > 0 {
		cq := p.free[n-1]
		p.free = p.free[:n-1]
		*cq = ColorQueue{interval: -1}
		return cq
	}
	return &ColorQueue{interval: -1}
}

func (p *colorQueuePool) put(cq *ColorQueue) {
	if len(p.free) < 4096 {
		p.free = append(p.free, cq)
	}
}

// MergeFront splices the events of src, a detached ColorQueue, in front
// of dst's events, preserving src's seniority (PushFrontRun puts a
// private run back this way). dst must be linked in q; src must be
// detached and of the same color.
func (q *CoreQueue) MergeFront(dst, src *ColorQueue) {
	if src.color != dst.color {
		panic("equeue: merging ColorQueues of different colors")
	}
	if src.inCore || src.interval >= 0 {
		panic("equeue: merging a linked source ColorQueue")
	}
	if !dst.inCore {
		panic("equeue: merging into an unlinked ColorQueue")
	}
	if src.count == 0 {
		return
	}
	if dst.head != nil {
		src.tail.next = dst.head
		dst.head.prev = src.tail
	} else {
		dst.tail = src.tail
	}
	dst.head = src.head
	dst.count += src.count
	dst.cumCost += src.cumCost
	q.nevents += src.count
	q.steal.reclassify(dst)
	src.head, src.tail, src.count, src.cumCost = nil, nil, 0, 0
}
