package equeue

// ListQueue is the Libasync-smp event queue: a single FIFO, per core,
// holding events of every color assigned to that core. The runtime thread
// pops from the head; producers (any core) append to the tail; thieves
// extract all events of the colors they chose, which requires walking the
// list.
//
// Per the paper's footnote 1, the runtime maintains a counter of pending
// events for each color so that a steal scan can stop as soon as the last
// event of the chosen color has been extracted. ListQueue maintains those
// counters and reports how many links each operation traversed, so the
// simulator can charge the paper's measured ~190 cycles per scanned event.
type ListQueue struct {
	head, tail *Event
	count      int

	// pending counts events per color currently in this queue.
	pending map[Color]int
}

// NewListQueue returns an empty Libasync-smp style queue.
func NewListQueue() *ListQueue {
	return &ListQueue{pending: make(map[Color]int)}
}

// Len reports the number of queued events.
func (q *ListQueue) Len() int { return q.count }

// DistinctColors reports how many distinct colors have pending events.
func (q *ListQueue) DistinctColors() int { return len(q.pending) }

// Pending reports the number of queued events of color c.
func (q *ListQueue) Pending(c Color) int { return q.pending[c] }

// FirstColor reports the color of the head event, if any.
func (q *ListQueue) FirstColor() (Color, bool) {
	if q.head == nil {
		return 0, false
	}
	return q.head.Color, true
}

// PushBack appends an event.
func (q *ListQueue) PushBack(e *Event) {
	e.next = nil
	e.prev = q.tail
	if q.tail != nil {
		q.tail.next = e
	} else {
		q.head = e
	}
	q.tail = e
	q.count++
	q.pending[e.Color]++
}

// PopFront removes and returns the head event, or nil if empty.
func (q *ListQueue) PopFront() *Event {
	e := q.head
	if e == nil {
		return nil
	}
	q.unlink(e)
	return e
}

func (q *ListQueue) unlink(e *Event) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		q.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		q.tail = e.prev
	}
	e.next, e.prev = nil, nil
	q.count--
	if n := q.pending[e.Color] - 1; n > 0 {
		q.pending[e.Color] = n
	} else {
		delete(q.pending, e.Color)
	}
}

// ChooseColorsToSteal implements the Libasync-smp choose_colors_to_steal
// function: select, in queue order, up to max distinct colors that are
// (i) not the color being processed on the victim and (ii) each
// associated with no more than half of the queued events. An idle victim
// keeps at least one color (see CanBeStolen); a mid-event victim keeps its
// running color. It returns the chosen colors appended to buf[:0] and the
// number of list links scanned, for cost accounting.
//
// The scan is charged for the whole queue however early the choice
// completes: evaluating condition (ii) requires per-color occurrence
// counts, which Libasync-smp's choose pass tallies by walking the list.
// This is what the paper measures — a steal on a Web-server queue of 1000+
// pending events costs ~197 Kcycles, i.e. the full queue at ~190 cycles
// per scanned event — and it is the O(n) cost Mely's color-queues
// eliminate.
func (q *ListQueue) ChooseColorsToSteal(running Color, hasRunning bool, max int, buf []Color) (colors []Color, scanned int) {
	// The running color is skipped below, so a mid-event victim may lose
	// every queued color; an idle one keeps at least one.
	keep := 1
	if hasRunning {
		keep = 0
	}
	if max > len(q.pending)-keep {
		max = len(q.pending) - keep
	}
	half := q.count / 2
	buf = buf[:0]
	for e := q.head; e != nil && len(buf) < max; e = e.next {
		if hasRunning && e.Color == running {
			continue
		}
		if q.pending[e.Color] > half && q.count > 1 {
			continue
		}
		dup := false
		for _, c := range buf {
			if c == e.Color {
				dup = true
				break
			}
		}
		if !dup {
			buf = append(buf, e.Color)
		}
	}
	return buf, q.count
}

// ExtractColorSet implements construct_event_set: remove every event
// whose color appears in colors, preserving order, in ONE scan of the
// list — the per-steal amortization a batch steal buys on this layout,
// where per-color extraction would re-walk the queue once per color.
// sets[i] receives the events of colors[i]; the scan stops as soon as the
// last pending event of the chosen colors has been extracted (per-color
// counters, footnote 1 of the paper), which may still be the whole queue.
func (q *ListQueue) ExtractColorSet(colors []Color, sets []EventSet) (out []EventSet, scanned int) {
	sets = sets[:0]
	remaining := 0
	for _, c := range colors {
		sets = append(sets, EventSet{})
		remaining += q.pending[c]
	}
	for e := q.head; e != nil && remaining > 0; {
		next := e.next
		scanned++
		for i, c := range colors {
			if e.Color == c {
				q.unlink(e)
				sets[i].pushBack(e)
				remaining--
				break
			}
		}
		e = next
	}
	return sets, scanned
}

// AppendSet implements migrate for the list layout: append a stolen set.
func (q *ListQueue) AppendSet(set EventSet) {
	for e := set.head; e != nil; {
		next := e.next
		e.next, e.prev = nil, nil
		q.PushBack(e)
		e = next
	}
}

// EventSet is an ordered batch of events extracted by a steal.
type EventSet struct {
	head, tail *Event
	count      int
	cost       int64
}

// Len reports the number of events in the set.
func (s *EventSet) Len() int { return s.count }

// Cost reports the summed (unweighted) processing cost of the set.
func (s *EventSet) Cost() int64 { return s.cost }

// MarkStolen flags every event in the set as stolen, so the executing
// platform attributes their processing time to stolen time (Table I).
func (s *EventSet) MarkStolen() {
	for e := s.head; e != nil; e = e.next {
		e.Stolen = true
	}
}

// Drain removes and returns events one at a time (FIFO).
func (s *EventSet) Drain() *Event {
	e := s.head
	if e == nil {
		return nil
	}
	s.head = e.next
	if s.head == nil {
		s.tail = nil
	} else {
		s.head.prev = nil
	}
	e.next = nil
	s.count--
	s.cost -= e.Cost
	return e
}

func (s *EventSet) pushBack(e *Event) {
	e.next = nil
	e.prev = s.tail
	if s.tail != nil {
		s.tail.next = e
	} else {
		s.head = e
	}
	s.tail = e
	s.count++
	s.cost += e.Cost
}
