package equeue

// Chain is a FIFO of events linked through their own queue links and
// held by its tail alone: the tail's link closes the ring at the head,
// so a Chain is one word, and appending a whole Chain to another is O(1)
// whatever its length. It is how a batch is handed to a core without
// being filed (the runtime's per-core arrivals). An event sits in at
// most one Chain or queue: pushing it to a queue rewrites its links, so
// Pop it first. A Chain carries no lock.
type Chain struct{ tail *Event }

// Push appends e.
func (ch *Chain) Push(e *Event) {
	if ch.tail == nil {
		e.next = e
	} else {
		e.next = ch.tail.next
		ch.tail.next = e
	}
	ch.tail = e
}

// Pop removes and returns the oldest event, or nil.
func (ch *Chain) Pop() *Event {
	t := ch.tail
	if t == nil {
		return nil
	}
	e := t.next
	if e == t {
		ch.tail = nil
	} else {
		t.next = e.next
	}
	e.next = nil
	return e
}

// Splice appends src's events behind ch's, in order, and empties src.
func (ch *Chain) Splice(src *Chain) {
	s := src.tail
	if s == nil {
		return
	}
	if t := ch.tail; t != nil {
		t.next, s.next = s.next, t.next
	}
	ch.tail = s
	src.tail = nil
}

// Front returns the oldest event without removing it, or nil.
func (ch *Chain) Front() *Event {
	if ch.tail == nil {
		return nil
	}
	return ch.tail.next
}

// Next returns the event behind e in the chain, or nil after the last.
func (ch *Chain) Next(e *Event) *Event {
	if e == ch.tail {
		return nil
	}
	return e.next
}
