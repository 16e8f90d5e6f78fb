package sim

import "container/heap"

// The timer facility models the world outside the runtime — network
// arrivals, client think times — as events that become visible to the
// event loop at a future virtual time. Delivery bypasses the queue locks
// (it stands for kernel-side readiness, picked up by an Epoll-style
// handler whose execution cost is modeled by the handler itself).

type timerItem struct {
	due int64
	seq uint64
	ev  Ev
}

type timerHeap []timerItem

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].due != h[j].due {
		return h[i].due < h[j].due
	}
	return h[i].seq < h[j].seq // FIFO among equal deadlines: determinism
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(timerItem)) }
func (h *timerHeap) Pop() (popped any) {
	old := *h
	n := len(old)
	popped = old[n-1]
	*h = old[:n-1]
	return popped
}

// PostAfter schedules ev to be delivered to the owner of its color after
// delay cycles of virtual time. Use it for everything that happens
// outside the runtime: a client's next request, a network round trip.
func (ctx *Ctx) PostAfter(delay int64, ev Ev) {
	ctx.eng.postAfter(ctx.core.clock+delay, ev)
}

func (e *Engine) postAfter(due int64, ev Ev) {
	heap.Push(&e.timers, timerItem{due: due, seq: e.timerSeq, ev: ev})
	e.timerSeq++
}

// TimersPending reports the number of undelivered timers.
func (e *Engine) TimersPending() int { return e.timers.Len() }

// deliverDue injects every timer whose deadline has been reached by the
// global time front (the minimum core clock).
func (e *Engine) deliverDue() {
	if e.timers.Len() == 0 {
		return
	}
	front := e.cores[0].clock
	for _, c := range e.cores[1:] {
		if c.clock < front {
			front = c.clock
		}
	}
	for e.timers.Len() > 0 && e.timers[0].due <= front {
		item := heap.Pop(&e.timers).(timerItem)
		e.inject(item.ev)
	}
}

// inject enqueues an event from outside the runtime (no lock cost: this
// is the kernel's side of the fence; the dispatching handler pays the
// runtime-side cost when it runs).
func (e *Engine) inject(ev Ev) {
	event := e.newEvent(ev)
	owner := e.table.Owner(ev.Color)
	target := e.cores[owner]
	target.Push(target.QueueFor(e.table, ev.Color), event)
	e.pending++
	e.queueLen[owner] = target.Len()
	target.idle = false
}

// fastForward advances every core to the next timer deadline (bounded by
// the horizon) when the whole machine is idle waiting for outside input.
func (e *Engine) fastForward(horizon int64) {
	if e.timers.Len() == 0 {
		return
	}
	next := e.timers[0].due
	if next > horizon {
		next = horizon
	}
	for _, c := range e.cores {
		if c.clock < next {
			c.stats.IdleCycles += next - c.clock
			c.clock = next
		}
		// Nothing is queued or executing: a worker's pop would have
		// found its queue empty and ended the run.
		c.StopRunning(e.table, c.id)
	}
	e.deliverDue()
}
