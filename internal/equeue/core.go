package equeue

// Core is one core's scheduling state: its event queue in one of the two
// layouts plus the color it is executing. It is the only place that knows
// which layout a core runs: the simulator's core and the runtime's both
// embed it, and whatever must work on either layout (delivery, the victim
// screen, the steal transaction) goes through its methods. It also holds
// the lease rule (StopRunning), so both platforms end a lease alike. Code
// that exists on one layout only — the runtime's private run — takes the
// CoreQueue from Mely. A Core carries no lock; the platform guards it.
type Core struct {
	// Exactly one of list/mely is non-nil.
	list *ListQueue
	mely *CoreQueue

	// running is the color being executed, which no thief may take.
	running    Color
	hasRunning bool
}

// NewCore returns an empty core: the Libasync-smp list when list is set,
// else a Mely CoreQueue classifying colors against stealCost and batching
// batchThreshold events per color (zero means DefaultBatchThreshold).
func NewCore(list bool, stealCost int64, batchThreshold int) Core {
	if list {
		return Core{list: NewListQueue()}
	}
	m := NewCoreQueue(stealCost)
	m.BatchThreshold = batchThreshold
	return Core{mely: m}
}

// Mely returns the core's CoreQueue, nil on the list layout.
func (q *Core) Mely() *CoreQueue { return q.mely }

// Len reports the number of queued events.
func (q *Core) Len() int {
	if q.list != nil {
		return q.list.Len()
	}
	return q.mely.Len()
}

// DistinctColors reports how many colors have events queued.
func (q *Core) DistinctColors() int {
	if q.list != nil {
		return q.list.DistinctColors()
	}
	return q.mely.Colors()
}

// HasColorOtherThan reports whether some queued color differs from c.
func (q *Core) HasColorOtherThan(c Color) bool {
	if q.DistinctColors() >= 2 {
		return true
	}
	if q.list != nil {
		first, ok := q.list.FirstColor()
		return ok && first != c
	}
	first, ok := q.mely.FirstColor()
	return ok && first != c
}

// HasWorthy reports whether the StealingQueue indexes a color other than
// the running one — the time-left half of can_be_stolen. Never on the list
// layout, which has no StealingQueue.
func (q *Core) HasWorthy() bool {
	return q.mely != nil && q.mely.steal.HasWorthy(q.running, q.hasRunning)
}

// WorthyColors reports how many colors the StealingQueue indexes: none on
// the list layout.
func (q *Core) WorthyColors() int {
	if q.mely == nil {
		return 0
	}
	return q.mely.steal.Len()
}

// RunningColor reports the color being executed, if any.
func (q *Core) RunningColor() (Color, bool) { return q.running, q.hasRunning }

// SetRunning records that the core executes an event of color c.
func (q *Core) SetRunning(c Color) { q.running, q.hasRunning = c, true }

// StopRunning records that core self, this one, no longer executes its
// running color, and applies the lease rule of the paper's color table:
// a color that ran here away from its hash home, with nothing of it left
// here, goes back home — its owner entry in t is erased, so an owner
// entry always names a live color or one in transit. ok reports that
// the lease ended, color and home which color went where. Called
// wherever a core stops running a color, under the core's lock, after
// any queue the run drained was untabled.
func (q *Core) StopRunning(t *ColorTable, self int) (color Color, home int, ok bool) {
	if !q.hasRunning {
		return 0, 0, false
	}
	q.hasRunning = false
	color = q.running
	home = t.Hash(color)
	if home == self || q.ColorLive(color, t.Queue(color)) {
		return color, home, false
	}
	t.SetOwner(color, home)
	return color, home, true
}

// ColorLive reports whether color c is running here or has events queued
// here. cq is c's tabled ColorQueue, nil when it has none — as always on
// the list layout, whose per-color counters answer instead.
func (q *Core) ColorLive(c Color, cq *ColorQueue) bool {
	if q.hasRunning && q.running == c {
		return true
	}
	if q.list != nil {
		return q.list.Pending(c) > 0
	}
	return cq != nil && cq.Len() > 0
}

// NewColorQueue returns an empty ColorQueue for color c from the core's
// pool; nil on the list layout, which has no per-color queues.
func (q *Core) NewColorQueue(c Color) *ColorQueue {
	if q.mely == nil {
		return nil
	}
	return q.mely.NewColorQueue(c)
}

// QueueFor returns the ColorQueue that events of color c are pushed to on
// this core — the one tabled in t, or a fresh one tabled now — and nil on
// the list layout. The caller has established that the core owns c.
func (q *Core) QueueFor(t *ColorTable, c Color) *ColorQueue {
	if q.mely == nil {
		return nil
	}
	cq := t.Queue(c)
	if cq == nil {
		cq = q.mely.NewColorQueue(c)
		t.SetQueue(c, cq)
	}
	return cq
}

// Push appends e to the core's queue: on the Mely layout to cq, the
// ColorQueue of e's color (see QueueFor), reporting whether cq had to be
// linked; on the list layout to the list's tail, cq being nil.
func (q *Core) Push(cq *ColorQueue, e *Event) (linked bool) {
	if q.list != nil {
		q.list.PushBack(e)
		return false
	}
	return q.mely.Push(cq, e)
}

// PopNext removes and returns the next event to process (nil when empty)
// and, on the Mely layout, the ColorQueue the pop emptied and unlinked, if
// it did (see CoreQueue.PopNext).
func (q *Core) PopNext() (e *Event, emptied *ColorQueue) {
	if q.list != nil {
		return q.list.PopFront(), nil
	}
	return q.mely.PopNext()
}

// StealSet is what one steal transaction moves from a victim Core to the
// thief's: the chosen colors, each with all its queued events (the
// detached ColorQueue itself on the Mely layout, an extracted EventSet on
// the list layout). A thief reuses one.
type StealSet struct {
	// Colors are the stolen colors, in the order they were chosen.
	Colors []Color

	cqs  []*ColorQueue // Mely layout, by color
	sets []EventSet    // list layout, by color
}

// Queue returns the ColorQueue holding the events of Colors[i], for the
// thief to table; nil on the list layout.
func (s *StealSet) Queue(i int) *ColorQueue {
	if s.cqs == nil {
		return nil
	}
	return s.cqs[i]
}

// StealWork counts what one Detach did, in the units the simulator prices:
// list links walked (choose pass plus extraction), ColorQueues inspected by
// the choice, ColorQueues unlinked.
type StealWork struct{ Scanned, Inspected, Unlinked int }

// Detach is choose_colors_to_steal plus construct_event_set of Figure 2,
// for a victim that passed can_be_stolen: it picks up to budget colors and
// removes them, with every queued event, into s (whose previous contents
// are dropped). worthy selects the time-left choice — the richest colors
// of the StealingQueue, Mely layout only — over the base one: colors in
// queue order, each holding at most half of the queued events. Either way
// the running color is never taken and an idle victim keeps one color.
// s.Colors is empty when nothing qualified.
func (q *Core) Detach(worthy bool, budget int, s *StealSet) (w StealWork) {
	s.Colors = s.Colors[:0]
	if q.list != nil {
		s.Colors, w.Scanned = q.list.ChooseColorsToSteal(q.running, q.hasRunning, budget, s.Colors)
		if len(s.Colors) == 0 {
			return w
		}
		var scanned int
		s.sets, scanned = q.list.ExtractColorSet(s.Colors, s.sets)
		w.Scanned += scanned
		return w
	}
	if worthy {
		s.cqs = q.mely.StealWorthySet(q.running, q.hasRunning, budget, s.cqs)
		// The StealingQueue is interval-indexed: one lookup per color
		// taken, one for a probe that came back empty.
		w.Inspected = max(len(s.cqs), 1)
	} else {
		s.cqs, w.Inspected = q.mely.StealBaseSet(q.running, q.hasRunning, budget, s.cqs)
	}
	w.Unlinked = len(s.cqs)
	for _, cq := range s.cqs {
		s.Colors = append(s.Colors, cq.color)
	}
	return w
}

// Adopt is migrate of Figure 2: it links everything a Detach on another
// Core put in s into this one, marking the events stolen, and reports how
// many ColorQueues it linked (none on the list layout). Tabling s.Queue(i)
// for each color is the platform's.
func (q *Core) Adopt(s *StealSet) (linked int) {
	if q.list != nil {
		for i := range s.Colors {
			s.sets[i].MarkStolen()
			q.list.AppendSet(s.sets[i])
		}
		return 0
	}
	for _, cq := range s.cqs {
		if cq != nil { // nil: merged, see MergeStolen
			cq.MarkStolen()
			q.mely.Adopt(cq)
			linked++
		}
	}
	return linked
}

// MergeStolen is the thief's recovery when it finds existing, a ColorQueue
// of s.Colors[i], tabled and linked on this core already — which keeping
// deliveries off a color in transit rules out. The stolen events, the older
// ones, are marked and spliced in front of existing's, and the color's queue
// leaves s: Adopt skips it, Queue(i) is nil. Mely layout only.
func (q *Core) MergeStolen(s *StealSet, i int, existing *ColorQueue) {
	cq := s.cqs[i]
	cq.MarkStolen()
	q.mely.MergeFront(existing, cq)
	q.mely.ReleaseColorQueue(cq)
	s.cqs[i] = nil
}
