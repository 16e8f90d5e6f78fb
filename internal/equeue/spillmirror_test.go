package equeue

import "testing"

// TestSpillBacklogWorthiness: a color whose in-memory head is tiny but
// whose spilled tail is huge must classify as worthy in the
// StealingQueue — the "victim with spilled tails is not misread as
// empty" half of the overload design.
func TestSpillBacklogWorthiness(t *testing.T) {
	q := NewCoreQueue(1000) // steal cost threshold: 1000
	cq := q.NewColorQueue(7)
	q.Push(cq, &Event{Color: 7, Cost: 10}) // cumCost 10: not worthy
	if q.Stealing().Len() != 0 {
		t.Fatalf("cheap color must not be worthy yet")
	}
	q.SetSpillBacklog(cq, 500, 50_000) // fat tail on disk
	if q.Stealing().Len() != 1 {
		t.Fatalf("spill backlog must make the color worthy")
	}
	if got := cq.CumCost(); got != 50_010 {
		t.Fatalf("CumCost = %d, want 50010 (memory + spilled)", got)
	}
	if n, cost := cq.SpillBacklog(); n != 500 || cost != 50_000 {
		t.Fatalf("SpillBacklog = (%d, %d), want (500, 50000)", n, cost)
	}

	// Clearing the mirror declassifies again.
	q.SetSpillBacklog(cq, 0, 0)
	if q.Stealing().Len() != 0 {
		t.Fatalf("cleared backlog must declassify the color")
	}
}

// TestSpillBacklogTravelsOnSteal: the mirror rides the ColorQueue
// through detach/adopt (the steal protocol's migration unit) and
// through MergeFront.
func TestSpillBacklogTravelsOnSteal(t *testing.T) {
	victim := NewCoreQueue(100)
	cq := victim.NewColorQueue(5)
	victim.Push(cq, &Event{Color: 5, Cost: 10})
	victim.SetSpillBacklog(cq, 64, 6400)

	stolen := stealWorthyOne(victim, 99, true) // mid-event: an idle victim keeps its last color
	if stolen != cq {
		t.Fatalf("expected the spill-backed color to be stolen")
	}
	thief := NewCoreQueue(100)
	thief.Adopt(stolen)
	if n, cost := stolen.SpillBacklog(); n != 64 || cost != 6400 {
		t.Fatalf("mirror lost in migration: (%d, %d)", n, cost)
	}
	if thief.Stealing().Len() != 1 {
		t.Fatalf("adopted spill-backed color must stay worthy on the thief")
	}

	// MergeFront folds the mirror of an in-transit duplicate.
	dup := thief.NewColorQueue(5)
	dup.pushBack(&Event{Color: 5, Cost: 1})
	dup.spilled, dup.spilledCost = 6, 600
	thief.detach(stolen)
	thief.Adopt(dup)
	thief.MergeFront(dup, stolen)
	if n, cost := dup.SpillBacklog(); n != 70 || cost != 7000 {
		t.Fatalf("MergeFront mirror = (%d, %d), want (70, 7000)", n, cost)
	}
	if n, cost := stolen.SpillBacklog(); n != 0 || cost != 0 {
		t.Fatalf("merge source mirror must zero, got (%d, %d)", n, cost)
	}
}

// TestListQueueSpillWeighting: the base steal choice weighs colors by
// effective size (memory + spilled tail), so a color that spilled its
// bulk is not handed to a thief as if it were trivial.
func TestListQueueSpillWeighting(t *testing.T) {
	q := NewListQueue()
	// Color 1: 3 in memory + 100 spilled. Color 2: 2 in memory.
	for i := 0; i < 3; i++ {
		q.PushBack(&Event{Color: 1, Cost: 1})
	}
	for i := 0; i < 2; i++ {
		q.PushBack(&Event{Color: 2, Cost: 1})
	}

	// Without spill accounting color 1 (3 of 5 events > half) is
	// skipped and color 2 chosen — the pre-spill behavior.
	c, ok, _ := chooseOne(q, 0, false)
	if !ok || c != 2 {
		t.Fatalf("pre-spill choice = (%v, %v), want color 2", c, ok)
	}

	q.SetSpillBacklog(1, 100)
	if q.SpillBacklog(1) != 100 {
		t.Fatalf("SpillBacklog not recorded")
	}
	// Effective: color 1 holds 103 of 105 (> half, skipped), color 2
	// holds 2 — still color 2, but now for the effective-size reason;
	// and with color 2 gone, color 1 must still be refusable.
	c, ok, _ = chooseOne(q, 0, false)
	if !ok || c != 2 {
		t.Fatalf("spill-weighted choice = (%v, %v), want color 2", c, ok)
	}

	// Move the backlog to color 2: now color 2 is the giant (2+100 of
	// 105 > half) and color 1's effective share (3 of 105) makes it
	// stealable in queue order.
	q.SetSpillBacklog(1, 0)
	q.SetSpillBacklog(2, 100)
	c, ok, _ = chooseOne(q, 0, false)
	if !ok || c != 1 {
		t.Fatalf("rebalanced choice = (%v, %v), want color 1", c, ok)
	}

	// Batch form agrees: only color 1 qualifies.
	colors, _ := q.ChooseColorsToSteal(0, false, 4, nil)
	if len(colors) != 1 || colors[0] != 1 {
		t.Fatalf("batch choice = %v, want [1]", colors)
	}

	// Clearing restores the nil-map fast path invariants.
	q.SetSpillBacklog(2, 0)
	if q.spilledTotal != 0 || len(q.spilled) != 0 {
		t.Fatalf("cleared mirror must leave no residue: total=%d map=%v", q.spilledTotal, q.spilled)
	}
}

// TestSpillBacklogTotalAggregate: the per-core SpillBacklogTotal must
// track the summed mirror of the LINKED colors through every mutation a
// backlog can ride along — set/clear, unlink on empty, steal
// detach/adopt, and MergeFront — so the runtime can publish a victim's
// whole disk tail in O(1) for steal ranking.
func TestSpillBacklogTotalAggregate(t *testing.T) {
	q := NewCoreQueue(1000)
	if q.SpillBacklogTotal() != 0 {
		t.Fatalf("fresh queue total = %d, want 0", q.SpillBacklogTotal())
	}

	// Color 2 first: it sits at the CoreQueue head, so the pop-to-unlink
	// step below empties it while color 1 (the fat mirror) stays linked.
	b := q.NewColorQueue(2)
	q.Push(b, &Event{Color: 2, Cost: 10})
	a := q.NewColorQueue(1)
	q.Push(a, &Event{Color: 1, Cost: 10})

	q.SetSpillBacklog(a, 500, 50_000)
	q.SetSpillBacklog(b, 30, 3_000)
	if got := q.SpillBacklogTotal(); got != 530 {
		t.Fatalf("total after set = %d, want 530", got)
	}
	q.SetSpillBacklog(b, 40, 4_000) // re-set replaces, not adds
	if got := q.SpillBacklogTotal(); got != 540 {
		t.Fatalf("total after re-set = %d, want 540", got)
	}

	// Popping color 2 empty unlinks it: its mirror leaves the total.
	ev, emptied := q.PopNext()
	if ev == nil || emptied == nil || emptied.Color() != 2 {
		t.Fatalf("PopNext = (%v, %v), want color 2 emptied", ev, emptied)
	}
	if got := q.SpillBacklogTotal(); got != 500 {
		t.Fatalf("total after unlink = %d, want 500", got)
	}

	// A mirror set while the color is unlinked is deferred until relink.
	q.SetSpillBacklog(b, 25, 2_500)
	if got := q.SpillBacklogTotal(); got != 500 {
		t.Fatalf("unlinked set must not count, total = %d", got)
	}
	q.Push(b, &Event{Color: 2, Cost: 10})
	if got := q.SpillBacklogTotal(); got != 525 {
		t.Fatalf("total after relink = %d, want 525", got)
	}

	// The backlog travels on a steal: the victim's total drops, the
	// thief's rises by the stolen color's mirror.
	stolen := stealWorthyOne(q, 0, false)
	if stolen != a {
		t.Fatalf("stole %v, want color 1's queue", stolen)
	}
	if got := q.SpillBacklogTotal(); got != 25 {
		t.Fatalf("victim total after steal = %d, want 25", got)
	}
	thief := NewCoreQueue(1000)
	thief.Adopt(stolen)
	if got := thief.SpillBacklogTotal(); got != 500 {
		t.Fatalf("thief total after adopt = %d, want 500", got)
	}

	// MergeFront folds a detached duplicate's mirror into the total.
	dup := thief.NewColorQueue(1)
	thief.Push(dup, &Event{Color: 1, Cost: 10})
	thief.detach(stolen)
	q2 := thief.SpillBacklogTotal()
	if q2 != 0 {
		t.Fatalf("thief total after detach = %d, want 0", q2)
	}
	thief.MergeFront(dup, stolen)
	if got := thief.SpillBacklogTotal(); got != 500 {
		t.Fatalf("thief total after merge = %d, want 500", got)
	}

	// Clearing zeroes without residue.
	thief.SetSpillBacklog(dup, 0, 0)
	if got := thief.SpillBacklogTotal(); got != 0 {
		t.Fatalf("cleared total = %d, want 0", got)
	}
}

// TestListQueueSpillBacklogTotal: the list layout's aggregate follows
// the per-color mirror map.
func TestListQueueSpillBacklogTotal(t *testing.T) {
	q := NewListQueue()
	if q.SpillBacklogTotal() != 0 {
		t.Fatalf("fresh total = %d, want 0", q.SpillBacklogTotal())
	}
	q.SetSpillBacklog(1, 100)
	q.SetSpillBacklog(2, 50)
	if got := q.SpillBacklogTotal(); got != 150 {
		t.Fatalf("total = %d, want 150", got)
	}
	q.SetSpillBacklog(1, 10) // replace
	if got := q.SpillBacklogTotal(); got != 60 {
		t.Fatalf("total after re-set = %d, want 60", got)
	}
	q.SetSpillBacklog(1, 0)
	q.SetSpillBacklog(2, 0)
	if got := q.SpillBacklogTotal(); got != 0 {
		t.Fatalf("cleared total = %d, want 0", got)
	}
}
