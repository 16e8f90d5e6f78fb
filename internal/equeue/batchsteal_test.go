package equeue

import "testing"

// fill pushes one event of each color 1..n (cost above the worthiness
// threshold) into a fresh CoreQueue.
func fillCore(n int, stealCost int64) *CoreQueue {
	q := NewCoreQueue(stealCost)
	for c := 1; c <= n; c++ {
		cq := q.NewColorQueue(Color(c))
		q.Push(cq, &Event{Color: Color(c), Cost: 1_000_000, Penalty: 1})
	}
	return q
}

func TestCollectWorthyRichestFirst(t *testing.T) {
	q := NewCoreQueue(100)
	costs := map[Color]int64{1: 150, 2: 5_000, 3: 200_000}
	for c, cost := range map[Color]int64{1: costs[1], 2: costs[2], 3: costs[3]} {
		cq := q.NewColorQueue(c)
		q.Push(cq, &Event{Color: c, Cost: cost, Penalty: 1})
	}
	got := q.Stealing().CollectWorthy(0, false, 8, nil)
	if len(got) != 3 {
		t.Fatalf("collected %d worthy colors, want 3", len(got))
	}
	for i := 1; i < len(got); i++ {
		// Partial order: richer *intervals* first (within an interval
		// the queue is deliberately unordered, section IV-B).
		if q.Stealing().Interval(got[i-1].CumCost()) < q.Stealing().Interval(got[i].CumCost()) {
			t.Fatalf("collection not richest-interval-first: cost %d before %d",
				got[i-1].CumCost(), got[i].CumCost())
		}
	}
	// The running color is skipped wherever it sits.
	got = q.Stealing().CollectWorthy(3, true, 8, got[:0])
	for _, cq := range got {
		if cq.Color() == 3 {
			t.Fatal("collected the running color")
		}
	}
}

func TestStealWorthySetKeepsLastColor(t *testing.T) {
	q := fillCore(3, 100)
	set := q.StealWorthySet(0, false, 8, nil)
	if len(set) != 2 || q.Colors() != 1 {
		t.Fatalf("stole %d, victim keeps %d; want 2 stolen, 1 kept", len(set), q.Colors())
	}
	for _, cq := range set {
		if cq.Len() == 0 {
			t.Fatal("stolen ColorQueue is empty")
		}
	}
	// Event accounting moved with the set.
	if q.Len() != 1 {
		t.Fatalf("victim keeps %d events, want 1", q.Len())
	}

	// A mid-event victim may lose every queued color but the running one.
	q = fillCore(3, 100)
	set = q.StealWorthySet(2, true, 8, nil)
	if len(set) != 2 || q.Colors() != 1 {
		t.Fatalf("mid-event: stole %d, keeps %d; want 2 and 1 (the running color)", len(set), q.Colors())
	}
	if first, _ := q.FirstColor(); first != 2 {
		t.Fatalf("victim kept color %d, want the running color 2", first)
	}
}

func TestStealBaseSetHalfRule(t *testing.T) {
	q := NewCoreQueue(100)
	// Color 1 holds 6 of 8 events (over half, ineligible); colors 2 and
	// 3 hold one each.
	cq1 := q.NewColorQueue(1)
	for i := 0; i < 6; i++ {
		q.Push(cq1, &Event{Color: 1, Cost: 10, Penalty: 1})
	}
	for c := Color(2); c <= 3; c++ {
		cq := q.NewColorQueue(c)
		q.Push(cq, &Event{Color: c, Cost: 10, Penalty: 1})
	}
	set, inspected := q.StealBaseSet(0, false, 8, nil)
	if inspected != 3 {
		t.Fatalf("inspected %d ColorQueues, want 3", inspected)
	}
	if len(set) != 2 {
		t.Fatalf("stole %d colors, want 2 (the over-half color stays)", len(set))
	}
	for _, cq := range set {
		if cq.Color() == 1 {
			t.Fatal("stole a color holding more than half the events")
		}
	}
}

func TestListExtractColorSetOneScan(t *testing.T) {
	q := NewListQueue()
	// Interleave colors 1..4, five events each.
	for i := 0; i < 5; i++ {
		for c := Color(1); c <= 4; c++ {
			q.PushBack(&Event{Color: c, Cost: int64(10*i) + int64(c), Penalty: 1})
		}
	}
	colors := []Color{2, 4}
	sets, scanned := q.ExtractColorSet(colors, nil)
	if len(sets) != 2 {
		t.Fatalf("got %d sets, want 2", len(sets))
	}
	for i, set := range sets {
		if set.Len() != 5 {
			t.Fatalf("set %d has %d events, want 5", i, set.Len())
		}
		for e := set.Drain(); e != nil; e = set.Drain() {
			if e.Color != colors[i] {
				t.Fatalf("set %d holds color %d", i, e.Color)
			}
		}
	}
	if q.Len() != 10 {
		t.Fatalf("queue keeps %d events, want 10", q.Len())
	}
	if q.Pending(2) != 0 || q.Pending(4) != 0 {
		t.Fatal("extracted colors still pending")
	}
	// The single scan stops at the last extracted event (position 18 of
	// 20: color 4's fifth event), never re-walking per color.
	if scanned > 20 {
		t.Fatalf("scanned %d links for a 20-event queue", scanned)
	}
}

func TestBeginMigrationBatchPublishesAll(t *testing.T) {
	table := NewColorTable(4)
	marker := new(ColorQueue)
	// Construct colors sharing shards: collect by shard until some
	// shard has two, then include a loner — exercising the grouped
	// stripe pass.
	byShard := map[int][]Color{}
	var colors []Color
	for c := Color(1); len(colors) == 0 && c < 10_000; c++ {
		sh := table.ShardOf(c)
		byShard[sh] = append(byShard[sh], c)
		if len(byShard[sh]) == 3 {
			colors = byShard[sh]
		}
	}
	if len(colors) != 3 {
		t.Fatal("no shard-colliding colors found")
	}
	colors = append(colors, colors[0]+1) // almost surely another shard
	thief := 2
	table.BeginMigrationBatch(colors, thief, marker)
	for _, c := range colors {
		owner, cq := table.OwnerAndQueue(c)
		if owner != thief {
			t.Fatalf("color %d owned by %d, want thief %d", c, owner, thief)
		}
		if cq != marker {
			t.Fatalf("color %d queue is not the in-transit marker", c)
		}
	}
	// Adoption ends each color's transit; migrating back to the hash home
	// erases the deviation entries.
	for _, c := range colors {
		table.EndMigration(c, nil)
		table.SetOwner(c, table.Hash(c))
	}
	if table.AnyDeviated() {
		t.Fatal("deviation count leaked after re-homing")
	}

	// A color stolen back to its home has no owner entry while it is in
	// transit; the transit count alone keeps AnyDeviated true until the
	// thief adopts it.
	var home Color = 1
	for table.Hash(home) != thief {
		home++
	}
	table.SetOwner(home, 0) // leased away
	table.BeginMigrationBatch([]Color{home}, thief, marker)
	if owner, _ := table.OwnerAndQueue(home); owner != thief || !table.AnyDeviated() {
		t.Fatalf("in transit home: owner %d, AnyDeviated %v; want %d, true", owner, table.AnyDeviated(), thief)
	}
	table.EndMigration(home, nil)
	if table.AnyDeviated() {
		t.Fatal("AnyDeviated after the adoption of a color that went home")
	}
}
