package equeue

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func ev(c Color, cost int64) *Event {
	return &Event{Color: c, Cost: cost, Penalty: 1}
}

func TestListQueueFIFO(t *testing.T) {
	q := NewListQueue()
	for i := int64(0); i < 10; i++ {
		q.PushBack(ev(Color(i%3), i))
	}
	if got := q.Len(); got != 10 {
		t.Fatalf("Len = %d, want 10", got)
	}
	for i := int64(0); i < 10; i++ {
		e := q.PopFront()
		if e == nil {
			t.Fatalf("PopFront returned nil at %d", i)
		}
		if e.Cost != i {
			t.Fatalf("PopFront order: got cost %d, want %d", e.Cost, i)
		}
	}
	if q.PopFront() != nil {
		t.Fatal("PopFront on empty queue should return nil")
	}
	if q.Len() != 0 || q.DistinctColors() != 0 {
		t.Fatalf("empty queue has Len=%d colors=%d", q.Len(), q.DistinctColors())
	}
}

func TestListQueuePendingCounts(t *testing.T) {
	q := NewListQueue()
	q.PushBack(ev(1, 10))
	q.PushBack(ev(2, 10))
	q.PushBack(ev(1, 10))
	if got := q.Pending(1); got != 2 {
		t.Errorf("Pending(1) = %d, want 2", got)
	}
	if got := q.Pending(2); got != 1 {
		t.Errorf("Pending(2) = %d, want 1", got)
	}
	if got := q.DistinctColors(); got != 2 {
		t.Errorf("DistinctColors = %d, want 2", got)
	}
	q.PopFront() // removes a color-1 event
	if got := q.Pending(1); got != 1 {
		t.Errorf("after pop, Pending(1) = %d, want 1", got)
	}
}

// chooseOne is choose_colors_to_steal at the paper's budget of one color.
func chooseOne(q *ListQueue, running Color, hasRunning bool) (c Color, ok bool, scanned int) {
	colors, scanned := q.ChooseColorsToSteal(running, hasRunning, 1, nil)
	if len(colors) == 0 {
		return 0, false, scanned
	}
	return colors[0], true, scanned
}

// extractOne is construct_event_set for a single color.
func extractOne(q *ListQueue, c Color) (EventSet, int) {
	sets, scanned := q.ExtractColorSet([]Color{c}, nil)
	return sets[0], scanned
}

func TestChooseColorToStealSkipsRunning(t *testing.T) {
	q := NewListQueue()
	q.PushBack(ev(7, 1))
	q.PushBack(ev(8, 1))
	q.PushBack(ev(7, 1))
	q.PushBack(ev(8, 1))
	c, ok, scanned := chooseOne(q, 7, true)
	if !ok || c != 8 {
		t.Fatalf("choice = (%d,%v), want (8,true)", c, ok)
	}
	if scanned != 4 {
		t.Errorf("scanned = %d, want 4 (choose tallies the whole queue)", scanned)
	}
}

func TestChooseColorToStealHalfRule(t *testing.T) {
	// Color 3 holds 3 of 4 events (> half): not eligible. Color 4 is.
	q := NewListQueue()
	q.PushBack(ev(3, 1))
	q.PushBack(ev(3, 1))
	q.PushBack(ev(3, 1))
	q.PushBack(ev(4, 1))
	c, ok, _ := chooseOne(q, 0, false)
	if !ok || c != 4 {
		t.Fatalf("choice = (%d,%v), want (4,true)", c, ok)
	}
}

func TestChooseColorToStealNoCandidate(t *testing.T) {
	q := NewListQueue()
	q.PushBack(ev(3, 1))
	q.PushBack(ev(3, 1))
	q.PushBack(ev(3, 1))
	if _, ok, _ := chooseOne(q, 3, true); ok {
		t.Fatal("only the running color is queued; no candidate expected")
	}
}

func TestChooseColorToStealSingleEvent(t *testing.T) {
	// A single event is 100% of the queue but must still be stealable
	// when its color is not running.
	q := NewListQueue()
	q.PushBack(ev(9, 1))
	c, ok, _ := chooseOne(q, 1, true)
	if !ok || c != 9 {
		t.Fatalf("single-event steal = (%d,%v), want (9,true)", c, ok)
	}
}

func TestExtractColorPreservesOrderAndStopsEarly(t *testing.T) {
	q := NewListQueue()
	// Layout: 5a 6 5b 6 6 -> extracting 5 scans 3 links (stops after 5b).
	a, b := ev(5, 1), ev(5, 2)
	q.PushBack(a)
	q.PushBack(ev(6, 0))
	q.PushBack(b)
	q.PushBack(ev(6, 0))
	q.PushBack(ev(6, 0))
	set, scanned := extractOne(q, 5)
	if set.Len() != 2 {
		t.Fatalf("set.Len = %d, want 2", set.Len())
	}
	if scanned != 3 {
		t.Errorf("scanned = %d, want 3 (pending counter stops the scan)", scanned)
	}
	if first := set.Drain(); first != a {
		t.Error("extracted set must preserve FIFO order")
	}
	if second := set.Drain(); second != b {
		t.Error("extracted set lost second event")
	}
	if q.Len() != 3 || q.Pending(5) != 0 || q.Pending(6) != 3 {
		t.Errorf("victim queue state: len=%d p5=%d p6=%d", q.Len(), q.Pending(5), q.Pending(6))
	}
}

func TestExtractColorFullScanWhenLast(t *testing.T) {
	q := NewListQueue()
	q.PushBack(ev(6, 0))
	q.PushBack(ev(6, 0))
	q.PushBack(ev(5, 1))
	_, scanned := extractOne(q, 5)
	if scanned != 3 {
		t.Errorf("scanned = %d, want 3 (color at tail forces full scan)", scanned)
	}
}

func TestAppendSetMigration(t *testing.T) {
	victim, thief := NewListQueue(), NewListQueue()
	for i := 0; i < 4; i++ {
		victim.PushBack(ev(1, int64(i)))
		victim.PushBack(ev(2, int64(i)))
	}
	set, _ := extractOne(victim, 2)
	set.MarkStolen()
	thief.AppendSet(set)
	if thief.Len() != 4 || thief.Pending(2) != 4 {
		t.Fatalf("thief len=%d pending(2)=%d, want 4,4", thief.Len(), thief.Pending(2))
	}
	for i := int64(0); i < 4; i++ {
		e := thief.PopFront()
		if e.Cost != i || !e.Stolen {
			t.Fatalf("migrated event %d: cost=%d stolen=%v", i, e.Cost, e.Stolen)
		}
	}
	if victim.Len() != 4 || victim.Pending(1) != 4 {
		t.Fatalf("victim should keep its 4 color-1 events, len=%d", victim.Len())
	}
}

func TestEventSetCost(t *testing.T) {
	q := NewListQueue()
	q.PushBack(ev(1, 100))
	q.PushBack(ev(1, 200))
	set, _ := extractOne(q, 1)
	if set.Cost() != 300 {
		t.Errorf("set.Cost = %d, want 300", set.Cost())
	}
	set.Drain()
	if set.Cost() != 200 {
		t.Errorf("after drain, set.Cost = %d, want 200", set.Cost())
	}
}

// TestListQueueConservation is a property test: any random sequence of
// pushes, pops and color extractions conserves events and keeps the
// per-color counters consistent.
func TestListQueueConservation(t *testing.T) {
	f := func(seed int64, ops []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		q := NewListQueue()
		inQueue := 0
		perColor := map[Color]int{}
		for _, op := range ops {
			switch op % 3 {
			case 0: // push
				c := Color(rng.Intn(5))
				q.PushBack(ev(c, int64(rng.Intn(100))))
				inQueue++
				perColor[c]++
			case 1: // pop
				if e := q.PopFront(); e != nil {
					inQueue--
					perColor[e.Color]--
				}
			case 2: // extract a color
				c := Color(rng.Intn(5))
				set, _ := extractOne(q, c)
				if set.Len() != perColor[c] {
					return false
				}
				inQueue -= set.Len()
				perColor[c] = 0
			}
			if q.Len() != inQueue {
				return false
			}
			for c, n := range perColor {
				if q.Pending(c) != n {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPoolReuse(t *testing.T) {
	var p Pool
	e1 := p.Get()
	e1.Color = 9
	e1.Data = "payload"
	p.Put(e1)
	if p.Len() != 1 {
		t.Fatalf("pool len = %d, want 1", p.Len())
	}
	e2 := p.Get()
	if e2 != e1 {
		t.Fatal("pool should reuse the freed event")
	}
	if e2.Color != 0 || e2.Data != nil || e2.Stolen {
		t.Fatal("pooled event must be zeroed on Get")
	}
	if p.Get() == e2 {
		t.Fatal("second Get must allocate a fresh event")
	}
}

func TestWeightedCost(t *testing.T) {
	tests := []struct {
		cost    int64
		penalty int32
		want    int64
	}{
		{1000, 0, 1000},
		{1000, 1, 1000},
		{1000, 10, 100},
		{1000, 1000, 1},
		{5, 1000, 1}, // floors at 1 so worthiness accounting stays sane
	}
	for _, tt := range tests {
		e := &Event{Cost: tt.cost, Penalty: tt.penalty}
		if got := e.WeightedCost(); got != tt.want {
			t.Errorf("WeightedCost(cost=%d, penalty=%d) = %d, want %d",
				tt.cost, tt.penalty, got, tt.want)
		}
	}
}
