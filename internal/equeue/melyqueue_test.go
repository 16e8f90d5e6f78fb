package equeue

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestColorQueueSize pins the ColorQueue at 104 bytes, which the
// allocator rounds to its 112-byte size class. Without sizePad it is 88
// bytes (size class 96), and events_chain ops_per_s read, in three
// alternating 12 s runs each on 2 vCPUs (PR 23, which found it):
//
//	parent, ColorQueue 104 B                 3.57 / 3.71 / 3.64 M
//	sizePad and CoreQueue's word gone, 88 B  3.26 / 3.41 / 3.33 M  (6 of 6 pairs below)
//	ColorQueue and CoreQueue padded back     3.68 / 3.59 / 3.67 M
//	only CoreQueue padded                    3.50 / 3.31 / 3.45 M  against 4.00 / 4.07 / 4.28 M
//	only ColorQueue padded                   3.83 / 3.73 / 4.26 M
//	as merged, sizePad taken out again       3.54 / 3.53 / 3.59 M  against 3.95 / 3.85 / 3.72 M
//
// so the ColorQueue's size is the input and sizePad holds it. 128 bytes
// and other sizes are untested; change the number only with pairs.
func TestColorQueueSize(t *testing.T) {
	if got := unsafe.Sizeof(ColorQueue{}); got != 104 {
		t.Fatalf("unsafe.Sizeof(ColorQueue{}) = %d, want 104 (see sizePad)", got)
	}
}

// pushNew pushes an event, creating the ColorQueue on demand like the
// platforms do via the ColorTable.
func pushNew(q *CoreQueue, table map[Color]*ColorQueue, e *Event) {
	cq := table[e.Color]
	if cq == nil {
		cq = q.NewColorQueue(e.Color)
		table[e.Color] = cq
	}
	q.Push(cq, e)
}

func TestCoreQueuePushPop(t *testing.T) {
	q := NewCoreQueue(100)
	table := map[Color]*ColorQueue{}
	pushNew(q, table, ev(1, 10))
	pushNew(q, table, ev(2, 20))
	pushNew(q, table, ev(1, 30))
	if q.Len() != 3 || q.Colors() != 2 {
		t.Fatalf("Len=%d Colors=%d, want 3,2", q.Len(), q.Colors())
	}
	// First color-queue first: both color-1 events before color 2
	// (batch threshold 10 not reached).
	e, emptied := q.PopNext()
	if e.Cost != 10 || emptied != nil {
		t.Fatalf("first pop: cost=%d emptied=%v", e.Cost, emptied)
	}
	e, emptied = q.PopNext()
	if e.Cost != 30 {
		t.Fatalf("second pop should drain color 1, got cost=%d", e.Cost)
	}
	if emptied == nil || emptied.Color() != 1 {
		t.Fatal("draining color 1 must report the emptied ColorQueue")
	}
	e, emptied = q.PopNext()
	if e.Cost != 20 || emptied == nil || emptied.Color() != 2 {
		t.Fatalf("third pop: cost=%d emptied=%v", e.Cost, emptied)
	}
	if e, _ := q.PopNext(); e != nil {
		t.Fatal("empty CoreQueue must pop nil")
	}
}

func TestCoreQueueBatchThresholdRotation(t *testing.T) {
	q := NewCoreQueue(100)
	q.BatchThreshold = 3
	table := map[Color]*ColorQueue{}
	for i := 0; i < 5; i++ {
		pushNew(q, table, ev(1, int64(i)))
	}
	pushNew(q, table, ev(2, 100))
	var order []int64
	for {
		e, _ := q.PopNext()
		if e == nil {
			break
		}
		order = append(order, e.Cost)
	}
	// 3 events of color 1, then color 2 (rotation), then the rest of 1.
	want := []int64{0, 1, 2, 100, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("drained %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v (batch threshold must rotate colors)", order, want)
		}
	}
}

func TestCoreQueueNoStarvationSingleColor(t *testing.T) {
	// With a single color the threshold must not block processing.
	q := NewCoreQueue(100)
	q.BatchThreshold = 2
	table := map[Color]*ColorQueue{}
	for i := 0; i < 7; i++ {
		pushNew(q, table, ev(1, int64(i)))
	}
	for i := 0; i < 7; i++ {
		e, _ := q.PopNext()
		if e == nil {
			t.Fatalf("pop %d returned nil", i)
		}
	}
}

func TestPushReportsLinking(t *testing.T) {
	q := NewCoreQueue(100)
	cq := q.NewColorQueue(4)
	if linked := q.Push(cq, ev(4, 1)); !linked {
		t.Error("first push of a color must link its ColorQueue")
	}
	if linked := q.Push(cq, ev(4, 1)); linked {
		t.Error("second push must not re-link")
	}
}

// stealBaseOne is StealBaseSet at the paper's budget of one color.
func stealBaseOne(q *CoreQueue, running Color, hasRunning bool) (cq *ColorQueue, inspected int) {
	set, inspected := q.StealBaseSet(running, hasRunning, 1, nil)
	if len(set) == 0 {
		return nil, inspected
	}
	return set[0], inspected
}

// stealWorthyOne is StealWorthySet at the paper's budget of one color.
func stealWorthyOne(q *CoreQueue, running Color, hasRunning bool) *ColorQueue {
	set := q.StealWorthySet(running, hasRunning, 1, nil)
	if len(set) == 0 {
		return nil
	}
	return set[0]
}

func TestStealBaseHalfRule(t *testing.T) {
	q := NewCoreQueue(100)
	table := map[Color]*ColorQueue{}
	for i := 0; i < 3; i++ {
		pushNew(q, table, ev(1, 1))
	}
	pushNew(q, table, ev(2, 1))
	// Color 1 holds 3 of 4 events: skip it; steal color 2.
	cq, inspected := stealBaseOne(q, 0, false)
	if cq == nil || cq.Color() != 2 {
		t.Fatalf("StealBase stole %v, want color 2", cq)
	}
	if inspected != 2 {
		t.Errorf("inspected = %d, want 2", inspected)
	}
	if q.Len() != 3 || q.Colors() != 1 {
		t.Errorf("victim after steal: len=%d colors=%d, want 3,1", q.Len(), q.Colors())
	}
}

func TestStealBaseSkipsRunningColor(t *testing.T) {
	q := NewCoreQueue(100)
	table := map[Color]*ColorQueue{}
	pushNew(q, table, ev(1, 1))
	pushNew(q, table, ev(2, 1))
	cq, _ := stealBaseOne(q, 1, true)
	if cq == nil || cq.Color() != 2 {
		t.Fatalf("StealBase must skip the running color, stole %v", cq)
	}
}

func TestStealWorthyPrefersHighestInterval(t *testing.T) {
	q := NewCoreQueue(100) // worthy above 100 cycles
	table := map[Color]*ColorQueue{}
	pushNew(q, table, ev(1, 150))  // interval 0 [100,400)
	pushNew(q, table, ev(2, 5000)) // interval 2 [1600,...)
	pushNew(q, table, ev(3, 600))  // interval 1 [400,1600)
	pushNew(q, table, ev(4, 50))   // not worthy
	cq := stealWorthyOne(q, 0, false)
	if cq == nil || cq.Color() != 2 {
		t.Fatalf("StealWorthy should take the highest interval (color 2), got %v", cq)
	}
	cq = stealWorthyOne(q, 0, false)
	if cq == nil || cq.Color() != 3 {
		t.Fatalf("next StealWorthy should take color 3, got %v", cq)
	}
	cq = stealWorthyOne(q, 0, false)
	if cq == nil || cq.Color() != 1 {
		t.Fatalf("next StealWorthy should take color 1, got %v", cq)
	}
	if cq = stealWorthyOne(q, 0, false); cq != nil {
		t.Fatalf("color 4 (cost 50 <= stealCost 100) must not be stolen, got %v", cq)
	}
}

func TestStealWorthySkipsRunning(t *testing.T) {
	q := NewCoreQueue(10)
	table := map[Color]*ColorQueue{}
	pushNew(q, table, ev(1, 500))
	if cq := stealWorthyOne(q, 1, true); cq != nil {
		t.Fatal("the running color must never be stolen")
	}
	pushNew(q, table, ev(2, 300))
	cq := stealWorthyOne(q, 1, true)
	if cq == nil || cq.Color() != 2 {
		t.Fatalf("StealWorthy = %v, want color 2", cq)
	}
}

func TestAdoptMigration(t *testing.T) {
	victim := NewCoreQueue(10)
	thief := NewCoreQueue(10)
	table := map[Color]*ColorQueue{}
	pushNew(victim, table, ev(1, 100))
	pushNew(victim, table, ev(1, 100))
	pushNew(victim, table, ev(2, 100))
	cq, _ := stealBaseOne(victim, 0, false)
	if cq == nil {
		t.Fatal("no steal candidate")
	}
	n := cq.Len()
	thief.Adopt(cq)
	if thief.Len() != n || thief.Colors() != 1 {
		t.Fatalf("thief len=%d colors=%d, want %d,1", thief.Len(), thief.Colors(), n)
	}
	if victim.Len()+thief.Len() != 3 {
		t.Fatal("steal must conserve events")
	}
	// The adopted queue must be stealable from the thief as well (mid-event:
	// an idle thief would keep its only color).
	if cq2 := stealWorthyOne(thief, 99, true); cq2 == nil {
		t.Fatal("adopted worthy ColorQueue must enter the thief's StealingQueue")
	}
}

func TestPenaltyWeightingInWorthiness(t *testing.T) {
	q := NewCoreQueue(100)
	table := map[Color]*ColorQueue{}
	e := ev(1, 100000)
	e.Penalty = 1000 // perceived cost 100 -> not worthy (<= stealCost)
	pushNew(q, table, e)
	if q.Stealing().Len() != 0 {
		t.Fatal("high-penalty color must look unworthy to thieves")
	}
	e2 := ev(2, 100000) // penalty 1 -> worthy
	pushNew(q, table, e2)
	if q.Stealing().Len() != 1 {
		t.Fatal("low-penalty expensive color must be worthy")
	}
	if cq := stealWorthyOne(q, 0, false); cq == nil || cq.Color() != 2 {
		t.Fatalf("StealWorthy must prefer the penalty-free color, got %v", cq)
	}
}

func TestStealingQueueIntervals(t *testing.T) {
	var s StealingQueue
	s.stealCost = 100
	tests := []struct {
		cum  int64
		want int
	}{
		{0, -1},
		{100, -1}, // not strictly above the steal cost
		{101, 0},
		{399, 0},
		{400, 1},
		{1599, 1},
		{1600, 2},
		{1 << 40, 2},
	}
	for _, tt := range tests {
		if got := s.Interval(tt.cum); got != tt.want {
			t.Errorf("Interval(%d) = %d, want %d", tt.cum, got, tt.want)
		}
	}
}

func TestStealingQueueReclassifyOnDrain(t *testing.T) {
	q := NewCoreQueue(100)
	table := map[Color]*ColorQueue{}
	for i := 0; i < 10; i++ {
		pushNew(q, table, ev(1, 200)) // cum 2000 -> interval 2
	}
	if q.Stealing().Len() != 1 {
		t.Fatal("color must be worthy")
	}
	// Drain until the color becomes unworthy.
	for i := 0; i < 10; i++ {
		q.PopNext()
	}
	if q.Stealing().Len() != 0 {
		t.Fatal("drained color must leave the StealingQueue")
	}
}

func TestReleaseColorQueuePanicsOnLive(t *testing.T) {
	q := NewCoreQueue(100)
	cq := q.NewColorQueue(1)
	q.Push(cq, ev(1, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("releasing a linked ColorQueue must panic")
		}
	}()
	q.ReleaseColorQueue(cq)
}

// TestCoreQueueConservation: random pushes, pops, and steals conserve
// events between a victim and a thief and never corrupt counters.
func TestCoreQueueConservation(t *testing.T) {
	f := func(seed int64, ops []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		victim := NewCoreQueue(50)
		thief := NewCoreQueue(50)
		vTable := map[Color]*ColorQueue{}
		tTable := map[Color]*ColorQueue{}
		total := 0
		for _, op := range ops {
			switch op % 4 {
			case 0:
				c := Color(rng.Intn(6))
				cq := vTable[c]
				if cq == nil || !cq.inCore {
					cq = victim.NewColorQueue(c)
					vTable[c] = cq
				}
				victim.Push(cq, ev(c, int64(rng.Intn(200))))
				total++
			case 1:
				if e, emptied := victim.PopNext(); e != nil {
					total--
					if emptied != nil {
						delete(vTable, emptied.Color())
					}
				}
			case 2:
				if cq, _ := stealBaseOne(victim, 0, false); cq != nil {
					delete(vTable, cq.Color())
					if old, dup := tTable[cq.Color()]; dup && old.inCore {
						// Merge: a color can only live in one place;
						// the harness prevents this in real use via
						// the ColorTable, so just drain into old.
						for e := cq.Drain(); e != nil; e = cq.Drain() {
							thief.Push(old, e)
							total++ // Push counts it again below
							total--
						}
					} else {
						thief.Adopt(cq)
						tTable[cq.Color()] = cq
					}
				}
			case 3:
				if e, emptied := thief.PopNext(); e != nil {
					total--
					if emptied != nil {
						delete(tTable, emptied.Color())
					}
				}
			}
			if victim.Len()+thief.Len() != total {
				return false
			}
			if victim.Len() < 0 || thief.Len() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestColorTableOwnership(t *testing.T) {
	tab := NewColorTable(8)
	if got := tab.Owner(11); got != tab.Hash(11) {
		t.Errorf("default owner of color 11 on 8 cores = %d, want hash home %d", got, tab.Hash(11))
	}
	tab.SetOwner(11, 6)
	if got := tab.Owner(11); got != 6 {
		t.Errorf("after SetOwner, Owner = %d, want 6", got)
	}
	if tab.Queue(11) != nil {
		t.Error("queue pointer should start nil")
	}
	cq := &ColorQueue{color: 11}
	tab.SetQueue(11, cq)
	if tab.Queue(11) != cq {
		t.Error("SetQueue/Queue round trip failed")
	}
	if tab.NumCores() != 8 {
		t.Errorf("NumCores = %d, want 8", tab.NumCores())
	}
}

func TestMergeFront(t *testing.T) {
	victim := NewCoreQueue(10)
	thief := NewCoreQueue(10)
	vTable := map[Color]*ColorQueue{}
	// Victim holds two balanced colors so color 7 (first) is stealable.
	pushNew(victim, vTable, ev(7, 100))
	pushNew(victim, vTable, ev(7, 200))
	pushNew(victim, vTable, ev(8, 50))
	pushNew(victim, vTable, ev(8, 60))
	stolen, _ := stealBaseOne(victim, 0, false)
	if stolen == nil || stolen.Color() != 7 {
		t.Fatalf("expected to steal color 7, got %v", stolen)
	}

	// Meanwhile a poster created a fresh queue for color 7 on the thief.
	fresh := thief.NewColorQueue(7)
	thief.Push(fresh, ev(7, 300))

	thief.MergeFront(fresh, stolen)
	if thief.Len() != 3 {
		t.Fatalf("thief len = %d, want 3", thief.Len())
	}
	if fresh.CumCost() != 600 {
		t.Errorf("merged cumCost = %d, want 600", fresh.CumCost())
	}
	// Stolen (older) events drain first.
	want := []int64{100, 200, 300}
	for i, w := range want {
		e, _ := thief.PopNext()
		if e == nil || e.Cost != w {
			t.Fatalf("pop %d = %v, want cost %d", i, e, w)
		}
	}
	// The drained source can be released.
	thief.ReleaseColorQueue(stolen)
}

func TestMergeFrontIntoEmptyDst(t *testing.T) {
	victim := NewCoreQueue(10)
	thief := NewCoreQueue(10)
	vTable := map[Color]*ColorQueue{}
	pushNew(victim, vTable, ev(3, 10))
	pushNew(victim, vTable, ev(4, 20))
	stolen, _ := stealBaseOne(victim, 0, false)

	dst := thief.NewColorQueue(stolen.Color())
	thief.Push(dst, ev(stolen.Color(), 5))
	// Drain dst so it is linked but empty... popping unlinks it, so
	// instead merge into a dst that still has its event, then pop all.
	thief.MergeFront(dst, stolen)
	if dst.Len() != 2 {
		t.Fatalf("dst len = %d, want 2", dst.Len())
	}
	first, _ := thief.PopNext()
	if first.Cost != 10 {
		t.Fatalf("stolen event must come first, got %d", first.Cost)
	}
}

func TestMergeFrontPanics(t *testing.T) {
	q := NewCoreQueue(10)
	a := q.NewColorQueue(1)
	q.Push(a, ev(1, 5))
	b := q.NewColorQueue(2)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("color mismatch must panic")
			}
		}()
		q.MergeFront(a, b)
	}()
}

func TestStealingQueueConfigurableIntervals(t *testing.T) {
	var s StealingQueue
	s.stealCost = 100
	s.SetIntervals(1)
	if got := s.Interval(1 << 30); got != 0 {
		t.Errorf("one-interval queue must classify everything worthy as 0, got %d", got)
	}
	if got := s.Interval(50); got != -1 {
		t.Errorf("unworthy stays -1, got %d", got)
	}
	s.SetIntervals(8)
	if got := s.Interval(101); got != 0 {
		t.Errorf("lowest band = %d, want 0", got)
	}
	if got := s.Interval(1 << 40); got != 7 {
		t.Errorf("top band = %d, want 7", got)
	}
	// Clamping.
	s.SetIntervals(0)
	if got := s.Interval(1 << 40); got != 0 {
		t.Errorf("clamped-to-1 top band = %d, want 0", got)
	}
	s.SetIntervals(99)
	if got := s.Interval(1 << 40); got != MaxStealIntervals-1 {
		t.Errorf("clamped-to-max top band = %d, want %d", got, MaxStealIntervals-1)
	}
}

func TestEstOverridesWorthinessAccounting(t *testing.T) {
	q := NewCoreQueue(100)
	cq := q.NewColorQueue(1)
	e := ev(1, 1_000_000) // expensive in truth...
	e.Est = 10            // ...but profiled cheap
	q.Push(cq, e)
	if q.Stealing().Len() != 0 {
		t.Fatal("worthiness must follow the estimate, not the true cost")
	}
}
