package mely

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/melyruntime/mely/internal/equeue"
)

// The tests in this file defend the arrivals (rcore.arrivals): a PostBatch
// group spliced onto its owner unfiled, and filed by whoever takes the
// owner's lock next to decide anything per color. Each drives a runtime
// that was never started (driveCore), so the order is exact, and each
// names the mutation of the protocol it fails under.

// logTo returns a handler body that appends "data@core" to *log.
func logTo(log *[]string) HandlerFunc {
	return func(ctx *Ctx) { *log = append(*log, fmt.Sprintf("%v@%d", ctx.Data(), ctx.CoreID())) }
}

// TestArrivalStealFilesFirst: a thief probing a core whose only stealable
// color is still in its arrivals sees it through the unlocked screen, files
// it under the victim's lock before choosing, and takes the color with its
// arrived events, in order; a later post follows the lease behind them.
// Fails if the thief skips filing (the victim then holds one color and is
// not stealable) or if a splice leaves stealLen alone (the time-left screen
// then skips the victim).
func TestArrivalStealFilesFirst(t *testing.T) {
	r := newRuntime(t, Config{Cores: 2, Policy: PolicyMelyWS, maxStealColors: 1})
	defer r.Stop()
	victim, thief := r.cores[0], r.cores[1]
	cs := colorsOn(r, 0, 2)
	colA, colB := cs[0], cs[1]
	var log []string
	light := r.Register("light", logTo(&log))
	heavy := r.Register("heavy", logTo(&log), WithCostEstimate(time.Millisecond))
	for _, d := range []string{"a0", "a1", "a2"} {
		if err := r.Post(light, colA, d); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.PostBatch([]BatchEvent{{heavy, colB, "b0"}, {heavy, colB, "b1"}}); err != nil {
		t.Fatal(err)
	}
	if victim.arrivals.Front() == nil {
		t.Fatal("the group was filed under the poster's lock, not spliced")
	}
	if q, s := victim.qlen.Load(), victim.stealLen.Load(); q != 5 || s == 0 {
		t.Fatalf("victim screen: qlen %d, stealLen %d; want 5 and > 0", q, s)
	}
	if !r.stealOnce(thief) {
		t.Fatal("the thief took nothing from a victim with a worthy color in its arrivals")
	}
	if victim.arrivals.Front() != nil {
		t.Error("the thief left the victim's arrivals unfiled")
	}
	if got := r.table.Owner(equeue.Color(colB)); got != 1 {
		t.Fatalf("B is owned by core %d after the steal, want 1", got)
	}
	if err := r.Post(heavy, colB, "b2"); err != nil {
		t.Fatal(err)
	}
	for driveCore(r, thief) {
	}
	for driveCore(r, victim) {
	}
	if got, want := fmt.Sprint(log), "[b0@1 b1@1 b2@1 a0@0 a1@0 a2@0]"; got != want {
		t.Errorf("executed %s, want %s", got, want)
	}
}

// TestArrivalTransitBlocksSplice: while a color is in transit to its home
// core — stolen back, its owner entry already erased, not yet adopted — a
// batch holding it must not be spliced there: filing would meet the transit
// marker. The group is posted per event instead: Y lands, the color's event
// waits out the transit in enqueue, and it runs behind the stolen one.
// Fails, with the filing panic, if the table does not count colors in
// transit or if a group may splice while one is (drop spliceGroup's
// AnyDeviated check).
func TestArrivalTransitBlocksSplice(t *testing.T) {
	r := newRuntime(t, Config{Cores: 2, Policy: PolicyMelyBaseWS, maxStealColors: 1})
	defer r.Stop()
	home, lessee := r.cores[0], r.cores[1]
	cs := colorsOn(r, 0, 3)
	colX, colY, colZ := cs[0], cs[1], cs[2]
	colW := colorsOn(r, 1, 1)[0]
	var log []string
	h := r.Register("log", logTo(&log))
	post := func(c Color, d string) {
		t.Helper()
		if err := r.Post(h, c, d); err != nil {
			t.Fatal(err)
		}
	}
	// X is leased to core 1 by a real steal (Z stays: an idle victim keeps
	// a color), then W queues behind it there so that core 1 may lose X.
	post(colX, "x0")
	post(colZ, "z0")
	if !r.stealOnce(lessee) || r.table.Owner(equeue.Color(colX)) != 1 {
		t.Fatal("setup: X was not stolen to core 1")
	}
	post(colW, "w0")
	for driveCore(r, home) {
	}
	// The victim's half of stealing X back home.
	set := &home.stealSet
	if !r.detachSet(lessee, home.id, set) || set.Colors[0] != equeue.Color(colX) {
		t.Fatal("setup: X was not detached from core 1")
	}
	if r.table.Owner(equeue.Color(colX)) != 0 || !r.table.AnyDeviated() {
		t.Fatal("X in transit home: want owner 0 and AnyDeviated")
	}
	done := make(chan error, 1)
	// Y goes first: X's event holds up the rest of its group until the
	// adoption below, which waits for Y to land.
	go func() { done <- r.PostBatch([]BatchEvent{{h, colY, "y1"}, {h, colX, "x1"}}) }()
	for home.qlen.Load() == 0 {
		time.Sleep(10 * time.Microsecond)
	}
	r.adoptSet(home, set) // the thief's half
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for driveCore(r, home) {
	}
	for driveCore(r, lessee) {
	}
	if got, want := fmt.Sprint(log), "[z0@0 y1@0 x0@0 x1@0 w0@1]"; got != want {
		t.Errorf("executed %s, want %s", got, want)
	}
	if r.table.AnyDeviated() {
		t.Error("AnyDeviated after X settled at home")
	}
}

// TestLeaseEndsAtDrain: a color stolen away from its hash core goes home
// at the pop that finds it drained on the thief, not at its next delivery,
// so no owner entry outlives its color and the next batch homed on the
// victim is spliced again. Fails if popLocal does not end the lease (drop
// the StopRunning call, or its owner-entry erase).
func TestLeaseEndsAtDrain(t *testing.T) {
	bothLayouts(t, func(t *testing.T, pol Policy) {
		r := newRuntime(t, Config{Cores: 2, Policy: pol, maxStealColors: 1})
		defer r.Stop()
		victim, thief := r.cores[0], r.cores[1]
		cs := colorsOn(r, 0, 2)
		var log []string
		h := r.Register("log", logTo(&log), WithCostEstimate(time.Millisecond))
		for _, col := range cs {
			for _, d := range []string{"0", "1"} {
				if err := r.Post(h, col, d); err != nil {
					t.Fatal(err)
				}
			}
		}
		set := &thief.stealSet
		if !r.detachSet(victim, thief.id, set) {
			t.Fatal("setup: nothing was detached from core 0")
		}
		r.adoptSet(thief, set)
		stolen := set.Colors[0]
		if got := r.table.Owner(stolen); got != 1 {
			t.Fatalf("setup: the stolen color is owned by core %d, want 1", got)
		}
		for driveCore(r, thief) {
		}
		if got := r.table.Owner(stolen); got != 0 {
			t.Fatalf("the drained color is owned by core %d, want its home 0", got)
		}
		if r.table.AnyDeviated() {
			t.Fatal("AnyDeviated after the only stolen color drained")
		}
		if err := r.PostBatch([]BatchEvent{{h, cs[0], "b"}, {h, cs[1], "b"}}); err != nil {
			t.Fatal(err)
		}
		if victim.arrivals.Front() == nil {
			t.Fatal("the batch was filed under the poster's lock, not spliced")
		}
		for driveCore(r, victim) {
		}
		if len(log) != 6 || r.pending.Load() != 0 {
			t.Errorf("executed %v, %d pending; want 6 executions, none pending", log, r.pending.Load())
		}
	})
}

// TestArrivalLeasedColorRetries: a batch groups every color by its hash
// core, so an event of a color leased away — stolen, still queued on its
// thief — lands in its home core's group. That group must not be spliced
// while the color is deviated: it is posted per event, the color's event
// goes to the lessee, behind the stolen one, and the home color's events
// run in batch order. A one-event group is posted per event too. Each
// event counts into PostedHere and BatchedEvents of the core it lands on.
// Fails if a group may splice while a color is leased away (drop
// spliceGroup's AnyDeviated check) or if the per-event leg does not count
// BatchedEvents.
func TestArrivalLeasedColorRetries(t *testing.T) {
	r := newRuntime(t, Config{Cores: 2, Policy: PolicyMelyBaseWS, maxStealColors: 1})
	defer r.Stop()
	home, lessee := r.cores[0], r.cores[1]
	cs := colorsOn(r, 0, 3)
	colX, colY, colZ := cs[0], cs[1], cs[2]
	colW := colorsOn(r, 1, 1)[0]
	var log []string
	h := r.Register("log", logTo(&log))
	for _, e := range []BatchEvent{{h, colX, "x0"}, {h, colZ, "z0"}} {
		if err := r.Post(e.Handler, e.Color, e.Data); err != nil {
			t.Fatal(err)
		}
	}
	if !r.stealOnce(lessee) || r.table.Owner(equeue.Color(colX)) != 1 {
		t.Fatal("setup: X was not stolen to core 1")
	}
	before := r.Stats().Cores
	// Core 0's group holds X, Y and Y; core 1's group is W alone.
	batch := []BatchEvent{{h, colX, "x1"}, {h, colY, "y1"}, {h, colW, "w1"}, {h, colY, "y2"}}
	if err := r.PostBatch(batch); err != nil {
		t.Fatal(err)
	}
	if home.arrivals.Front() != nil {
		t.Fatal("a group holding a leased color was spliced")
	}
	// Core 0 receives y1 and y2; core 1 receives x1, leased to it, and w1.
	after := r.Stats().Cores
	for i := range after {
		posted := after[i].PostedHere - before[i].PostedHere
		batched := after[i].BatchedEvents - before[i].BatchedEvents
		if posted != 2 || batched != 2 {
			t.Errorf("core %d: the batch added %d PostedHere and %d BatchedEvents, want 2 and 2", i, posted, batched)
		}
	}
	for driveCore(r, home) {
	}
	for driveCore(r, lessee) {
	}
	if got, want := fmt.Sprint(log), "[z0@0 y1@0 y2@0 x0@1 x1@1 w1@1]"; got != want {
		t.Errorf("executed %s, want %s", got, want)
	}
}

// TestArrivalClosesPrivateRun: a group holding the running color, spliced
// while the color's private run is open, closes the run, so the handler's
// next continuation queues behind the group's event instead of riding the
// run ahead of it. Fails if the splice leaves runOpen set.
func TestArrivalClosesPrivateRun(t *testing.T) {
	r := newRuntime(t, Config{Cores: 1, Policy: PolicyMely, batchThreshold: 4})
	defer r.Stop()
	c := r.cores[0]
	var log []string
	hB := r.Register("B", logTo(&log))
	var hA Handler
	hA = r.Register("A", func(ctx *Ctx) {
		logTo(&log)(ctx)
		if ctx.Data() != "a0" {
			return
		}
		if !c.runOpen.Load() {
			t.Error("setup: A's private run is not open")
		}
		if err := r.PostBatch([]BatchEvent{{hA, 1, "a1"}, {hB, 2, "b0"}}); err != nil {
			t.Error(err)
		}
		if c.arrivals.Front() == nil {
			t.Error("the group was not spliced")
		}
		if err := ctx.Post(hA, 1, "a2"); err != nil {
			t.Error(err)
		}
	})
	if err := r.Post(hA, 1, "a0"); err != nil {
		t.Fatal(err)
	}
	for driveCore(r, c) {
	}
	if got, want := fmt.Sprint(log), "[a0@0 a1@0 a2@0 b0@0]"; got != want {
		t.Errorf("executed %s, want %s", got, want)
	}
}

// TestArrivalPostBatchThenPostFIFO: one goroutine posting one color by
// PostBatch, then Post, then a spliced batch and a single-event batch (which
// is posted per event) sees the color run in that order. Fails if enqueue,
// which Post and the per-event leg share, delivers before filing the
// arrivals.
func TestArrivalPostBatchThenPostFIFO(t *testing.T) {
	r := newRuntime(t, Config{Cores: 1, Policy: PolicyMely})
	defer r.Stop()
	c := r.cores[0]
	var log []string
	h := r.Register("log", logTo(&log))
	const colA, colB = 1, 2
	if err := r.PostBatch([]BatchEvent{{h, colA, 1}, {h, colB, "b"}, {h, colA, 2}}); err != nil {
		t.Fatal(err)
	}
	if c.arrivals.Front() == nil {
		t.Fatal("setup: the group was not spliced")
	}
	if err := r.Post(h, colA, 3); err != nil {
		t.Fatal(err)
	}
	if err := r.PostBatch([]BatchEvent{{h, colA, 4}, {h, colA, 5}}); err != nil {
		t.Fatal(err)
	}
	if err := r.PostBatch([]BatchEvent{{h, colA, 6}}); err != nil {
		t.Fatal(err)
	}
	for driveCore(r, c) {
	}
	if got, want := fmt.Sprint(log), "[1@0 2@0 3@0 4@0 5@0 6@0 b@0]"; got != want {
		t.Errorf("executed %s, want %s", got, want)
	}
}

// TestArrivalStatsAndDrain: events waiting in arrivals are queued work for
// Stats — per core, before and after a filing — and for Drain, which must
// not return until the last of them ran. Fails if a splice does not count
// its events into qlen or a filing loses them from it.
func TestArrivalStatsAndDrain(t *testing.T) {
	r := newRuntime(t, Config{Cores: 2, Policy: PolicyMelyWS})
	defer r.Stop()
	h := r.Register("nop", func(*Ctx) {})
	on0, on1 := colorsOn(r, 0, 11), colorsOn(r, 1, 6)
	var batch []BatchEvent
	for _, c := range append(on0[:10:10], on1...) {
		batch = append(batch, BatchEvent{Handler: h, Color: c})
	}
	if err := r.PostBatch(batch); err != nil {
		t.Fatal(err)
	}
	check := func(what string, q0, q1 int) {
		t.Helper()
		st := r.Stats()
		if st.Cores[0].Queued != q0 || st.Cores[1].Queued != q1 || st.Pending != int64(q0+q1) {
			t.Fatalf("%s: Queued %d/%d, Pending %d; want %d/%d, %d",
				what, st.Cores[0].Queued, st.Cores[1].Queued, st.Pending, q0, q1, q0+q1)
		}
	}
	check("spliced", 10, 6)
	if r.cores[0].arrivals.Front() == nil || r.cores[1].arrivals.Front() == nil {
		t.Fatal("setup: a group was not spliced")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := r.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with every event in arrivals returned %v", err)
	}
	if err := r.Post(h, on0[10], nil); err != nil { // files core 0's arrivals
		t.Fatal(err)
	}
	check("filed by a post", 11, 6)
	for q0 := 10; q0 >= 0; q0-- {
		if !driveCore(r, r.cores[0]) {
			t.Fatal("core 0 ran dry early")
		}
		check("after an execution", q0, 6)
	}
	for driveCore(r, r.cores[1]) {
	}
	check("everything ran", 0, 0)
	drain(t, r)
}
