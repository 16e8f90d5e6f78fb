package equeue

import (
	"math/rand"
	"slices"
	"testing"
)

// drainCosts pops q empty with PopNextFrom and returns the events' costs
// (the tests use Cost as the event's identity).
func drainCosts(q *CoreQueue) []int64 {
	var out []int64
	for {
		e, _ := q.PopNextFrom()
		if e == nil {
			return out
		}
		out = append(out, e.Cost)
	}
}

// TestPopRunMatchesPopNextFrom is the model check of PopRun: on two
// queues built alike, PopNextFrom followed by PopRun moving k events
// must leave one queue exactly where PopNextFrom followed by k more
// PopNextFrom calls leaves the other — same events in the same order,
// same Len, Colors, per-color Len, CumCost and StealingQueue interval,
// same batchCount — and k must be all the batch still allows.
func TestPopRunMatchesPopNextFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const colors = 4
	nonEmptyRuns, partialRuns := 0, 0
	for iter := 0; iter < 4000; iter++ {
		threshold := 1 + rng.Intn(6)
		a, b := NewCoreQueue(40), NewCoreQueue(40)
		a.BatchThreshold, b.BatchThreshold = threshold, threshold
		ta, tb := map[Color]*ColorQueue{}, map[Color]*ColorQueue{}
		id := int64(0)
		push := func() {
			id++
			c := Color(1 + rng.Intn(colors))
			pen := int32(1 + rng.Intn(3))
			pushNew(a, ta, &Event{Color: c, Cost: id, Penalty: pen})
			pushNew(b, tb, &Event{Color: c, Cost: id, Penalty: pen})
		}
		// A random prefix of pushes and pops puts batchCount and the
		// color order anywhere.
		for i, n := 0, 1+rng.Intn(30); i < n; i++ {
			if rng.Intn(3) == 0 {
				ea, _ := a.PopNextFrom()
				eb, _ := b.PopNextFrom()
				if (ea == nil) != (eb == nil) || (ea != nil && ea.Cost != eb.Cost) {
					t.Fatalf("iter %d: the twins diverged before the check", iter)
				}
			} else {
				push()
			}
		}

		ea, cqa := a.PopNextFrom()
		eb, cqb := b.PopNextFrom()
		if ea == nil {
			if eb != nil {
				t.Fatalf("iter %d: twin b popped from an empty queue", iter)
			}
			continue
		}
		want := threshold - a.batchCount // batchCount is 0 after an emptying pop, and then so is Len
		if want > cqa.Len() {
			want = cqa.Len()
		}
		if want < 0 {
			want = 0 // a lone color past its batch: the rotation is overdue
		}
		run := a.NewColorQueue(0)
		a.PopRun(cqa, run)
		k := run.Len()
		if k != want {
			t.Fatalf("iter %d: PopRun moved %d events, the batch allows %d", iter, k, want)
		}
		if k > 0 {
			nonEmptyRuns++
		}
		if cqa.Len() > 0 {
			partialRuns++
		}
		got := []int64{ea.Cost}
		model := []int64{eb.Cost}
		for i := 0; i < k; i++ {
			e := run.Drain()
			if e.Color != cqa.Color() || run.Color() != cqa.Color() {
				t.Fatalf("iter %d: run of color %d holds an event of color %d, popped color %d", iter, run.Color(), e.Color, cqa.Color())
			}
			got = append(got, e.Cost)
			em, cqm := b.PopNextFrom()
			if cqm != cqb {
				t.Fatalf("iter %d: the model rotated inside the run", iter)
			}
			model = append(model, em.Cost)
		}
		if run.Drain() != nil || run.Len() != 0 {
			t.Fatalf("iter %d: run not empty after %d pops", iter, k)
		}
		if !slices.Equal(got, model) {
			t.Fatalf("iter %d: run %v, model %v", iter, got, model)
		}
		if a.Len() != b.Len() || a.Colors() != b.Colors() || a.batchCount != b.batchCount ||
			a.Stealing().Len() != b.Stealing().Len() {
			t.Fatalf("iter %d: Len %d/%d Colors %d/%d batchCount %d/%d worthy %d/%d", iter,
				a.Len(), b.Len(), a.Colors(), b.Colors(), a.batchCount, b.batchCount,
				a.Stealing().Len(), b.Stealing().Len())
		}
		for c, qa := range ta {
			qb := tb[c]
			if qa.Len() != qb.Len() || qa.CumCost() != qb.CumCost() || qa.interval != qb.interval || qa.inCore != qb.inCore {
				t.Fatalf("iter %d color %d: Len %d/%d CumCost %d/%d interval %d/%d linked %v/%v", iter, c,
					qa.Len(), qb.Len(), qa.CumCost(), qb.CumCost(), qa.interval, qb.interval, qa.inCore, qb.inCore)
			}
		}
		// Same state means same future.
		push()
		push()
		if ra, rb := drainCosts(a), drainCosts(b); !slices.Equal(ra, rb) {
			t.Fatalf("iter %d: after the run a drains %v, the model %v", iter, ra, rb)
		}
	}
	if nonEmptyRuns < 500 || partialRuns < 200 {
		t.Fatalf("the generator exercised %d non-empty and %d partial runs", nonEmptyRuns, partialRuns)
	}
}

// TestRunAppendDrain: the owner of a run works it like a FIFO, and only
// a detached queue of the event's color takes an Append.
func TestRunAppendDrain(t *testing.T) {
	q := NewCoreQueue(100)
	table := map[Color]*ColorQueue{}
	pushNew(q, table, ev(7, 1))
	_, cq := q.PopNextFrom()
	run := q.NewColorQueue(0)
	q.PopRun(cq, run) // nothing left to move, but the run is color 7's now
	if run.Color() != 7 || run.Len() != 0 {
		t.Fatalf("run: color %d, %d events; want color 7, empty", run.Color(), run.Len())
	}
	for i := int64(2); i <= 4; i++ {
		run.Append(ev(7, i))
	}
	if run.Len() != 3 || run.CumCost() != 2+3+4 {
		t.Fatalf("Len = %d CumCost = %d, want 3, 9", run.Len(), run.CumCost())
	}
	for i := int64(2); i <= 4; i++ {
		if e := run.Drain(); e.Cost != i {
			t.Fatalf("drained %d, want %d", e.Cost, i)
		}
	}
	if run.Drain() != nil || run.Len() != 0 || q.Len() != 0 {
		t.Fatal("a drained run must be empty, and the CoreQueue never counted it")
	}
}

// TestPushFrontRunOrderAndSeniority: what is put back runs before what
// was pushed to the queue while the run was out, and the queue's
// accounting covers both again.
func TestPushFrontRunOrderAndSeniority(t *testing.T) {
	q := NewCoreQueue(20)
	q.BatchThreshold = 4
	table := map[Color]*ColorQueue{}
	for i := int64(1); i <= 6; i++ {
		pushNew(q, table, ev(1, i))
	}
	e, cq := q.PopNextFrom()
	run := q.NewColorQueue(0)
	q.PopRun(cq, run) // 2, 3, 4 leave; 5, 6 stay
	if e.Cost != 1 || run.Len() != 3 || cq.Len() != 2 || q.Len() != 2 {
		t.Fatalf("popped %d, run %d, queue %d/%d", e.Cost, run.Len(), cq.Len(), q.Len())
	}
	if first := run.Drain(); first.Cost != 2 {
		t.Fatalf("run starts at %d, want 2", first.Cost)
	}
	pushNew(q, table, ev(1, 7)) // delivered while the run is out
	if q.PushFrontRun(cq, run) {
		t.Fatal("a queue that never emptied needs no linking")
	}
	if run.Len() != 0 || run.Drain() != nil {
		t.Fatal("PushFrontRun must empty the run")
	}
	if cq.Len() != 5 || q.Len() != 5 || cq.CumCost() != 3+4+5+6+7 {
		t.Fatalf("Len %d/%d CumCost %d after the put-back", cq.Len(), q.Len(), cq.CumCost())
	}
	if cq.interval != q.Stealing().Interval(cq.CumCost()) || q.Stealing().Len() != 1 {
		t.Fatalf("interval %d, want %d", cq.interval, q.Stealing().Interval(cq.CumCost()))
	}
	if got, want := drainCosts(q), []int64{3, 4, 5, 6, 7}; !slices.Equal(got, want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	// An empty run is a no-op.
	if q.PushFrontRun(cq, run) || q.Len() != 0 || cq.inCore {
		t.Fatal("putting back an empty run must change nothing")
	}
}

// TestPushFrontRunRelinksEmptied: a queue the run emptied went out of
// the CoreQueue; the put-back links it again, behind the colors queued
// meanwhile, and those colors' batches start fresh.
func TestPushFrontRunRelinksEmptied(t *testing.T) {
	q := NewCoreQueue(25)
	q.BatchThreshold = 4
	table := map[Color]*ColorQueue{}
	for i := int64(1); i <= 3; i++ {
		pushNew(q, table, ev(1, i))
	}
	_, cq := q.PopNextFrom()
	run := q.NewColorQueue(0)
	q.PopRun(cq, run)
	if run.Len() != 2 || cq.Len() != 0 || cq.inCore || q.Colors() != 0 || q.Len() != 0 {
		t.Fatalf("run %d, queue %d linked=%v, core %d colors %d events", run.Len(), cq.Len(), cq.inCore, q.Colors(), q.Len())
	}
	run.Append(ev(1, 4)) // the owner's own continuation
	pushNew(q, table, ev(2, 20))
	pushNew(q, table, ev(2, 21))
	if !q.PushFrontRun(cq, run) {
		t.Fatal("an unlinked queue must be reported as linked")
	}
	if !cq.inCore || q.Colors() != 2 || q.Len() != 5 || cq.CumCost() != 2+3+4 {
		t.Fatalf("linked=%v colors %d events %d CumCost %d", cq.inCore, q.Colors(), q.Len(), cq.CumCost())
	}
	if got, want := drainCosts(q), []int64{20, 21, 2, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("drained %v, want %v (the re-linked color goes to the tail)", got, want)
	}
}

// TestPushFrontRunRotation: a put-back marks the color's batch as spent.
// The next pop passes it over exactly when it stands at the head with
// another color behind it.
func TestPushFrontRunRotation(t *testing.T) {
	build := func(neighbour bool) (q *CoreQueue, cq, run *ColorQueue) {
		q = NewCoreQueue(1 << 20)
		q.BatchThreshold = 3
		table := map[Color]*ColorQueue{}
		for i := int64(1); i <= 6; i++ {
			pushNew(q, table, ev(1, i))
		}
		if neighbour {
			pushNew(q, table, ev(2, 20))
		}
		_, cq = q.PopNextFrom()
		run = q.NewColorQueue(0)
		q.PopRun(cq, run) // 2, 3
		return q, cq, run
	}

	q, cq, run := build(true)
	q.PushFrontRun(cq, run)
	if got, want := drainCosts(q), []int64{20, 2, 3, 4, 5, 6}; !slices.Equal(got, want) {
		t.Fatalf("head with a neighbour: drained %v, want %v", got, want)
	}

	q, cq, run = build(false)
	q.PushFrontRun(cq, run)
	if e, _ := q.PopNextFrom(); e.Cost != 2 {
		t.Fatalf("head alone: popped %d, want 2 (nothing to rotate to)", e.Cost)
	}
	// ... and it yields as soon as somebody queues behind it.
	q.Push(q.NewColorQueue(2), ev(2, 20))
	if e, _ := q.PopNextFrom(); e.Cost != 20 {
		t.Fatalf("head joined by a neighbour: popped %d, want 20", e.Cost)
	}

	// Not at the head: the color in front keeps its whole batch.
	q = NewCoreQueue(1 << 20)
	q.BatchThreshold = 3
	table := map[Color]*ColorQueue{}
	pushNew(q, table, ev(1, 1))
	pushNew(q, table, ev(1, 2))
	_, cq = q.PopNextFrom()
	run = q.NewColorQueue(0)
	q.PopRun(cq, run) // 2; color 1 is out of the CoreQueue
	for i := int64(20); i < 24; i++ {
		pushNew(q, table, ev(2, i))
	}
	q.PushFrontRun(cq, run)
	if got, want := drainCosts(q), []int64{20, 21, 22, 2, 23}; !slices.Equal(got, want) {
		t.Fatalf("behind another color: drained %v, want %v", got, want)
	}
}

func TestRunOpsPanicOnMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s must panic", name)
			}
		}()
		f()
	}
	q := NewCoreQueue(100)
	table := map[Color]*ColorQueue{}
	pushNew(q, table, ev(1, 1))
	pushNew(q, table, ev(1, 2))
	pushNew(q, table, ev(2, 3))
	pushNew(q, table, ev(2, 4))
	_, cq1 := q.PopNextFrom()
	run := q.NewColorQueue(0)

	mustPanic("PopRun on a queue that is not being popped", func() { q.PopRun(table[2], run) })
	mustPanic("PopRun into a linked queue", func() { q.PopRun(cq1, table[2]) })

	q.PopRun(cq1, run)
	mustPanic("PopRun into a run that still holds events", func() { q.PopRun(cq1, run) })
	mustPanic("Append of another color's event", func() { run.Append(ev(2, 5)) })
	mustPanic("Append to a linked queue", func() { table[2].Append(ev(2, 5)) })
	mustPanic("putting a run back on another color's queue", func() { q.PushFrontRun(table[2], run) })
	if run.Len() != 1 || table[2].Len() != 2 || q.Len() != 2 || q.Colors() != 1 {
		t.Fatalf("refused calls must change nothing: run %d, queue %d, core %d events %d colors",
			run.Len(), table[2].Len(), q.Len(), q.Colors())
	}
}
