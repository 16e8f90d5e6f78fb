package mely

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/melyruntime/mely/internal/equeue"
)

// The tests in this file defend the running color's private run (see
// rcore.run): a worker executes the events popLocal detached, and the
// continuations its handlers append, without the core lock. The one
// invariant that adds is an ordering one — an event appended to the run
// must precede nothing that was delivered before it — and it comes with
// two duties the lock-free loop must not drop: the color still yields
// after batchThreshold events, and timers, thieves, Stop and Drain see
// what they saw before.

// privateRunSeeds is the fixed seed set CI runs under -race -count=20.
// A seed that ever fails is appended here, never replaced.
var privateRunSeeds = []int64{1, 2, 3, 5, 8, 13}

// prEvent is the payload of the order oracle: the seq-th event poster src
// sent to the color with index dst.
type prEvent struct {
	src, dst int
	seq      int64
	depth    int // > 0: the handler continues the chain
}

// TestPrivateRunOrder lifts the per-color sequence oracle of the ledger's
// event workloads (perf/events.go) into a seeded mix of every way an
// event can reach a running color: inside one handler ctx.Post(X) then
// rt.Post(X) (the later, slow-path post must not be overtaken by a still
// later continuation), ctx.PostBatch, rt.PostBatch (a group spliced onto
// the core's arrivals) and ctx.PostAfter onto the running color,
// external posters mixing Post and PostBatch groups, every color
// homed on core 0 so that the other cores work only by stealing, and
// Drain callers throughout. Every (poster, color) pair must see its
// events in the order they were sent, every event exactly once, and
// Drain must never return early.
func TestPrivateRunOrder(t *testing.T) {
	for _, seed := range privateRunSeeds {
		mely := PolicyMelyWS
		if seed%2 == 1 {
			mely = PolicyMelyBaseWS // steals whatever is queued, worthy or not
		}
		// The list layout has no private run, but the same steal transaction
		// moves its colors: extracted from the victim's list, in transit
		// under the marker, appended to the thief's.
		for _, pol := range []Policy{mely, PolicyLibasyncWS} {
			for _, cores := range []int{2, 4} {
				t.Run(fmt.Sprintf("seed%d/cores%d/%s", seed, cores, pol), func(t *testing.T) {
					privateRunOrder(t, seed, cores, pol)
				})
			}
		}
	}
}

func privateRunOrder(t *testing.T, seed int64, cores int, pol Policy) {
	const (
		nColors   = 8
		nExternal = 2
		rounds    = 6
		depth     = 40
		extPosts  = 400 // per external poster and round
	)
	r := startRuntime(t, Config{Cores: cores, Policy: pol, batchThreshold: 4, timerTick: 50 * time.Microsecond})
	colors := colorsOn(r, 0, nColors)

	// sent[p][c] is written by poster p only, next[p][c] by the handlers
	// of color c only: the runtime's color serialization is what keeps
	// both race-free, which is half of what is under test. Posters
	// 0..nColors-1 are the colors' own handlers, the rest the external
	// goroutines.
	nPosters := nColors + nExternal
	sent := make([][]int64, nPosters)
	next := make([][]int64, nPosters)
	rngs := make([]*rand.Rand, nPosters)
	for p := range sent {
		sent[p] = make([]int64, nColors)
		next[p] = make([]int64, nColors)
		rngs[p] = rand.New(rand.NewSource(seed*1000 + int64(p)))
	}
	var (
		posted, executed       atomic.Int64 // ordered events, counted before the post / after the handler
		extLanded, extExecuted atomic.Int64 // external events whose post returned / that ran
		running                atomic.Int64
		armed, fired           atomic.Int64
		violations             atomic.Int64
	)
	violate := func(format string, args ...any) {
		if violations.Add(1) <= 5 {
			t.Errorf(format, args...)
		}
	}

	var hEvent, hTimer Handler
	// mk stamps the next event from poster src to color dst.
	mk := func(src, dst, depth int) *prEvent {
		e := &prEvent{src: src, dst: dst, seq: sent[src][dst], depth: depth}
		sent[src][dst]++
		posted.Add(1)
		return e
	}
	check := func(err error) {
		if err != nil {
			violate("post failed: %v", err)
		}
	}
	hTimer = r.Register("timer", func(ctx *Ctx) {
		if ctx.Data().(*atomic.Int32).Add(1) != 1 {
			violate("a timer fired twice")
		}
		fired.Add(1)
	})
	hEvent = r.Register("event", func(ctx *Ctx) {
		running.Add(1)
		e := ctx.Data().(*prEvent)
		if ctx.Color() != colors[e.dst] {
			violate("event for color %d ran under color %d", colors[e.dst], ctx.Color())
		}
		if want := next[e.src][e.dst]; e.seq != want {
			violate("color %d: event %d of poster %d ran, %d was next", e.dst, e.seq, e.src, want)
		}
		next[e.src][e.dst] = e.seq + 1
		if e.depth > 0 {
			x, rng := e.dst, rngs[e.dst]
			other := (x + 1 + rng.Intn(nColors-1)) % nColors
			// The continuation first: it rides the private run when the
			// run's tail is open.
			check(ctx.Post(hEvent, colors[x], mk(x, x, e.depth-1)))
			if rng.Intn(2) == 0 {
				// A post that takes the slow path from inside the handler,
				// and a continuation after it: the case a private tail
				// could reorder.
				check(r.Post(hEvent, colors[x], mk(x, x, 0)))
				if rng.Intn(2) == 0 {
					check(ctx.Post(hEvent, colors[x], mk(x, x, 0)))
				}
			}
			if rng.Intn(4) == 0 {
				check(ctx.PostBatch([]BatchEvent{
					{Handler: hEvent, Color: colors[x], Data: mk(x, x, 0)},
					{Handler: hEvent, Color: colors[other], Data: mk(x, other, 0)},
					{Handler: hEvent, Color: colors[x], Data: mk(x, x, 0)},
				}))
				check(ctx.Post(hEvent, colors[x], mk(x, x, 0)))
			}
			if rng.Intn(4) == 0 {
				// The same from the external API: a group for the running
				// color's core, handed over unfiled when nothing is
				// deviated, that the continuation after it must follow.
				check(r.PostBatch([]BatchEvent{
					{Handler: hEvent, Color: colors[x], Data: mk(x, x, 0)},
					{Handler: hEvent, Color: colors[other], Data: mk(x, other, 0)},
				}))
				check(ctx.Post(hEvent, colors[x], mk(x, x, 0)))
			}
			if rng.Intn(4) == 0 {
				check(ctx.Post(hEvent, colors[other], mk(x, other, 0)))
			}
			if rng.Intn(8) == 0 {
				armed.Add(2)
				_, err := ctx.PostAfter(hTimer, colors[x], time.Duration(rng.Intn(200))*time.Microsecond, new(atomic.Int32))
				check(err)
				_, err = r.PostAfter(hTimer, colors[other], 0, new(atomic.Int32))
				check(err)
			}
			spinFor(time.Duration(1+rng.Intn(4)) * time.Microsecond)
		}
		if e.src >= nColors {
			extExecuted.Add(1)
		}
		running.Add(-1)
		executed.Add(1)
	})

	// drainAndCheck is one Drain caller. While external posters run it
	// can only hold Drain to what had landed before the call; once they
	// are done, to everything.
	drainAndCheck := func(round int, final bool) {
		landed := extLanded.Load()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := r.Drain(ctx); err != nil {
			t.Errorf("round %d: drain: %v (pending=%d)", round, err, r.pending.Load())
			return
		}
		if got := extExecuted.Load(); got < landed {
			t.Errorf("round %d: Drain returned with %d of the %d external events posted before it executed", round, got, landed)
		}
		if final {
			if run, ex, po := running.Load(), executed.Load(), posted.Load(); run != 0 || ex != po {
				t.Errorf("round %d: Drain returned with %d handlers running, %d of %d events executed", round, run, ex, po)
			}
		}
	}

	for round := 0; round < rounds; round++ {
		roots := make([]BatchEvent, nColors)
		for i := range roots {
			// Roots come from the first external poster's sequence.
			roots[i] = BatchEvent{Handler: hEvent, Color: colors[i], Data: mk(nColors, i, depth)}
		}
		if err := r.PostBatch(roots); err != nil {
			t.Fatal(err)
		}
		extLanded.Add(nColors)

		var posters, drainers sync.WaitGroup
		for p := nColors; p < nPosters; p++ {
			posters.Add(1)
			go func(p int) {
				defer posters.Done()
				rng := rngs[p]
				for n := 0; n < extPosts; {
					a, b := rng.Intn(nColors), rng.Intn(nColors)
					if rng.Intn(3) == 0 {
						// A group with same-color bursts: spliced whole, or,
						// while a color is away, posted per event, possibly
						// into the running color.
						var batch []BatchEvent
						for _, c := range []int{a, a, b, a, b, b} {
							batch = append(batch, BatchEvent{Handler: hEvent, Color: colors[c], Data: mk(p, c, 0)})
						}
						check(r.PostBatch(batch))
						extLanded.Add(int64(len(batch)))
						n += len(batch)
					} else {
						check(r.Post(hEvent, colors[a], mk(p, a, 0)))
						extLanded.Add(1)
						n++
					}
					if n%16 == 0 {
						time.Sleep(20 * time.Microsecond) // let the chains run between bursts
					}
				}
			}(p)
		}
		for d := 0; d < 2; d++ {
			drainers.Add(1)
			go func() { defer drainers.Done(); drainAndCheck(round, false) }()
		}
		posters.Wait()
		for d := 0; d < 3; d++ {
			drainers.Add(1)
			go func() { defer drainers.Done(); drainAndCheck(round, true) }()
		}
		drainers.Wait()
	}

	// Timers are not pending work until they fire: wait them out, then
	// drain what they posted.
	for deadline := time.Now().Add(30 * time.Second); fired.Load() < armed.Load(); {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d timers fired", fired.Load(), armed.Load())
		}
		time.Sleep(200 * time.Microsecond)
	}
	drain(t, r)
	if fired.Load() != armed.Load() {
		t.Errorf("%d timers armed, %d fired", armed.Load(), fired.Load())
	}
	for p := range sent {
		for c := range sent[p] {
			if sent[p][c] != next[p][c] {
				t.Errorf("poster %d sent color %d %d events, %d ran", p, c, sent[p][c], next[p][c])
			}
		}
	}
	if n := violations.Load(); n > 5 {
		t.Errorf("%d violations in all", n)
	}
	st := r.Stats()
	if pol != PolicyMelyWS && st.Total().Steals == 0 {
		t.Error("no steal happened: the neighbours were meant to work by stealing")
	}
}

// driveCore is one iteration of the worker loop for a runtime that was
// never started, run on the test's goroutine so that the order of
// executions is the test's to decide. It reports whether it found work.
func driveCore(r *Runtime, c *rcore) bool {
	if r.harvestTimers(c) > 0 {
		return true
	}
	ev := r.popLocal(c)
	if ev == nil {
		return false
	}
	r.runColor(c, ev)
	return true
}

// TestRunYieldsAfterBatchThreshold: a color that continues itself forever
// rides its private run, and still another color queued on the core waits
// for at most batchThreshold of its executions — counted from the pop when
// the other color was queued by then, at once when the batch is already
// spent — and a timer that came due is fired before the next execution.
func TestRunYieldsAfterBatchThreshold(t *testing.T) {
	const tick = 20 * time.Microsecond
	r := newRuntime(t, Config{Cores: 1, Policy: PolicyMely, batchThreshold: 4, timerTick: tick})
	defer r.Stop()
	c := r.cores[0]
	var log []string
	var hA, hB, hT Handler
	firedByA11 := int64(-1)
	hB = r.Register("B", func(ctx *Ctx) { log = append(log, ctx.Data().(string)) })
	hT = r.Register("T", func(ctx *Ctx) { log = append(log, "T") })
	hA = r.Register("A", func(ctx *Ctx) {
		n := ctx.Data().(int)
		log = append(log, fmt.Sprintf("A%d", n))
		switch n {
		case 1:
			// Queued early in A's batch: B1 waits for the batch to end.
			if err := r.Post(hB, 2, "B1"); err != nil {
				t.Error(err)
			}
		case 8:
			// A's second batch (A4..A7) is spent and nothing was queued,
			// so A ran on; B2 is queued now and runs next.
			if err := r.Post(hB, 2, "B2"); err != nil {
				t.Error(err)
			}
		case 10:
			// Due by the time this handler returns.
			if _, err := ctx.PostAfter(hT, 3, 0, nil); err != nil {
				t.Error(err)
			}
			spinFor(3 * tick)
		case 11:
			firedByA11 = c.stats.timersFired.Load()
		}
		if n < 16 {
			if err := ctx.Post(hA, 1, n+1); err != nil {
				t.Error(err)
			}
		}
	})
	if err := r.Post(hA, 1, 0); err != nil {
		t.Fatal(err)
	}
	for driveCore(r, c) {
	}
	// A9 starts a batch (A9..A12); the timer comes due during A10, is
	// fired before A11, and its event waits for the batch like any other
	// queued color.
	want := "A0 A1 A2 A3 B1 A4 A5 A6 A7 A8 B2 A9 A10 A11 A12 T A13 A14 A15 A16"
	if got := fmt.Sprint(log); got != "["+want+"]" {
		t.Errorf("executed %v\n    want [%s]", log, want)
	}
	if firedByA11 != 1 {
		t.Errorf("%d timers had fired when the execution after the due one began, want 1", firedByA11)
	}
	if p := r.pending.Load(); p != 0 {
		t.Errorf("pending = %d after everything ran", p)
	}
	// A0..A16, B1, B2 and T: an event appended to the run counts as posted
	// on its core like one delivered through the queue.
	if got := c.stats.postedHere.Load(); got != 20 {
		t.Errorf("PostedHere = %d, want 20", got)
	}
}

// TestStealAroundPrivateRun: a thief probing a victim in the middle of a
// run takes another color and leaves the running one alone — its run,
// its tabled queue and its ownership — and once the batch is over and the
// victim runs something else, the color moves like any other, in order.
// (One color per steal, so that each steal's choice is forced.)
func TestStealAroundPrivateRun(t *testing.T) {
	r := newRuntime(t, Config{Cores: 2, Policy: PolicyMelyBaseWS, batchThreshold: 4, maxStealColors: 1})
	defer r.Stop()
	victim, thief := r.cores[0], r.cores[1]
	cs := colorsOn(r, 0, 4)
	colA, colB, colC, colD := cs[0], cs[1], cs[2], cs[3]
	owner := func(c Color) int { return r.table.Owner(equeue.Color(c)) }
	var seqA []int
	var others []string
	var hA, hOther Handler
	hOther = r.Register("other", func(ctx *Ctx) {
		name := ctx.Data().(string)
		others = append(others, fmt.Sprintf("%s@%d", name, ctx.CoreID()))
		if name == "D" {
			// The victim runs D now; A's batch is over and what is left
			// of it is queued behind: fair game.
			if !r.stealOnce(thief) {
				t.Error("nothing stolen from a victim with A queued behind the running D")
			}
			if owner(colA) != 1 {
				t.Errorf("A is owned by core %d after the second steal, want 1", owner(colA))
			}
		}
	})
	hA = r.Register("A", func(ctx *Ctx) {
		n := ctx.Data().(int)
		seqA = append(seqA, n)
		if n < 7 {
			if err := ctx.Post(hA, colA, n+1); err != nil {
				t.Error(err)
			}
		}
		if n == 1 {
			// Mid-run: A1 came off the private run, A2 was just appended
			// to it, A's queue is empty, unlinked and still tabled.
			if victim.run.Len() != 1 || !victim.runOpen.Load() {
				t.Errorf("mid-run: run holds %d events, open=%v; want 1, true", victim.run.Len(), victim.runOpen.Load())
			}
			if !r.stealOnce(thief) {
				t.Error("nothing stolen from a victim with B and C queued")
			}
			if owner(colA) != 0 || owner(colB) != 1 || owner(colC) != 0 {
				t.Errorf("owners after the mid-run steal: A=%d B=%d C=%d, want 0 1 0", owner(colA), owner(colB), owner(colC))
			}
			if q := r.table.Queue(equeue.Color(colA)); q != victim.runCQ || victim.run.Len() != 1 {
				t.Error("the steal disturbed the running color's queue or run")
			}
			// Other work for the victim, so that A's batch ends.
			if err := r.Post(hOther, colD, "D"); err != nil {
				t.Error(err)
			}
		}
	})
	for _, e := range []struct {
		h    Handler
		c    Color
		data any
	}{{hA, colA, 0}, {hOther, colB, "B"}, {hOther, colC, "C"}} {
		if err := r.Post(e.h, e.c, e.data); err != nil {
			t.Fatal(err)
		}
	}
	for driveCore(r, victim) {
	}
	if got := fmt.Sprint(seqA); got != "[0 1 2 3]" {
		t.Errorf("the victim ran A%v, want one batch [0 1 2 3]", seqA)
	}
	for driveCore(r, thief) {
	}
	if got := fmt.Sprint(seqA); got != "[0 1 2 3 4 5 6 7]" {
		t.Errorf("A ran %v, want 0..7 in order across the steal", seqA)
	}
	if got := fmt.Sprint(others); got != "[C@0 D@0 B@1]" {
		t.Errorf("the other colors ran %v, want [C@0 D@0 B@1]", others)
	}
	if p := r.pending.Load(); p != 0 {
		t.Errorf("pending = %d after everything ran", p)
	}
}

// TestSelfRepostingColorStarvesNobody is the live counterpart: one worker,
// a color that continues itself without end. Colors posted beside it run
// within batchThreshold of its executions, a timer still fires, and Stop
// returns although the run never empties, releasing a blocked Drain with
// ErrStopped.
func TestSelfRepostingColorStarvesNobody(t *testing.T) {
	const threshold = 4
	r := startRuntime(t, Config{Cores: 1, Policy: PolicyMelyWS, batchThreshold: threshold})
	var aCount atomic.Int64
	var hA Handler
	hA = r.Register("A", func(ctx *Ctx) {
		aCount.Add(1)
		if err := ctx.Post(hA, 1, nil); err != nil && !errors.Is(err, ErrStopped) {
			t.Error(err)
		}
	})
	ran := make(chan int64, 1)
	hB := r.Register("B", func(ctx *Ctx) { ran <- aCount.Load() })
	// Three chains on the one color: whichever post Stop refuses, the
	// run still holds events to drop.
	for i := 0; i < 3; i++ {
		if err := r.Post(hA, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	await := func(what string) int64 {
		t.Helper()
		select {
		case n := <-ran:
			return n
		case <-time.After(20 * time.Second):
			t.Fatalf("%s never ran beside the self-reposting color", what)
			return 0
		}
	}
	for i := 0; i < 50; i++ {
		for aCount.Load() < int64(100*(i+1)) {
			time.Sleep(10 * time.Microsecond)
		}
		if err := r.Post(hB, Color(2+i%3), nil); err != nil {
			t.Fatal(err)
		}
		queuedAt := aCount.Load() // B is queued; A's executions from here on are what it waits for
		if waited := await("a posted color") - queuedAt; waited > threshold {
			t.Fatalf("post %d: the queued color waited for %d executions of the running one, batchThreshold is %d", i, waited, threshold)
		}
	}
	if _, err := r.PostAfter(hB, 9, time.Millisecond, nil); err != nil {
		t.Fatal(err)
	}
	await("a timer's event")

	drained := make(chan error, 1)
	go func() { drained <- r.Drain(context.Background()) }()
	for r.drainWaiters.Load() == 0 {
		time.Sleep(10 * time.Microsecond)
	}
	stopped := make(chan struct{})
	go func() { r.Stop(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(20 * time.Second):
		t.Fatal("Stop did not return while a color kept its run non-empty")
	}
	select {
	case err := <-drained:
		if !errors.Is(err, ErrStopped) {
			t.Errorf("Drain returned %v, want ErrStopped (the run's events were dropped)", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Stop did not release the Drain waiter")
	}
}
