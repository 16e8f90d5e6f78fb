package mely

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// The tests in this file defend what the per-event hot path leans on:
// the pending hand-off keeps Drain exact, per-core span blocks keep span
// ids unique, the batched profile feed keeps estimates truthful, and the
// handler table publishes a handler together with its profile.

// bothLayouts runs f under the Mely queue layout and the list layout,
// stealing enabled in both.
func bothLayouts(t *testing.T, f func(t *testing.T, pol Policy)) {
	for _, pol := range []Policy{PolicyMelyWS, PolicyLibasyncWS} {
		t.Run(pol.String(), func(t *testing.T) { f(t, pol) })
	}
}

// spinFor busy-waits: a handler body of a known length.
func spinFor(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// TestDrainNeverEarly: every handler continues its own color first (the
// post that takes over the running event's pending count), then posts to
// other colors, then keeps running while its continuation sits queued.
// Drain callers racing the chains must only ever return with every
// posted event executed and no handler running. One handler kind panics
// after handing its count on, one fails a continuation post first and
// one posts only to another core, so a count can be neither dropped
// (Drain returns early) nor leaked (Drain never returns).
func TestDrainNeverEarly(t *testing.T) {
	bothLayouts(t, func(t *testing.T, pol Policy) {
		r := startRuntime(t, Config{Cores: 2, Policy: pol})
		var posted, executed, running atomic.Int64
		colors := append(colorsOn(r, 0, 8), colorsOn(r, 1, 8)...)

		enter := func() func() {
			running.Add(1)
			return func() { running.Add(-1); executed.Add(1) }
		}
		// post counts the event before it can run, and uncounts a refused one.
		post := func(ctx *Ctx, h Handler, color Color, data any) error {
			posted.Add(1)
			err := ctx.Post(h, color, data)
			if err != nil {
				posted.Add(-1)
			}
			return err
		}
		leaf := r.Register("leaf", func(ctx *Ctx) { defer enter()() })
		var work, bomb, orphan Handler
		// next continues the chain on the running color with one of the
		// three hop kinds.
		next := func(ctx *Ctx, depth int) {
			if depth <= 0 {
				return
			}
			h := []Handler{work, bomb, orphan}[depth%3]
			if err := post(ctx, h, ctx.Color(), depth-1); err != nil {
				t.Error(err)
			}
		}
		work = r.Register("work", func(ctx *Ctx) {
			defer enter()()
			depth := ctx.Data().(int)
			next(ctx, depth)
			for i := 0; i < 2; i++ {
				if err := post(ctx, leaf, colors[(depth+i)%len(colors)], nil); err != nil {
					t.Error(err)
				}
			}
			// A second continuation of the running color counts for itself.
			if err := post(ctx, leaf, ctx.Color(), nil); err != nil {
				t.Error(err)
			}
			spinFor(20 * time.Microsecond)
		})
		bomb = r.Register("bomb", func(ctx *Ctx) {
			defer enter()()
			next(ctx, ctx.Data().(int))
			panic("after the hand-off")
		})
		orphan = r.Register("orphan", func(ctx *Ctx) {
			defer enter()()
			if err := post(ctx, Handler{id: 1 << 20}, ctx.Color(), nil); err == nil {
				t.Error("post to an unknown handler succeeded")
			}
			next(ctx, ctx.Data().(int))
			spinFor(5 * time.Microsecond)
		})

		// solo posts to the other core first and outlives that event: a
		// count handed to anything but the running color would reach zero
		// while solo still runs.
		solo := r.Register("solo", func(ctx *Ctx) {
			defer enter()()
			if err := post(ctx, leaf, colors[len(colors)-1], nil); err != nil {
				t.Error(err)
			}
			spinFor(200 * time.Microsecond)
		})

		roots := make([]BatchEvent, len(colors))
		for i, c := range colors {
			roots[i] = BatchEvent{Handler: work, Color: c, Data: 30}
		}
		for round := 0; round < 40; round++ {
			if round%2 == 0 {
				posted.Add(int64(len(roots)))
				if err := r.PostBatch(roots); err != nil {
					t.Fatal(err)
				}
			} else {
				posted.Add(1)
				if err := r.Post(solo, colors[0], nil); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			for d := 0; d < 4; d++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
					defer cancel()
					if err := r.Drain(ctx); err != nil {
						t.Errorf("round %d: drain: %v (pending=%d: the count is off)", round, err, r.pending.Load())
						return
					}
					if run, ex, po := running.Load(), executed.Load(), posted.Load(); run != 0 || ex != po {
						t.Errorf("round %d: Drain returned with %d handlers running, %d of %d events executed",
							round, run, ex, po)
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
		}
		if got := r.Stats().Total().Panics; got == 0 {
			t.Error("no handler panicked: the panic-after-hand-off case did not run")
		}
	})
}

// spanRecord is what one handler execution saw of its causal ids.
type spanRecord struct{ span, parent, trace uint64 }

// spanLog collects span records per executing core (each slice is
// appended only by that core's worker) and checks them.
type spanLog struct{ perCore [2][]spanRecord }

func (l *spanLog) note(ctx *Ctx) {
	l.perCore[ctx.CoreID()] = append(l.perCore[ctx.CoreID()],
		spanRecord{ctx.ev.SpanID, ctx.ev.ParentSpan, ctx.ev.TraceID})
}

// check asserts that no span id was seen twice and that every parent is
// a recorded span of the same trace; it returns the number of events.
func (l *spanLog) check(t *testing.T) int {
	t.Helper()
	traceOf := map[uint64]uint64{}
	for _, recs := range l.perCore {
		for _, rec := range recs {
			if rec.span == 0 {
				t.Fatal("an event ran without a span id")
			}
			if _, dup := traceOf[rec.span]; dup {
				t.Fatalf("span id %d seen twice", rec.span)
			}
			traceOf[rec.span] = rec.trace
		}
	}
	for _, recs := range l.perCore {
		for _, rec := range recs {
			if rec.parent == 0 {
				if rec.trace != rec.span {
					t.Fatalf("root span %d carries trace %d", rec.span, rec.trace)
				}
				continue
			}
			if pt, ok := traceOf[rec.parent]; !ok || pt != rec.trace {
				t.Fatalf("span %d: parent %d unresolved or of another trace (%d vs %d)",
					rec.span, rec.parent, pt, rec.trace)
			}
		}
	}
	return len(traceOf)
}

// TestSpanIDsUnique: span ids drawn from per-core blocks (Ctx.Post and
// timer firings on both cores), from the shared sequence (external
// Post), from per-batch blocks (PostBatch) and minted at spill time
// never collide, and every child still names its parent.
func TestSpanIDsUnique(t *testing.T) {
	bothLayouts(t, testSpanIDsUnique)
}

func testSpanIDsUnique(t *testing.T, pol Policy) {
	t.Run("memory", func(t *testing.T) {
		r := startRuntime(t, Config{Cores: 2, Policy: pol})
		var log spanLog
		var ran atomic.Int64
		var hop Handler
		hop = r.Register("hop", func(ctx *Ctx) {
			log.note(ctx)
			defer ran.Add(1)
			n := ctx.Data().(int)
			if n == 0 {
				return
			}
			if err := ctx.Post(hop, ctx.Color(), n-1); err != nil {
				t.Error(err)
			}
			if n%64 == 0 {
				if _, err := ctx.PostAfter(hop, ctx.Color(), time.Millisecond, 0); err != nil {
					t.Error(err)
				}
			}
		})
		const (
			chainHops = 165 // a chain arms a timer at hops 128 and 64
			perPoster = 15000
			timers    = 1000
			want      = 1024*(chainHops+1+2) + 2*perPoster + timers
		)
		colors := append(colorsOn(r, 0, 512), colorsOn(r, 1, 512)...)
		batch := make([]BatchEvent, len(colors))
		for i, c := range colors {
			batch[i] = BatchEvent{Handler: hop, Color: c, Data: chainHops}
		}
		var wg sync.WaitGroup
		for p := 0; p < 2; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perPoster; i++ {
					if err := r.Post(hop, colors[(i*2+p)%len(colors)], 0); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		for i := 0; i < len(batch); i += 64 {
			if err := r.PostBatch(batch[i : i+64]); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < timers; i++ {
			if _, err := r.PostAfter(hop, colors[i], time.Duration(i)*time.Microsecond, 0); err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
		// Armed timers are not pending events: wait for the count, then
		// drain to order the workers' log appends before the check.
		for deadline := time.Now().Add(60 * time.Second); ran.Load() < want && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		drain(t, r)
		if n := log.check(t); n != want {
			t.Fatalf("%d events ran, want %d", n, want)
		}
	})
	t.Run("spill", func(t *testing.T) {
		r := startRuntime(t, Config{Cores: 2, Policy: pol, MaxQueuedEvents: 64, OverloadPolicy: OverloadSpill})
		var log spanLog
		var hop Handler
		hop = r.Register("hop", func(ctx *Ctx) {
			log.note(ctx)
			if n := ctx.Data().(int); n > 0 {
				if err := ctx.Post(hop, ctx.Color(), n-1); err != nil {
					t.Error(err)
				}
			}
		})
		colors := append(colorsOn(r, 0, 4), colorsOn(r, 1, 4)...)
		batch := make([]BatchEvent, 64)
		for i := range batch {
			batch[i] = BatchEvent{Handler: hop, Color: colors[i%len(colors)], Data: 3}
		}
		for i := 0; i < 100; i++ {
			if err := r.PostBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		drain(t, r)
		st := r.Stats()
		if st.SpilledEvents == 0 || st.SpilledEvents != st.ReloadedEvents {
			t.Fatalf("spilled=%d reloaded=%d: no clean spill round trip", st.SpilledEvents, st.ReloadedEvents)
		}
		if n, want := log.check(t), 100*64*4; n != want {
			t.Fatalf("%d events ran, want %d", n, want)
		}
	})
}

// TestProfileTracksHandler: the profile a worker feeds in means of
// profFeedEvery executions still tracks the handler — seeded by the
// first execution, within 2x of the handler's measured time after 64
// executions spread over both cores, following a 10x shift within 256 —
// and an annotated handler's estimate never moves.
func TestProfileTracksHandler(t *testing.T) {
	bothLayouts(t, testProfileTracksHandler)
}

func testProfileTracksHandler(t *testing.T, pol Policy) {
	r := startRuntime(t, Config{Cores: 2, Policy: pol})
	var length atomic.Int64 // the handler's current spin, ns
	var spent, runs atomic.Int64
	h := r.Register("spin", func(ctx *Ctx) {
		t0 := time.Now()
		spinFor(time.Duration(length.Load()))
		spent.Add(time.Since(t0).Nanoseconds())
		runs.Add(1)
	})
	pinned := r.Register("pinned", func(ctx *Ctx) {}, WithCostEstimate(5*time.Millisecond))
	colors := []Color{colorsOn(r, 0, 1)[0], colorsOn(r, 1, 1)[0]}
	estimate := func(h Handler) int64 { return (*r.handlers.Load())[h.id-1].prof.Estimate() }
	// run executes n events of h, alternating cores, and returns the mean
	// handler time the handler itself measured.
	run := func(h Handler, n int) int64 {
		spent.Store(0)
		runs.Store(0)
		for i := 0; i < n; i++ {
			if err := r.Post(h, colors[i%2], nil); err != nil {
				t.Fatal(err)
			}
		}
		drain(t, r)
		return spent.Load() / max(runs.Load(), 1)
	}
	// tracks runs n more executions and wants the estimate within 2x of
	// what the handler measured of itself.
	tracks := func(what string, n int) {
		t.Helper()
		measured := run(h, n)
		if est := estimate(h); est < measured/2 || est > measured*2 {
			t.Errorf("%s: estimate %d ns, handler measured %d ns", what, est, measured)
		}
	}

	length.Store((50 * time.Microsecond).Nanoseconds())
	tracks("after the first execution", 1)
	tracks("after 64 executions", 63)
	length.Store((500 * time.Microsecond).Nanoseconds())
	tracks("256 executions after a 10x shift", 256)

	run(pinned, 100)
	if got := estimate(pinned); got != (5 * time.Millisecond).Nanoseconds() {
		t.Errorf("annotated estimate moved to %d ns", got)
	}
}

// TestRegisterWhileRunning: Register beside running workers publishes
// each handler together with its profile, so an event of a handler
// registered a moment ago executes (and is profiled) without racing the
// registration of the next one.
func TestRegisterWhileRunning(t *testing.T) {
	r := startRuntime(t, Config{Cores: 2})
	var ran atomic.Int64
	var hop Handler
	hop = r.Register("hop", func(ctx *Ctx) {
		ran.Add(1)
		if n := ctx.Data().(int); n > 0 {
			if err := ctx.Post(hop, ctx.Color(), n-1); err != nil {
				t.Error(err)
			}
		}
	})
	const chain, perGoroutine = 20000, 200
	for core := 0; core < 2; core++ {
		if err := r.Post(hop, colorsOn(r, core, 1)[0], chain-1); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				h := r.Register(fmt.Sprintf("late-%d-%d", g, i), func(ctx *Ctx) { ran.Add(1) })
				if err := r.Post(h, Color(100+i), nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	drain(t, r)
	if got, want := ran.Load(), int64(2*chain+2*perGoroutine); got != want {
		t.Fatalf("%d events ran, want %d", got, want)
	}
}

// TestHotFieldLayout pins which fields may share a 64-byte cache line.
// events_chain moves ±8 % on field order alone (PR 17), so a change that
// adds, drops or resizes a field of rcore or Runtime has to keep the
// words one side writes per event off the lines the other side reads.
func TestHotFieldLayout(t *testing.T) {
	type span struct {
		name     string
		off, len uintptr
	}
	disjoint := func(what string, a, b []span) {
		t.Helper()
		for _, x := range a {
			for _, y := range b {
				if x.off/64 <= (y.off+y.len-1)/64 && y.off/64 <= (x.off+x.len-1)/64 {
					t.Errorf("%s: %s (offset %d, %d bytes) shares a cache line with %s (offset %d, %d bytes)",
						what, x.name, x.off, x.len, y.name, y.off, y.len)
				}
			}
		}
	}
	var c rcore
	disjoint("rcore, worker-written against lock-guarded or poster-read",
		[]span{
			{"run", unsafe.Offsetof(c.run), unsafe.Sizeof(c.run)},
			{"runLeft", unsafe.Offsetof(c.runLeft), unsafe.Sizeof(c.runLeft)},
			{"runOpen", unsafe.Offsetof(c.runOpen), unsafe.Sizeof(c.runOpen)},
			{"ids", unsafe.Offsetof(c.ids), unsafe.Sizeof(c.ids)},
		},
		[]span{
			{"lock", unsafe.Offsetof(c.lock), unsafe.Sizeof(c.lock)},
			{"Core", unsafe.Offsetof(c.Core), unsafe.Sizeof(c.Core)},
			{"runCQ", unsafe.Offsetof(c.runCQ), unsafe.Sizeof(c.runCQ)},
			{"qlen", unsafe.Offsetof(c.qlen), unsafe.Sizeof(c.qlen)},
			{"stealLen", unsafe.Offsetof(c.stealLen), unsafe.Sizeof(c.stealLen)},
			{"arrivals", unsafe.Offsetof(c.arrivals), unsafe.Sizeof(c.arrivals)},
		})
	var r Runtime
	disjoint("Runtime, written per event against read per event",
		[]span{
			{"pending", unsafe.Offsetof(r.pending), unsafe.Sizeof(r.pending)},
			{"drainWaiters", unsafe.Offsetof(r.drainWaiters), unsafe.Sizeof(r.drainWaiters)},
		},
		[]span{
			{"stopped", unsafe.Offsetof(r.stopped), unsafe.Sizeof(r.stopped)},
			{"stealMon", unsafe.Offsetof(r.stealMon), unsafe.Sizeof(r.stealMon)},
			{"handlers", unsafe.Offsetof(r.handlers), unsafe.Sizeof(r.handlers)},
			{"epoch", unsafe.Offsetof(r.epoch), unsafe.Sizeof(r.epoch)},
		})
	// The poll counters, written on every reactor wakeup, fill the
	// 128-byte size class so no other object shares their lines.
	if size := unsafe.Sizeof(pollCounters{}); size != 128 {
		t.Errorf("pollCounters is %d bytes, want 128", size)
	}
}
