package mely

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOverloadRejectErrorsIs: external posts past the bound fail with
// ErrOverloaded (detected via errors.Is), and the rejection is counted.
func TestOverloadRejectErrorsIs(t *testing.T) {
	r := newRuntime(t, Config{Cores: 1, MaxQueuedEvents: 4})
	defer r.Close()
	h := r.Register("noop", func(ctx *Ctx) {})

	// Not started: events stay queued, so the bound is hit exactly.
	for i := 0; i < 4; i++ {
		if err := r.Post(h, Color(i), i); err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
	}
	err := r.Post(h, 99, "over")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-bound post = %v, want ErrOverloaded", err)
	}
	if fmt.Sprintf("%v", err) == "" {
		t.Fatal("ErrOverloaded must have a message")
	}
	s := r.Stats()
	if s.RejectedPosts != 1 {
		t.Fatalf("RejectedPosts = %d, want 1", s.RejectedPosts)
	}
	if s.QueuedEvents != 4 {
		t.Fatalf("QueuedEvents = %d, want 4", s.QueuedEvents)
	}
}

// TestOverloadRejectPerColor: the per-color bound saturates one color
// while its neighbors keep posting.
func TestOverloadRejectPerColor(t *testing.T) {
	r := newRuntime(t, Config{Cores: 1, MaxQueuedPerColor: 2})
	defer r.Close()
	h := r.Register("noop", func(ctx *Ctx) {})

	for i := 0; i < 2; i++ {
		if err := r.Post(h, 7, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Post(h, 7, "over"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("per-color over-bound post = %v, want ErrOverloaded", err)
	}
	if !r.Saturated(7) {
		t.Fatal("Saturated(7) must report the full color")
	}
	if r.Saturated(8) {
		t.Fatal("Saturated(8) must not: other colors are unaffected")
	}
	if err := r.Post(h, 8, "fine"); err != nil {
		t.Fatalf("neighbor color post: %v", err)
	}
}

// TestOverloadBlockPostVsDrain: a poster blocked at the bound and a
// concurrent Drain must both complete once the workers drain the
// queues — the Post-vs-Drain interleaving of the Block policy.
func TestOverloadBlockPostVsDrain(t *testing.T) {
	r := newRuntime(t, Config{
		Cores:           2,
		MaxQueuedEvents: 2,
		OverloadPolicy:  OverloadBlock,
	})
	defer r.Close()

	gate := make(chan struct{})
	var executed atomic.Int64
	h := r.Register("gated", func(ctx *Ctx) {
		<-gate
		executed.Add(1)
	})

	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	// Fill the bound (the workers pick events up but the handler gates).
	for i := 0; i < 2; i++ {
		if err := r.Post(h, Color(i), i); err != nil {
			t.Fatal(err)
		}
	}
	// Blocked poster.
	posted := make(chan error, 1)
	go func() { posted <- r.Post(h, 50, "blocked") }()
	// Concurrent drainer.
	drained := make(chan error, 1)
	go func() { drained <- r.Drain(context.Background()) }()

	select {
	case err := <-posted:
		t.Fatalf("post returned %v before the queue drained", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(gate) // release the handlers: queue drains, poster unblocks
	if err := <-posted; err != nil {
		t.Fatalf("blocked post: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := r.Drain(context.Background()); err != nil {
		t.Fatalf("final drain: %v", err)
	}
	if got := executed.Load(); got != 3 {
		t.Fatalf("executed %d events, want 3", got)
	}
	if s := r.Stats(); s.BlockedPosts < 1 {
		t.Fatalf("BlockedPosts = %d, want >= 1", s.BlockedPosts)
	}
}

// TestOverloadBlockContextCancel: PostContext bounds the Block wait.
func TestOverloadBlockContextCancel(t *testing.T) {
	r := newRuntime(t, Config{
		Cores:           1,
		MaxQueuedEvents: 1,
		OverloadPolicy:  OverloadBlock,
	})
	defer r.Close()
	h := r.Register("noop", func(ctx *Ctx) {})
	if err := r.Post(h, 1, nil); err != nil { // fills the bound (not started)
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := r.PostContext(ctx, h, 2, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("PostContext = %v, want DeadlineExceeded", err)
	}
}

// TestOverloadBlockStopReleases: Stop must release blocked posters
// with ErrStopped instead of leaving them hung.
func TestOverloadBlockStopReleases(t *testing.T) {
	r := newRuntime(t, Config{
		Cores:           1,
		MaxQueuedEvents: 1,
		OverloadPolicy:  OverloadBlock,
	})
	h := r.Register("noop", func(ctx *Ctx) {})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	hGate := r.Register("gate", func(ctx *Ctx) { <-block })
	if err := r.Post(hGate, 1, nil); err != nil {
		t.Fatal(err)
	}
	// The gated handler holds the bound's only slot, so this poster
	// blocks.
	posted := make(chan error, 1)
	go func() { posted <- r.Post(h, 3, nil) }()
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-posted:
		t.Fatalf("post returned %v while the bound was held", err)
	default:
	}
	// Stop with the poster still blocked: it must be released with
	// ErrStopped. Stop itself waits for the gated handler, so release
	// the gate once the stop is underway.
	stopDone := make(chan struct{})
	go func() { r.Stop(); close(stopDone) }()
	select {
	case err := <-posted:
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("blocked post after Stop = %v, want ErrStopped", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked poster hung across Stop")
	}
	close(block)
	select {
	case <-stopDone:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop hung")
	}
}

// opaque is a payload that cannot cross the disk boundary.
type opaque struct{ n int }

// assertAdmissionEmpty checks, after a final Drain, that the admission
// layer holds nothing (admission.Layer.CheckEmpty).
func assertAdmissionEmpty(t *testing.T, r *Runtime) {
	t.Helper()
	if err := r.adm.CheckEmpty(); err != nil {
		t.Errorf("after the drain: %v", err)
	}
}

// TestOverloadSpillZeroLossBoundedDrain is the acceptance test of the
// spill subsystem: a sustained overload run (producer far outpacing
// the consumer past MaxQueuedEvents) under OverloadSpill must hold the
// in-memory queued gauge at or below the configured bound, lose zero
// events, and fully drain after the burst.
func TestOverloadSpillZeroLossBoundedDrain(t *testing.T) {
	const (
		bound  = 64
		total  = 5000
		colors = 4
	)
	dir := t.TempDir()
	r := newRuntime(t, Config{
		Cores:           2,
		MaxQueuedEvents: bound,
		OverloadPolicy:  OverloadSpill,
		SpillDir:        dir,
	})
	defer r.Close()

	var executed atomic.Int64
	var seen [colors]atomic.Int64
	h := r.Register("work", func(ctx *Ctx) {
		// Verify per-color FIFO across the spill boundary: payloads of
		// one color must arrive in posting order.
		idx := int(ctx.Color()) % colors
		want := seen[idx].Add(1) - 1
		if got := int64(ctx.Data().(int)); got != want {
			t.Errorf("color %d: payload %d out of order (want %d)", idx, got, want)
		}
		executed.Add(1)
		time.Sleep(20 * time.Microsecond) // consumer deliberately slow
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}

	// Skewed producer: 70% of the burst lands on one color.
	counts := make([]int, colors)
	var maxQueued int64
	for i := 0; i < total; i++ {
		c := 0
		if i%10 >= 7 {
			c = 1 + i%(colors-1)
		}
		if err := r.Post(h, Color(c), counts[c]); err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
		counts[c]++
		if i%64 == 0 {
			if q := r.Stats().QueuedEvents; q > maxQueued {
				maxQueued = q
			}
		}
	}
	s := r.Stats()
	if s.SpilledEvents == 0 {
		t.Fatal("the burst must actually have spilled (producer too slow?)")
	}
	if q := s.QueuedEvents; q > maxQueued {
		maxQueued = q
	}
	if maxQueued > bound {
		t.Fatalf("in-memory queued events peaked at %d, bound is %d", maxQueued, bound)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.Drain(ctx); err != nil {
		t.Fatalf("drain after burst: %v", err)
	}
	if got := executed.Load(); got != total {
		t.Fatalf("executed %d of %d events (lost %d)", got, total, total-int64(got))
	}
	s = r.Stats()
	if s.ReloadedEvents != s.SpilledEvents {
		t.Fatalf("reloaded %d != spilled %d after full drain", s.ReloadedEvents, s.SpilledEvents)
	}
	if s.SpilledNow != 0 || s.QueuedEvents != 0 {
		t.Fatalf("gauges after drain: disk=%d mem=%d, want 0/0", s.SpilledNow, s.QueuedEvents)
	}
	if s.SpillErrors != 0 {
		t.Fatalf("SpillErrors = %d, want 0 (all payloads encodable)", s.SpillErrors)
	}
	assertAdmissionEmpty(t, r)
	t.Logf("spilled=%d reloaded=%d maxQueued=%d depthHist=%v",
		s.SpilledEvents, s.ReloadedEvents, maxQueued, s.SpillDepthHist)

	// Stop removes the runtime's segment files from the explicit dir.
	r.Stop()
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segs) != 0 {
		t.Fatalf("segment files survived Stop: %v", segs)
	}
}

// TestOverloadSpillStealInterplay: a spilling color must stay visible
// to thieves and its disk tail must follow the color wherever steals
// move it (reloads deliver through the ownership lease). With several
// cores and all load on colors of one home core, stealing happens by
// construction; the invariant checked is zero loss plus serial FIFO
// execution per color.
func TestOverloadSpillStealInterplay(t *testing.T) {
	const total = 3000
	r := newRuntime(t, Config{
		Cores:           4,
		MaxQueuedEvents: 32,
		OverloadPolicy:  OverloadSpill,
	})
	defer r.Close()

	var executed, stolen atomic.Int64
	var mu sync.Mutex
	lastPerColor := map[Color]int{}
	h := r.Register("work", func(ctx *Ctx) {
		mu.Lock()
		if want := lastPerColor[ctx.Color()]; ctx.Data().(int) != want {
			t.Errorf("color %d: got %d, want %d", ctx.Color(), ctx.Data().(int), want)
		}
		lastPerColor[ctx.Color()]++
		mu.Unlock()
		if ctx.Stolen() {
			stolen.Add(1)
		}
		executed.Add(1)
		time.Sleep(5 * time.Microsecond)
	}, WithCostEstimate(100*time.Microsecond))
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}

	// Two fat colors: both will spill; with 4 cores the idle ones must
	// steal them (and the reloaded tails must follow).
	seq := [2]int{}
	for i := 0; i < total; i++ {
		c := Color(1 + i%2)
		if err := r.Post(h, c, seq[i%2]); err != nil {
			t.Fatal(err)
		}
		seq[i%2]++
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != total {
		t.Fatalf("executed %d of %d", got, total)
	}
	s := r.Stats()
	if s.SpilledEvents == 0 {
		t.Fatal("expected spilling under a 32-event bound")
	}
	assertAdmissionEmpty(t, r)
	t.Logf("spilled=%d reloaded=%d stolenEvents=%d", s.SpilledEvents, s.ReloadedEvents, stolen.Load())
}

// TestOverloadSpillUnencodablePayload: payload kinds that cannot cross
// the disk boundary fall back to in-memory delivery (counted, never
// lost).
func TestOverloadSpillUnencodablePayload(t *testing.T) {
	r := newRuntime(t, Config{
		Cores:           1,
		MaxQueuedEvents: 2,
		OverloadPolicy:  OverloadSpill,
	})
	defer r.Close()
	var got atomic.Int64
	h := r.Register("work", func(ctx *Ctx) {
		if o, ok := ctx.Data().(*opaque); ok {
			got.Add(int64(o.n))
		}
	})
	// Fill the bound before starting, then overflow with pointers.
	for i := 0; i < 2; i++ {
		if err := r.Post(h, 1, &opaque{n: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := r.Post(h, 1, &opaque{n: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got.Load() != 5 {
		t.Fatalf("delivered %d payloads, want 5", got.Load())
	}
	if s := r.Stats(); s.SpillErrors != 3 {
		t.Fatalf("SpillErrors = %d, want 3 (unencodable fallbacks)", s.SpillErrors)
	}
}

// TestSpillFallbackWithoutCore: a post from outside any worker that is
// routed to disk and cannot get there — its payload does not encode, or
// the store refuses the append — is delivered in memory instead: one
// SpillErrors, counted once in Pending and QueuedEvents, the color not
// left reading as spilling, and Drain exact.
func TestSpillFallbackWithoutCore(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload any
		breakIt func(r *Runtime)
	}{
		{"unencodable payload", &opaque{1}, func(*Runtime) {}},
		{"store append fails", 1, func(r *Runtime) { r.adm.Store().Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRuntime(t, Config{Cores: 1, MaxQueuedEvents: 2, OverloadPolicy: OverloadSpill})
			defer r.Close()
			var ran atomic.Int64
			h := r.Register("work", func(ctx *Ctx) { ran.Add(1) })
			for i := 0; i < 2; i++ { // fill the bound before starting
				if err := r.Post(h, 1, 0); err != nil {
					t.Fatal(err)
				}
			}
			tc.breakIt(r)
			if err := r.Post(h, 1, tc.payload); err != nil {
				t.Fatal(err)
			}
			s := r.Stats()
			if s.SpillErrors != 1 || s.SpilledEvents != 0 || s.Pending != 3 || s.QueuedEvents != 3 {
				t.Fatalf("after the fallback: SpillErrors=%d SpilledEvents=%d Pending=%d QueuedEvents=%d, want 1 0 3 3",
					s.SpillErrors, s.SpilledEvents, s.Pending, s.QueuedEvents)
			}
			if err := r.Start(); err != nil {
				t.Fatal(err)
			}
			drain(t, r)
			if ran.Load() != 3 || r.pending.Load() != 0 {
				t.Fatalf("Drain returned with %d of 3 events run, pending %d", ran.Load(), r.pending.Load())
			}
			if r.Saturated(1) {
				t.Fatal("color still reads saturated: its disk slot outlived an event that never reached the disk")
			}
			assertAdmissionEmpty(t, r)
		})
	}
}

// TestOverloadSpillCrashOrphanCleanup: stale segment files in an
// explicit SpillDir are removed when the runtime opens it.
func TestOverloadSpillCrashOrphanCleanup(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, "cdeadbeefdeadbeef-000001.seg")
	if err := os.WriteFile(orphan, []byte("stale from a crashed run"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := newRuntime(t, Config{
		Cores:           1,
		MaxQueuedEvents: 8,
		OverloadPolicy:  OverloadSpill,
		SpillDir:        dir,
	})
	defer r.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("crash orphan survived startup: %v", err)
	}
}

// TestOverloadSpillTimerRouting: timer firings of a spilling color join
// the disk tail (FIFO discipline) instead of jumping its queue, and
// nothing is lost. A firing is admission's second caller: one whose
// payload cannot cross the disk boundary gives its disk slot back like a
// post does and runs from memory, exactly once.
func TestOverloadSpillTimerRouting(t *testing.T) {
	for _, tc := range []struct {
		name      string
		payload   any
		spillErrs int64
	}{
		{"encodable", nil, 0},
		{"unencodable", &opaque{1}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRuntime(t, Config{
				Cores:           1,
				MaxQueuedEvents: 4,
				OverloadPolicy:  OverloadSpill,
			})
			defer r.Close()
			var fired, worked atomic.Int64
			hWork := r.Register("work", func(ctx *Ctx) {
				worked.Add(1)
				time.Sleep(50 * time.Microsecond)
			})
			hTimer := r.Register("tick", func(ctx *Ctx) { fired.Add(1) })
			if err := r.Start(); err != nil {
				t.Fatal(err)
			}
			const color = 5
			for i := 0; i < 200; i++ {
				if err := r.Post(hWork, color, i); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := r.PostAfter(hTimer, color, time.Millisecond, tc.payload); err != nil {
				t.Fatal(err)
			}
			drain(t, r)
			if worked.Load() != 200 || fired.Load() != 1 || r.pending.Load() != 0 {
				t.Fatalf("worked=%d fired=%d pending=%d, want 200/1/0", worked.Load(), fired.Load(), r.pending.Load())
			}
			if got := r.Stats().SpillErrors; got != tc.spillErrs {
				t.Fatalf("SpillErrors = %d, want %d", got, tc.spillErrs)
			}
			assertAdmissionEmpty(t, r)
		})
	}
}

// TestOverloadSpillRaceStress hammers a small bound from many posters
// over overlapping colors — the -race exercise of the spill/reload
// protocol (admission shard state, store, reload-enqueue vs steals).
func TestOverloadSpillRaceStress(t *testing.T) {
	const (
		posters   = 8
		perPoster = 400
		colors    = 6
	)
	r := newRuntime(t, Config{
		Cores:             2,
		MaxQueuedEvents:   24,
		MaxQueuedPerColor: 8,
		OverloadPolicy:    OverloadSpill,
	})
	defer r.Close()
	var executed atomic.Int64
	h := r.Register("work", func(ctx *Ctx) {
		executed.Add(1)
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPoster; i++ {
				c := Color((p + i) % colors)
				var err error
				switch i % 3 {
				case 0:
					err = r.Post(h, c, i)
				case 1:
					err = r.PostContext(context.Background(), h, c, int64(i))
				default:
					err = r.PostBatch([]BatchEvent{
						{Handler: h, Color: c, Data: "s"},
					})
				}
				if err != nil {
					t.Errorf("poster %d: %v", p, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != posters*perPoster {
		t.Fatalf("executed %d of %d", got, posters*perPoster)
	}
	s := r.Stats()
	if s.QueuedEvents != 0 || s.SpilledNow != 0 {
		t.Fatalf("gauges after drain: mem=%d disk=%d", s.QueuedEvents, s.SpilledNow)
	}
	if s.ReloadedEvents != s.SpilledEvents {
		t.Fatalf("reloaded %d != spilled %d", s.ReloadedEvents, s.SpilledEvents)
	}
	assertAdmissionEmpty(t, r)
}

// TestUnboundedRuntimeHasNoAdmission: the zero-config fast path must
// not construct the overload layer at all.
func TestUnboundedRuntimeHasNoAdmission(t *testing.T) {
	r := newRuntime(t, Config{Cores: 1})
	defer r.Close()
	if r.adm != nil {
		t.Fatal("unbounded runtime must not build an admission layer")
	}
	if r.Saturated(1) {
		t.Fatal("unbounded runtime can never be saturated")
	}
}
