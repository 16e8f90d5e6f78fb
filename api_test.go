package mely

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/melyruntime/mely/internal/equeue"
)

func TestPostBatchExecutesAll(t *testing.T) {
	for _, pol := range []Policy{PolicyMelyWS, PolicyMely, PolicyLibasync} {
		t.Run(pol.String(), func(t *testing.T) {
			r := startRuntime(t, Config{Cores: 4, Policy: pol})
			var count atomic.Int64
			h := r.Register("count", func(ctx *Ctx) { count.Add(1) })
			batch := make([]BatchEvent, 0, 64)
			total := 0
			for round := 0; round < 20; round++ {
				batch = batch[:0]
				for i := 0; i < 64; i++ {
					batch = append(batch, BatchEvent{Handler: h, Color: Color(round*64 + i + 1), Data: i})
					total++
				}
				if err := r.PostBatch(batch); err != nil {
					t.Fatal(err)
				}
			}
			drain(t, r)
			if got := count.Load(); got != int64(total) {
				t.Fatalf("executed %d events, want %d", got, total)
			}
			if bt := r.Stats().Total().BatchedEvents; bt == 0 {
				t.Fatal("no events accounted to the batched path")
			}
		})
	}
}

func TestPostBatchPreservesColorOrder(t *testing.T) {
	// Per-color FIFO: a batch's same-color events must execute in batch
	// order even though the batch is regrouped by owning core.
	r := startRuntime(t, Config{Cores: 4})
	type rec struct {
		mu  sync.Mutex
		seq map[Color][]int
	}
	state := rec{seq: map[Color][]int{}}
	h := r.Register("rec", func(ctx *Ctx) {
		state.mu.Lock()
		state.seq[ctx.Color()] = append(state.seq[ctx.Color()], ctx.Data().(int))
		state.mu.Unlock()
	})
	const colors, perColor = 8, 50
	batch := make([]BatchEvent, 0, colors*perColor)
	for i := 0; i < perColor; i++ {
		for c := 0; c < colors; c++ {
			batch = append(batch, BatchEvent{Handler: h, Color: Color(c + 1), Data: i})
		}
	}
	if err := r.PostBatch(batch); err != nil {
		t.Fatal(err)
	}
	drain(t, r)
	for c, seq := range state.seq {
		if len(seq) != perColor {
			t.Fatalf("color %d executed %d events, want %d", c, len(seq), perColor)
		}
		for i, v := range seq {
			if v != i {
				t.Fatalf("color %d ran out of order: %v", c, seq)
			}
		}
	}
}

func TestPostBatchValidation(t *testing.T) {
	r := newRuntime(t, Config{Cores: 2})
	h := r.Register("ok", func(ctx *Ctx) {})
	if err := r.PostBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	err := r.PostBatch([]BatchEvent{
		{Handler: h, Color: 1},
		{Handler: Handler{id: 99}, Color: 2}, // unknown: reject whole batch
	})
	if err == nil {
		t.Fatal("batch with unknown handler must fail")
	}
	// Regression: a zero-value Handler in the FIRST entry must not slip
	// past the handler-pricing memo (whose sentinel must not collide
	// with id 0) — it once enqueued HandlerID(-1) and crashed a worker.
	if err := r.PostBatch([]BatchEvent{{Color: 1}}); err == nil {
		t.Fatal("batch with zero-value handler must fail")
	}
	if got := r.pending.Load(); got != 0 {
		t.Fatalf("rejected batch leaked %d pending events", got)
	}
	r.Stop()
	if err := r.PostBatch([]BatchEvent{{Handler: h, Color: 1}}); !errors.Is(err, ErrStopped) {
		t.Fatalf("PostBatch after Stop = %v, want ErrStopped", err)
	}
}

func TestCtxPostBatch(t *testing.T) {
	r := startRuntime(t, Config{Cores: 2})
	var count atomic.Int64
	leaf := r.Register("leaf", func(ctx *Ctx) { count.Add(1) })
	fan := r.Register("fan", func(ctx *Ctx) {
		batch := make([]BatchEvent, 16)
		for i := range batch {
			batch[i] = BatchEvent{Handler: leaf, Color: Color(i + 10)}
		}
		if err := ctx.PostBatch(batch); err != nil {
			t.Error(err)
		}
	})
	if err := r.Post(fan, 1, nil); err != nil {
		t.Fatal(err)
	}
	drain(t, r)
	if got := count.Load(); got != 16 {
		t.Fatalf("fan-out executed %d, want 16", got)
	}
}

func TestRegisterTyped(t *testing.T) {
	type job struct{ n int }
	r := startRuntime(t, Config{Cores: 2})
	var sum atomic.Int64
	var h TypedHandler[*job]
	h = RegisterTyped(r, "typed", func(ctx *TypedCtx[*job]) {
		j := ctx.Data() // no assertion
		sum.Add(int64(j.n))
		if j.n > 1 {
			if err := h.Post(ctx.Color(), &job{n: j.n - 1}); err != nil {
				t.Error(err)
			}
		}
	})
	if err := h.Post(5, &job{n: 10}); err != nil {
		t.Fatal(err)
	}
	drain(t, r)
	if got := sum.Load(); got != 55 {
		t.Fatalf("typed chain sum = %d, want 55", got)
	}
}

func TestTypedBatchAndForeignPayload(t *testing.T) {
	r := startRuntime(t, Config{Cores: 2})
	var sum, zeros atomic.Int64
	h := RegisterTyped(r, "typed", func(ctx *TypedCtx[int]) {
		if ctx.Data() == 0 {
			zeros.Add(1)
		}
		sum.Add(int64(ctx.Data()))
	})
	batch := []BatchEvent{h.Event(1, 10), h.Event(2, 20), h.Event(3, 30)}
	if err := r.PostBatch(batch); err != nil {
		t.Fatal(err)
	}
	// A foreign payload through the untyped handle yields the zero T.
	if err := r.Post(h.Untyped(), 4, "not an int"); err != nil {
		t.Fatal(err)
	}
	drain(t, r)
	if got := sum.Load(); got != 60 {
		t.Fatalf("typed batch sum = %d, want 60", got)
	}
	if got := zeros.Load(); got != 1 {
		t.Fatalf("foreign payload: zero-value executions = %d, want 1", got)
	}
}

func TestRunLifecycle(t *testing.T) {
	r := newRuntime(t, Config{Cores: 2})
	var count atomic.Int64
	h := r.Register("work", func(ctx *Ctx) { count.Add(1) })
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- r.Run(ctx) }()
	// Wait for Start inside Run, then load it up.
	for !r.started.Load() {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 200; i++ {
		if err := r.Post(h, Color(i%16+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run = %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	// Run drained before stopping: nothing may be dropped.
	if got := count.Load(); got != 200 {
		t.Fatalf("executed %d, want 200 (Run must drain)", got)
	}
	if err := r.Post(h, 1, nil); !errors.Is(err, ErrStopped) {
		t.Fatalf("Post after Run = %v, want ErrStopped", err)
	}
}

func TestCloseDuringRunUnblocksDrain(t *testing.T) {
	// Regression: Run drains with an uncancellable context; a Close that
	// drops queued events must fail that drain with ErrStopped instead
	// of leaving Run (and any Drain waiter) hung forever.
	r := newRuntime(t, Config{Cores: 1})
	h := r.Register("slow", func(ctx *Ctx) { time.Sleep(5 * time.Millisecond) })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- r.Run(ctx) }()
	for !r.started.Load() {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 50; i++ {
		if err := r.Post(h, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	r.Close() // drops the queued remainder
	cancel()
	select {
	case err := <-done:
		// nil only if every event completed before Close; with 50
		// serialized 5ms events that cannot happen, so the drain must
		// have observed the stop.
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("Run after Close = %v, want ErrStopped", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run hung after Close dropped queued events")
	}
}

func TestConcurrentStartClose(t *testing.T) {
	// Regression: Close racing Start (the `go rt.Run(ctx)` + `defer
	// rt.Close()` pattern) must not interleave wg.Wait with Start's
	// worker registration — a WaitGroup-misuse panic under -race.
	for i := 0; i < 100; i++ {
		r := newRuntime(t, Config{Cores: 4})
		done := make(chan struct{})
		go func() {
			_ = r.Start()
			close(done)
		}()
		r.Close()
		<-done
		r.Close()
	}
}

func TestCloseIdempotent(t *testing.T) {
	r := newRuntime(t, Config{Cores: 2})
	if err := r.Close(); err != nil {
		t.Fatalf("Close before Start = %v", err)
	}
	r2 := newRuntime(t, Config{Cores: 2})
	if err := r2.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := r2.Close(); err != nil {
			t.Fatalf("Close #%d = %v", i, err)
		}
	}
	h := r2.Register("late", func(ctx *Ctx) {})
	if err := r2.Post(h, 1, nil); !errors.Is(err, ErrStopped) {
		t.Fatalf("Post after Close = %v, want ErrStopped", err)
	}
}

func TestUnparkWakesPromptly(t *testing.T) {
	// Regression for the missed-wakeup window: with a long park timeout,
	// a post racing park must still execute quickly. Before the fix,
	// unpark read the parked flag before park stored it and the post
	// waited out the full timeout.
	r := startRuntime(t, Config{Cores: 1, parkTimeout: 10 * time.Second})
	done := make(chan struct{}, 1)
	h := r.Register("wake", func(ctx *Ctx) { done <- struct{}{} })
	for i := 0; i < 50; i++ {
		time.Sleep(time.Duration(i%5) * 100 * time.Microsecond) // jitter around park entry
		if err := r.Post(h, 1, nil); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("post %d not executed: missed wakeup (worker parked through it)", i)
		}
	}
}

// TestShardCollisionLeaseStress is the ownership-lease stress for the
// sharded table: many posters, the batch path, and thieves hammer a set
// of colors that all collide in ONE table shard and all hash-home to
// core 0, so steals, re-homes, and shard-map mutations interleave as
// densely as possible. Run with -race. Asserts conservation (every
// event runs exactly once) and the color-serialization invariant.
func TestShardCollisionLeaseStress(t *testing.T) {
	r := startRuntime(t, Config{Cores: 4, Policy: PolicyMelyWS, parkTimeout: 50 * time.Microsecond})

	// Colors homing on core 0 AND sharing one shard.
	shard := -1
	var hot []Color
	for c := uint64(1); len(hot) < 6; c++ {
		col := equeue.Color(c)
		if r.table.Hash(col) != 0 {
			continue
		}
		if shard < 0 {
			shard = r.table.ShardOf(col)
		}
		if r.table.ShardOf(col) == shard {
			hot = append(hot, Color(c))
		}
	}

	var count atomic.Int64
	inFlight := make([]atomic.Int32, len(hot))
	idx := make(map[Color]int, len(hot))
	for i, c := range hot {
		idx[c] = i
	}
	h := r.Register("burst", func(ctx *Ctx) {
		i := idx[ctx.Color()]
		if inFlight[i].Add(1) != 1 {
			t.Error("two events of one color ran concurrently")
		}
		count.Add(1)
		deadline := time.Now().Add(10 * time.Microsecond)
		for time.Now().Before(deadline) {
		}
		inFlight[i].Add(-1)
	}, WithCostEstimate(10*time.Microsecond))

	var wg sync.WaitGroup
	const posters, bursts, perBurst = 4, 40, 24
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			batch := make([]BatchEvent, 0, perBurst)
			for b := 0; b < bursts; b++ {
				if p%2 == 0 {
					// Half the posters use the batched path.
					batch = batch[:0]
					for i := 0; i < perBurst; i++ {
						batch = append(batch, BatchEvent{Handler: h, Color: hot[(p+i)%len(hot)]})
					}
					if err := r.PostBatch(batch); err != nil {
						t.Error(err)
						return
					}
				} else {
					for i := 0; i < perBurst; i++ {
						if err := r.Post(h, hot[(p+i)%len(hot)], nil); err != nil {
							t.Error(err)
							return
						}
					}
				}
				// Let bursts drain so leases revert and re-home.
				time.Sleep(time.Duration(150+p*41) * time.Microsecond)
			}
		}(p)
	}
	wg.Wait()
	drain(t, r)
	if got := count.Load(); got != posters*bursts*perBurst {
		t.Fatalf("executed %d, want %d (events lost or duplicated)", got, posters*bursts*perBurst)
	}
}
