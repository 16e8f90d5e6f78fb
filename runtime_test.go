package mely

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/melyruntime/mely/internal/equeue"
)

func newRuntime(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func startRuntime(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	r := newRuntime(t, cfg)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	return r
}

// colorsOn returns n distinct colors whose hash home is the given core
// (the 64-bit mix hash made "multiples of Cores" placement tricks
// meaningless, so imbalance-sensitive tests pick colors by search).
func colorsOn(r *Runtime, core, n int) []Color {
	out := make([]Color, 0, n)
	for c := uint64(1); len(out) < n; c++ {
		if r.table.Hash(equeue.Color(c)) == core {
			out = append(out, Color(c))
		}
	}
	return out
}

func drain(t *testing.T, r *Runtime) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.Drain(ctx); err != nil {
		t.Fatalf("drain: %v (pending=%d)", err, r.pending.Load())
	}
}

func TestExecutesPostedEvents(t *testing.T) {
	for _, pol := range []Policy{PolicyMelyWS, PolicyMely, PolicyLibasync, PolicyLibasyncWS, PolicyMelyBaseWS} {
		t.Run(pol.String(), func(t *testing.T) {
			r := startRuntime(t, Config{Cores: 4, Policy: pol})
			var count atomic.Int64
			h := r.Register("count", func(ctx *Ctx) { count.Add(1) })
			for i := 0; i < 500; i++ {
				if err := r.Post(h, Color(i%100+1), i); err != nil {
					t.Fatal(err)
				}
			}
			drain(t, r)
			if got := count.Load(); got != 500 {
				t.Fatalf("executed %d events, want 500", got)
			}
		})
	}
}

func TestColorSerialization(t *testing.T) {
	// The core guarantee: same-color handlers never run concurrently,
	// so unsynchronized per-color state is safe. Run with -race.
	r := startRuntime(t, Config{Cores: 4, Policy: PolicyMelyWS})
	const colors, events = 16, 200
	counters := make([]int, colors) // no locks: colors serialize
	var inFlight [colors]atomic.Int32
	h := r.Register("inc", func(ctx *Ctx) {
		idx := ctx.Data().(int)
		if inFlight[idx].Add(1) != 1 {
			t.Error("two events of one color ran concurrently")
		}
		counters[idx]++
		inFlight[idx].Add(-1)
	})
	for i := 0; i < colors*events; i++ {
		idx := i % colors
		if err := r.Post(h, Color(idx+1), idx); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, r)
	for i, c := range counters {
		if c != events {
			t.Fatalf("color %d executed %d events, want %d", i, c, events)
		}
	}
}

func TestHandlerChaining(t *testing.T) {
	r := startRuntime(t, Config{Cores: 2})
	var sum atomic.Int64
	var h Handler
	h = r.Register("chain", func(ctx *Ctx) {
		n := ctx.Data().(int)
		sum.Add(int64(n))
		if n > 0 {
			if err := ctx.Post(h, ctx.Color(), n-1); err != nil {
				t.Error(err)
			}
		}
	})
	if err := r.Post(h, 7, 10); err != nil {
		t.Fatal(err)
	}
	drain(t, r)
	if got := sum.Load(); got != 55 {
		t.Fatalf("chain sum = %d, want 55", got)
	}
}

func TestWorkstealingSpreadsLoad(t *testing.T) {
	r := startRuntime(t, Config{Cores: 4, Policy: PolicyMelyWS})
	var wg sync.WaitGroup
	wg.Add(400)
	h := r.Register("spin", func(ctx *Ctx) {
		deadline := time.Now().Add(200 * time.Microsecond)
		for time.Now().Before(deadline) {
		}
		wg.Done()
	}, WithCostEstimate(200*time.Microsecond))
	// All colors hash to core 0: a fully imbalanced load.
	for i, col := range colorsOn(r, 0, 400) {
		if err := r.Post(h, col, i); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	drain(t, r)
	st := r.Stats()
	if st.Total().Steals == 0 {
		t.Fatal("no steals despite a fully imbalanced load")
	}
	helpers := 0
	for i := 1; i < len(st.Cores); i++ {
		if st.Cores[i].Events > 0 {
			helpers++
		}
	}
	if helpers == 0 {
		t.Fatal("no other core executed events")
	}
}

func TestBatchStealAccounting(t *testing.T) {
	// Same imbalanced shape as above, under the default (batched) steal
	// protocol: the stats must tie out — every steal lands in exactly
	// one histogram bucket, colors migrated can only exceed steals, and
	// the serial-execution guarantee still holds per color.
	r := startRuntime(t, Config{Cores: 4})
	var wg sync.WaitGroup
	wg.Add(400)
	h := r.Register("spin", func(ctx *Ctx) {
		deadline := time.Now().Add(100 * time.Microsecond)
		for time.Now().Before(deadline) {
		}
		wg.Done()
	}, WithCostEstimate(100*time.Microsecond))
	for i, col := range colorsOn(r, 0, 400) {
		if err := r.Post(h, col, i); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	drain(t, r)
	st := r.Stats().Total()
	if st.Steals == 0 {
		t.Fatal("no steals despite a fully imbalanced load")
	}
	if st.StolenColors < st.Steals {
		t.Fatalf("stolen colors %d < steals %d", st.StolenColors, st.Steals)
	}
	var hist int64
	for _, n := range st.StealBatchHist {
		hist += n
	}
	if hist != st.Steals {
		t.Fatalf("batch histogram sums to %d, want %d steals", hist, st.Steals)
	}
	if got := st.MeanStealBatch(); got < 1 {
		t.Fatalf("mean batch %f < 1", got)
	}
}

func TestNoStealingWhenDisabled(t *testing.T) {
	r := startRuntime(t, Config{Cores: 4, Policy: PolicyMely})
	var wg sync.WaitGroup
	wg.Add(100)
	h := r.Register("work", func(ctx *Ctx) { wg.Done() })
	for i, col := range colorsOn(r, 0, 100) {
		if err := r.Post(h, col, i); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	st := r.Stats()
	if st.Total().Steals != 0 {
		t.Fatal("PolicyMely must not steal")
	}
	for i := 1; i < len(st.Cores); i++ {
		if st.Cores[i].Events != 0 {
			t.Fatalf("core %d executed events without stealing", i)
		}
	}
}

func TestPenaltyAnnotationFlows(t *testing.T) {
	r := newRuntime(t, Config{Cores: 2, Policy: PolicyMelyWS})
	h := r.Register("heavy", func(ctx *Ctx) {}, WithPenalty(1000))
	if err := r.Post(h, 3, nil); err != nil {
		t.Fatal(err)
	}
	// The event sits queued (not started): its penalty must be applied.
	c := r.cores[r.table.Owner(3)]
	c.lock.Lock()
	cq := r.table.Queue(3)
	if cq == nil || cq.Len() != 1 {
		c.lock.Unlock()
		t.Fatal("event not queued where expected")
	}
	if cq.CumCost() >= 1000 {
		c.lock.Unlock()
		t.Fatalf("penalty not applied: cumCost=%d", cq.CumCost())
	}
	c.lock.Unlock()
}

func TestCostAnnotationPinsProfile(t *testing.T) {
	r := newRuntime(t, Config{Cores: 1})
	h := r.Register("fixed", func(ctx *Ctx) {}, WithCostEstimate(5*time.Millisecond))
	if got := (*r.handlers.Load())[h.id-1].prof.Estimate(); got != (5 * time.Millisecond).Nanoseconds() {
		t.Fatalf("annotated estimate = %d", got)
	}
}

func TestProfileLearnsOnline(t *testing.T) {
	r := startRuntime(t, Config{Cores: 1})
	h := r.Register("sleepy", func(ctx *Ctx) { time.Sleep(time.Millisecond) })
	for i := 0; i < 10; i++ {
		if err := r.Post(h, 5, nil); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, r)
	if est := (*r.handlers.Load())[h.id-1].prof.Estimate(); est < (100 * time.Microsecond).Nanoseconds() {
		t.Fatalf("online estimate %dns did not learn a ~1ms handler", est)
	}
}

func TestPostErrors(t *testing.T) {
	r := newRuntime(t, Config{Cores: 1})
	if err := r.Post(Handler{id: 99}, 1, nil); err == nil {
		t.Fatal("unknown handler must fail")
	}
	if err := r.Post(Handler{}, 1, nil); err == nil {
		t.Fatal("zero-value handler must fail")
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	r.Stop()
	h := r.Register("late", func(ctx *Ctx) {})
	if err := r.Post(h, 1, nil); err == nil {
		t.Fatal("post after Stop must fail")
	}
}

func TestLifecycle(t *testing.T) {
	r := newRuntime(t, Config{Cores: 2})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err == nil {
		t.Fatal("double Start must fail")
	}
	r.Stop()
	r.Stop() // idempotent
	if err := r.Start(); err == nil {
		t.Fatal("Start after Stop must fail")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Cores: -1}); err == nil {
		t.Fatal("negative cores must fail")
	}
	if _, err := New(Config{Policy: Policy(99)}); err == nil {
		t.Fatal("invalid policy must fail")
	}
}

func TestConcurrentPosters(t *testing.T) {
	// Many goroutines posting to overlapping colors while workers
	// steal: exercises the ownership retry and merge paths under -race.
	r := startRuntime(t, Config{Cores: 4, Policy: PolicyMelyWS})
	var count atomic.Int64
	h := r.Register("n", func(ctx *Ctx) {
		count.Add(1)
		time.Sleep(10 * time.Microsecond)
	})
	var wg sync.WaitGroup
	const posters, perPoster = 8, 300
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPoster; i++ {
				if err := r.Post(h, Color(i%50+1), nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	drain(t, r)
	if got := count.Load(); got != posters*perPoster {
		t.Fatalf("executed %d, want %d", got, posters*perPoster)
	}
}

func TestDrainTimeout(t *testing.T) {
	r := newRuntime(t, Config{Cores: 1})
	h := r.Register("never", func(ctx *Ctx) {})
	if err := r.Post(h, 1, nil); err != nil {
		t.Fatal(err)
	}
	// Runtime not started: the event can never complete.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := r.Drain(ctx); err == nil {
		t.Fatal("drain must time out when workers are not running")
	}
}

func TestStatsSnapshot(t *testing.T) {
	r := startRuntime(t, Config{Cores: 2, Policy: PolicyMelyWS})
	h := r.Register("w", func(ctx *Ctx) {})
	for i := 0; i < 50; i++ {
		if err := r.Post(h, Color(i+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, r)
	st := r.Stats()
	tot := st.Total()
	if tot.Events != 50 {
		t.Fatalf("stats events = %d, want 50", tot.Events)
	}
	if tot.ExecTime <= 0 {
		t.Fatal("exec time must accumulate")
	}
	if st.StealCostEstimate <= 0 {
		t.Fatal("steal cost estimate must be positive")
	}
	if st.Pending != 0 {
		t.Fatalf("pending = %d after drain", st.Pending)
	}
}

func TestStolenEventsMarked(t *testing.T) {
	r := startRuntime(t, Config{Cores: 4, Policy: PolicyMelyWS})
	var sawStolen atomic.Bool
	var wg sync.WaitGroup
	wg.Add(200)
	h := r.Register("busy", func(ctx *Ctx) {
		if ctx.Stolen() {
			sawStolen.Store(true)
		}
		deadline := time.Now().Add(100 * time.Microsecond)
		for time.Now().Before(deadline) {
		}
		wg.Done()
	}, WithCostEstimate(100*time.Microsecond))
	for _, col := range colorsOn(r, 0, 200) {
		if err := r.Post(h, col, nil); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	drain(t, r)
	if r.Stats().Total().Steals > 0 && !sawStolen.Load() {
		t.Fatal("steals happened but no handler observed Stolen()")
	}
}

func TestHandlerPanicContained(t *testing.T) {
	r := startRuntime(t, Config{Cores: 2})
	var after atomic.Int64
	boom := r.Register("boom", func(ctx *Ctx) { panic("handler bug") })
	ok := r.Register("ok", func(ctx *Ctx) { after.Add(1) })
	if err := r.Post(boom, 3, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Post(ok, 3, nil); err != nil {
		t.Fatal(err)
	}
	drain(t, r)
	if after.Load() != 1 {
		t.Fatal("worker did not survive the panic")
	}
	if got := r.Stats().Total().Panics; got != 1 {
		t.Fatalf("panics = %d, want 1", got)
	}
}

func TestOwnershipLeaseRevertsOnDrain(t *testing.T) {
	// White-box, on a runtime that was never started: a stolen color
	// keeps its lease while it runs on the thief and goes back to its
	// hash core at the pop that finds it drained there, so the next post
	// lands on the hash core.
	r := newRuntime(t, Config{Cores: 4, Policy: PolicyMelyWS, maxStealColors: 1})
	defer r.Stop()
	h := r.Register("w", func(ctx *Ctx) {}, WithCostEstimate(time.Millisecond))
	for _, col := range colorsOn(r, 2, 2) { // hash home: core 2
		if err := r.Post(h, col, nil); err != nil {
			t.Fatal(err)
		}
	}
	home, lessee := r.cores[2], r.cores[1]
	set := &lessee.stealSet
	if !r.detachSet(home, lessee.id, set) {
		t.Fatal("setup: nothing was detached from core 2")
	}
	r.adoptSet(lessee, set)
	col := set.Colors[0]
	if !driveCore(r, lessee) {
		t.Fatal("the lessee found nothing to run")
	}
	if got := r.table.Owner(col); got != 1 {
		t.Fatalf("color owned by core %d while it runs on its lessee, want 1", got)
	}
	if driveCore(r, lessee) {
		t.Fatal("the lessee ran more than the stolen event")
	}
	if got := r.table.Owner(col); got != 2 {
		t.Fatalf("drained color owned by core %d, want hash home 2", got)
	}
	if err := r.Post(h, Color(col), nil); err != nil {
		t.Fatal(err)
	}
	home.lock.Lock()
	qlen := home.Mely().Len()
	home.lock.Unlock()
	if qlen != 2 {
		t.Fatalf("event not queued on the hash core (len=%d, want 2)", qlen)
	}
}

func TestOwnershipLeaseHeldWhileLive(t *testing.T) {
	// A color with pending events must NOT re-home.
	r := newRuntime(t, Config{Cores: 4, Policy: PolicyMelyWS})
	h := r.Register("w", func(ctx *Ctx) {})
	col := colorsOn(r, 2, 1)[0] // hash home: core 2, held live on core 1
	// Place a live event on core 1 the way a steal would: queue plus
	// table entry, under the core's lock.
	c1 := r.cores[1]
	c1.lock.Lock()
	cq := c1.Mely().NewColorQueue(equeue.Color(col))
	c1.Mely().Push(cq, &equeue.Event{Color: equeue.Color(col), Cost: 1, Penalty: 1})
	r.table.SetQueue(equeue.Color(col), cq)
	r.table.SetOwner(equeue.Color(col), 1)
	c1.lock.Unlock()

	if err := r.Post(h, col, nil); err != nil {
		t.Fatal(err)
	}
	if got := r.table.Owner(equeue.Color(col)); got != 1 {
		t.Fatalf("live color re-homed to core %d, want 1", got)
	}
	c1.lock.Lock()
	qlen := c1.Mely().Len()
	c1.lock.Unlock()
	if qlen != 2 {
		t.Fatalf("post did not follow the live lease (len=%d)", qlen)
	}
}

func TestLeaseStealRaceStress(t *testing.T) {
	// Regression for the in-transit window: posters race steals on a
	// handful of colors that repeatedly drain (lease reverts), while
	// workers steal them back and forth. Every event must execute
	// exactly once, with colors never split across cores (-race covers
	// the memory side; the counter covers conservation).
	r := startRuntime(t, Config{Cores: 4, Policy: PolicyMelyWS, parkTimeout: 50 * time.Microsecond})
	var count atomic.Int64
	h := r.Register("burst", func(ctx *Ctx) {
		count.Add(1)
		deadline := time.Now().Add(20 * time.Microsecond)
		for time.Now().Before(deadline) {
		}
	}, WithCostEstimate(20*time.Microsecond))

	var wg sync.WaitGroup
	hot := colorsOn(r, 0, 3)
	const posters, bursts, perBurst = 4, 60, 25
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for b := 0; b < bursts; b++ {
				for i := 0; i < perBurst; i++ {
					// Few colors, all hashing to core 0, so they are
					// constantly stolen away and re-homed on drain.
					if err := r.Post(h, hot[i%3], nil); err != nil {
						t.Error(err)
						return
					}
				}
				// Let the burst drain so leases revert.
				time.Sleep(time.Duration(200+p*37) * time.Microsecond)
			}
		}(p)
	}
	wg.Wait()
	drain(t, r)
	if got := count.Load(); got != posters*bursts*perBurst {
		t.Fatalf("executed %d, want %d (events lost or duplicated)", got, posters*bursts*perBurst)
	}
}
