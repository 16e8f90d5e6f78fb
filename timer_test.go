package mely

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/melyruntime/mely/internal/equeue"
)

// waitFor polls cond (with a parked sleep) until it holds or the
// deadline expires.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPostAfterFires(t *testing.T) {
	r := startRuntime(t, Config{Cores: 2})
	var (
		fired atomic.Int64
		got   atomic.Value
	)
	h := r.Register("expire", func(ctx *Ctx) {
		got.Store([2]any{ctx.Color(), ctx.Data()})
		fired.Add(1)
	})
	start := time.Now()
	tm, err := r.PostAfter(h, Color(42), 20*time.Millisecond, "payload")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "timer to fire", func() bool { return fired.Load() == 1 })
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("timer fired %v early", 20*time.Millisecond-elapsed)
	}
	pair := got.Load().([2]any)
	if pair[0].(Color) != 42 || pair[1].(string) != "payload" {
		t.Fatalf("expiry saw color=%v data=%v", pair[0], pair[1])
	}
	waitFor(t, 10*time.Second, "handle to retire", tm.Fired)
	if tm.Cancel() {
		t.Fatal("Cancel after firing must report false")
	}
	st := r.Stats()
	if st.Total().TimersFired != 1 {
		t.Fatalf("TimersFired = %d, want 1", st.Total().TimersFired)
	}
	var hist int64
	for _, n := range st.Total().TimerLagHist {
		hist += n
	}
	if hist != 1 {
		t.Fatalf("lag histogram holds %d entries, want 1", hist)
	}
}

func TestPostAtAndValidation(t *testing.T) {
	r := startRuntime(t, Config{Cores: 1})
	var fired atomic.Int64
	h := r.Register("at", func(ctx *Ctx) { fired.Add(1) })
	if _, err := r.PostAt(h, 1, time.Now().Add(10*time.Millisecond), nil); err != nil {
		t.Fatal(err)
	}
	// A past deadline clamps to "now" rather than failing.
	if _, err := r.PostAt(h, 1, time.Now().Add(-time.Hour), nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "both PostAt timers", func() bool { return fired.Load() == 2 })

	if _, err := r.PostEvery(h, 1, 0, nil); err == nil {
		t.Fatal("PostEvery with zero interval must fail")
	}
	if _, err := r.PostAfter(Handler{}, 1, time.Millisecond, nil); err == nil {
		t.Fatal("PostAfter with the zero handler must fail")
	}
}

func TestPostAfterAfterStop(t *testing.T) {
	r := newRuntime(t, Config{Cores: 1})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	h := r.Register("never", func(ctx *Ctx) {})
	r.Stop()
	if _, err := r.PostAfter(h, 1, time.Millisecond, nil); !errors.Is(err, ErrStopped) {
		t.Fatalf("PostAfter after Stop = %v, want ErrStopped", err)
	}
}

func TestPostEveryPeriodicAndCancel(t *testing.T) {
	r := startRuntime(t, Config{Cores: 2})
	var ticks atomic.Int64
	h := r.Register("tick", func(ctx *Ctx) { ticks.Add(1) })
	tm, err := r.PostEvery(h, Color(9), 10*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "at least 5 periodic firings", func() bool { return ticks.Load() >= 5 })
	if !tm.Cancel() {
		t.Fatal("Cancel of a live periodic timer must succeed")
	}
	after := ticks.Load()
	time.Sleep(60 * time.Millisecond)
	// One occurrence may have been mid-flight at cancel time; none after.
	if got := ticks.Load(); got > after+1 {
		t.Fatalf("periodic fired %d times after cancel", got-after)
	}
	if r.Stats().TimersCanceled != 1 {
		t.Fatalf("TimersCanceled = %d, want 1", r.Stats().TimersCanceled)
	}
}

func TestTimerReset(t *testing.T) {
	r := startRuntime(t, Config{Cores: 1})
	var fired atomic.Int64
	h := r.Register("reset", func(ctx *Ctx) { fired.Add(1) })
	// The deadline is 15 sleeps away so that a test goroutine kept off a
	// loaded 2-CPU host for a few of them still resets an armed timer.
	const keepAlive = 150 * time.Millisecond
	tm, err := r.PostAfter(h, 3, keepAlive, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Keep-alive: push the deadline out a few times, then let it fire.
	for i := 0; i < 3; i++ {
		time.Sleep(10 * time.Millisecond)
		if !tm.Reset(keepAlive) {
			t.Fatalf("Reset %d of an armed timer failed", i)
		}
	}
	if fired.Load() != 0 {
		t.Fatal("timer fired despite keep-alive resets")
	}
	waitFor(t, 10*time.Second, "reset timer to fire", func() bool { return fired.Load() == 1 })
	if tm.Reset(time.Millisecond) {
		t.Fatal("Reset of a fired one-shot must report false")
	}
	time.Sleep(20 * time.Millisecond)
	if fired.Load() != 1 {
		t.Fatal("failed Reset still re-armed the timer")
	}
}

// TestTimerCancelRacingExpiry is the exact-once contract under fire:
// for every timer, exactly one of {handler ran, Cancel returned true}.
func TestTimerCancelRacingExpiry(t *testing.T) {
	r := startRuntime(t, Config{Cores: 4, timerTick: time.Millisecond})
	const n = 2000
	ran := make([]atomic.Int32, n)
	h := r.Register("race", func(ctx *Ctx) {
		if ran[ctx.Data().(int)].Add(1) != 1 {
			t.Error("timer handler ran twice")
		}
	})
	timers := make([]*Timer, n)
	for i := 0; i < n; i++ {
		tm, err := r.PostAfter(h, Color(i%37+1), time.Duration(i%4)*time.Millisecond, i)
		if err != nil {
			t.Fatal(err)
		}
		timers[i] = tm
	}
	canceled := make([]bool, n)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += 4 {
				canceled[i] = timers[i].Cancel()
			}
		}(g)
	}
	wg.Wait()
	drain(t, r)
	// Let any in-flight deliveries land before the final audit.
	waitFor(t, 10*time.Second, "all survivors to run", func() bool {
		for i := range timers {
			if !canceled[i] && ran[i].Load() == 0 {
				return false
			}
		}
		return true
	})
	for i := range timers {
		if canceled[i] && ran[i].Load() != 0 {
			t.Fatalf("timer %d both canceled and ran", i)
		}
	}
	st := r.Stats()
	total := st.Total().TimersFired + st.TimersCanceled
	if total != n {
		t.Fatalf("fired %d + canceled %d != %d", st.Total().TimersFired, st.TimersCanceled, n)
	}
}

// TestTimerCallbackSerializedWithEvents is the tentpole invariant: a
// timer callback for color C never runs concurrently with an event of
// color C — no user locking, ever. Run with -race; steal-heavy config.
func TestTimerCallbackSerializedWithEvents(t *testing.T) {
	r := startRuntime(t, Config{Cores: 4, Policy: PolicyMelyWS, timerTick: time.Millisecond})
	const colors = 8
	var (
		inFlight [colors]atomic.Int32
		state    [colors]int // unsynchronized: the serialization IS the lock
		events   atomic.Int64
	)
	body := func(ctx *Ctx) {
		idx := ctx.Data().(int)
		if inFlight[idx].Add(1) != 1 {
			t.Error("same-color timer callback and event ran concurrently")
		}
		state[idx]++
		inFlight[idx].Add(-1)
		events.Add(1)
	}
	hEvent := r.Register("event", body)
	hTimer := r.Register("timer", body)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				idx := (p + i) % colors
				if err := r.Post(hEvent, Color(idx+1), idx); err != nil {
					return
				}
				if i%8 == 0 {
					if _, err := r.PostAfter(hTimer, Color(idx+1), time.Duration(i%3)*time.Millisecond, idx); err != nil {
						return
					}
				}
			}
		}(p)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	drain(t, r)
	if events.Load() == 0 {
		t.Fatal("workload executed nothing")
	}
}

// TestTimersFireAcrossSteal pins the one timer-routing rule: a steal
// moves queues, not timers. Core 0's worker is blocked on one color
// while a backlog of other colors (with pending timers) accumulates
// there; the idle core steals the backlog, the timers stay on core 0's
// wheel, and each fires from it exactly once — delivered to whichever
// core owns the color then, serialized with the color's other events.
func TestTimersFireAcrossSteal(t *testing.T) {
	r := startRuntime(t, Config{Cores: 2, Policy: PolicyMelyWS, timerTick: time.Millisecond})
	release := make(chan struct{})
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock() // a failed check must not leave Stop waiting on the blocker
	hBlock := r.Register("block", func(ctx *Ctx) { <-release })

	cols := colorsOn(r, 0, 5)
	blocker := cols[0]
	victims := cols[1:]
	ran := make([]atomic.Int32, len(victims))
	inColor := make([]atomic.Int32, len(victims)) // handlers inside each color right now
	enter := func(ctx *Ctx, i int) {
		if n := inColor[i].Add(1); n != 1 {
			t.Errorf("color %d: %d handlers running at once", i, n)
		}
		if owner := r.table.Owner(equeue.Color(ctx.Color())); owner != ctx.CoreID() {
			t.Errorf("color %d runs on core %d while core %d owns it", i, ctx.CoreID(), owner)
		}
	}
	hWork := r.Register("work", func(ctx *Ctx) {
		i := ctx.Data().(int)
		enter(ctx, i)
		time.Sleep(200 * time.Microsecond)
		inColor[i].Add(-1)
	}, WithCostEstimate(5*time.Millisecond))
	hTimer := r.Register("timer", func(ctx *Ctx) {
		i := ctx.Data().(int)
		enter(ctx, i)
		ran[i].Add(1)
		inColor[i].Add(-1)
	})

	if err := r.Post(hBlock, blocker, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "blocker to occupy core 0", func() bool {
		c := r.cores[0]
		c.lock.Lock()
		col, running := c.RunningColor()
		running = running && col == equeue.Color(blocker)
		c.lock.Unlock()
		return running
	})
	// Timers, then a backlog, on the victim colors, all homed on core 0
	// (timers first: a color stolen already would arm on the thief).
	for i, col := range victims {
		if _, err := r.PostAfter(hTimer, col, 40*time.Millisecond, i); err != nil {
			t.Fatal(err)
		}
	}
	for i, col := range victims {
		for j := 0; j < 20; j++ {
			if err := r.Post(hWork, col, i); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The idle core 1 must batch-steal the worthy victim colors.
	waitFor(t, 10*time.Second, "a steal to happen", func() bool {
		return r.Stats().Cores[1].Steals > 0
	})
	if st := r.Stats(); st.Cores[0].TimersPending != len(victims) || st.Cores[1].TimersPending != 0 {
		t.Fatalf("TimersPending after the steal = %d/%d, want %d/0: a steal touches no wheel",
			st.Cores[0].TimersPending, st.Cores[1].TimersPending, len(victims))
	}
	unblock()
	waitFor(t, 10*time.Second, "all timers to fire", func() bool {
		n := 0
		for i := range ran {
			n += int(ran[i].Load())
		}
		return n >= len(victims)
	})
	drain(t, r)
	for i := range victims {
		if got := ran[i].Load(); got != 1 {
			t.Fatalf("timer %d fired %d times, want exactly 1", i, got)
		}
	}
	st := r.Stats()
	if st.Cores[1].StolenColors == 0 {
		t.Fatalf("no colors migrated; steal stats: %+v", st.Cores[1])
	}
	if st.Cores[0].TimersFired != int64(len(victims)) || st.Cores[1].TimersFired != 0 {
		t.Fatalf("TimersFired = %d/%d, want %d/0: a timer fires from the wheel it was armed on",
			st.Cores[0].TimersFired, st.Cores[1].TimersFired, len(victims))
	}
}

// TestTimersAcrossReHome exercises the full lease cycle end to end:
// a color is stolen away, drains on the thief, which ends its lease, and
// a later post lands at home — while it still has an armed timer, which
// must fire exactly once.
func TestTimersAcrossReHome(t *testing.T) {
	r := startRuntime(t, Config{Cores: 2, Policy: PolicyMelyWS, timerTick: time.Millisecond})
	release := make(chan struct{})
	// A failed wait must not leave the blocker holding Stop forever.
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	hBlock := r.Register("block", func(ctx *Ctx) { <-release })
	hWork := r.Register("work", func(ctx *Ctx) { time.Sleep(200 * time.Microsecond) },
		WithCostEstimate(5*time.Millisecond))
	// Unannotated, so never worth a steal: the idle thief cannot take the
	// color straight back from its home before the owner is read.
	hPoke := r.Register("poke", func(ctx *Ctx) {})
	var fired atomic.Int64
	hTimer := r.Register("timer", func(ctx *Ctx) { fired.Add(1) })

	cols := colorsOn(r, 0, 2)
	blocker, migrant := cols[0], cols[1]
	if err := r.Post(hBlock, blocker, nil); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 30; j++ {
		if err := r.Post(hWork, migrant, j); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.PostAfter(hTimer, migrant, 150*time.Millisecond, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "the migrant color to be stolen", func() bool {
		return r.table.Owner(equeue.Color(migrant)) == 1
	})
	// Let the thief drain the color, which ends its lease, then post
	// again: the post goes home, behind the blocker.
	waitFor(t, 10*time.Second, "the migrant color to drain on the thief", func() bool {
		c := r.cores[1]
		c.lock.Lock()
		live := c.ColorLive(equeue.Color(migrant), nil)
		c.lock.Unlock()
		return !live && r.table.Queue(equeue.Color(migrant)) == nil
	})
	if err := r.Post(hPoke, migrant, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "the color to re-home", func() bool {
		return r.table.Owner(equeue.Color(migrant)) == 0
	})
	close(release)
	waitFor(t, 10*time.Second, "the re-homed color's timer to fire", func() bool {
		return fired.Load() == 1
	})
	drain(t, r)
	if fired.Load() != 1 {
		t.Fatalf("timer fired %d times across steal+re-home, want 1", fired.Load())
	}
}
