package mely

import (
	"sync"
	"testing"
	"time"

	"github.com/melyruntime/mely/internal/equeue"
)

// await fails the test when ch stays silent: with hour-long parks a
// missed wake-up is a hang, and this is where it surfaces.
func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(20 * time.Second):
		t.Fatalf("%s: worker slept through a wake-up", what)
	}
}

// asleep reports whether the workers of the given cores (all of r's when
// none is named) sit in park's sleep: nothing queued, no wake token
// pending, and (parks being an hour long in this file) a park counter
// that has stopped moving.
func asleep(r *Runtime, ids ...int) bool {
	if len(ids) == 0 {
		for i := range r.cores {
			ids = append(ids, i)
		}
	}
	parks := func() (n int64) {
		st := r.Stats()
		for _, i := range ids {
			n += st.Cores[i].Parks
		}
		return n
	}
	before := parks()
	time.Sleep(2 * time.Millisecond)
	for _, i := range ids {
		if c := r.cores[i]; c.qlen.Load() != 0 || len(c.wake) != 0 {
			return false
		}
	}
	return parks() == before
}

// TestNoLostWakeups is the stress test of the park/unpark protocol.
// parkTimeout and stealBackoff are an hour, so nothing self-heals: a
// worker that parks past a post, a timer arm, the event of a timer fired
// from another core's wheel or Stop hangs the test into await's
// deadline. Every wake source is driven against workers that are parked
// or just about to be.
func TestNoLostWakeups(t *testing.T) {
	for _, pol := range []Policy{PolicyMelyWS, PolicyLibasyncWS} {
		t.Run(pol.String(), func(t *testing.T) {
			r := startRuntime(t, Config{
				Cores:        2,
				Policy:       pol,
				parkTimeout:  time.Hour,
				stealBackoff: time.Hour,
				timerTick:    time.Millisecond,
			})
			on0, on1 := colorsOn(r, 0, 2), colorsOn(r, 1, 3)
			done := make(chan struct{}, 1)
			// One release per core: hBlock holds the worker it runs on.
			release := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
			var releaseOnce [2]sync.Once
			unblock := func(core int) { releaseOnce[core].Do(func() { close(release[core]) }) }
			// Runs before startRuntime's Stop, which waits for the handlers.
			t.Cleanup(func() { unblock(0); unblock(1) })

			// Every handler is registered before the first post:
			// registering against executing workers is not this test.
			const rounds = 100_000
			hOnce := r.Register("once", func(ctx *Ctx) { done <- struct{}{} })
			blocked := make(chan struct{}, 1)
			hBlock := r.Register("block", func(ctx *Ctx) {
				blocked <- struct{}{}
				<-release[ctx.CoreID()]
			})
			firedOn := make(chan int, 1)
			hFired := r.Register("fired", func(ctx *Ctx) { firedOn <- ctx.CoreID() })
			hWork := r.Register("work", func(ctx *Ctx) {}, WithCostEstimate(5*time.Millisecond))
			const after = 30 * time.Millisecond
			armed := make(chan struct{}, 1)
			hArm := r.Register("arm", func(ctx *Ctx) {
				if ctx.CoreID() != 0 {
					t.Errorf("the migrant color ran on core %d, want its thief, core 0", ctx.CoreID())
				}
				if _, err := ctx.PostAfter(hFired, ctx.Color(), after, nil); err != nil {
					t.Error(err)
				}
				// Core 0 blocks next, long before the timer is due: its
				// worker pops the blocker right after this handler.
				if err := ctx.Post(hBlock, on0[0], nil); err != nil {
					t.Error(err)
				}
				armed <- struct{}{}
			}, WithCostEstimate(5*time.Millisecond))
			var hHop Handler
			hHop = r.Register("hop", func(ctx *Ctx) {
				left := ctx.Data().(int)
				if left == 0 {
					done <- struct{}{}
					return
				}
				next := on0[0]
				if ctx.Color() == on0[0] {
					next = on1[0]
				}
				if err := ctx.Post(hHop, next, left-1); err != nil {
					t.Error(err)
					done <- struct{}{}
				}
			})

			// Posts from outside onto a worker that went idle one event
			// ago, alternating cores; every 2000th round a timer armed
			// ahead of an hour-away one must cut the owner's park short.
			for i := 0; i < rounds; i++ {
				col := on0[0]
				if i%2 == 1 {
					col = on1[0]
				}
				if i%2000 < 2 {
					far, err := r.PostAfter(hOnce, col, time.Hour, nil)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := r.PostAfter(hOnce, col, 2*time.Millisecond, nil); err != nil {
						t.Fatal(err)
					}
					await(t, done, "timer armed ahead of the wheel's earliest deadline")
					if !far.Cancel() {
						t.Fatal("the hour-away timer fired")
					}
				}
				if err := r.Post(hOnce, col, nil); err != nil {
					t.Fatal(err)
				}
				await(t, done, "post from outside")
			}

			// Posts from a handler on the other core: each hop lands on
			// a worker that is on its way to park after the previous hop.
			if err := r.Post(hHop, on0[0], rounds); err != nil {
				t.Fatal(err)
			}
			await(t, done, "post from a handler on the other core")

			// A steal moves queues, not timers: a timer fires from the
			// wheel it was armed on and its event must wake the color's
			// owner like any post. Core 0 steals migrant (homed on core 1)
			// from a blocked core 1 and, running it under that lease, arms
			// the timer: on core 0's wheel. Then the color drains on core
			// 0, its lease ends there, and core 0 blocks on on0[0].
			blocker1, migrant, bystander := on1[0], on1[1], on1[2]
			if err := r.Post(hBlock, blocker1, nil); err != nil {
				t.Fatal(err)
			}
			await(t, blocked, "core 1 to block")
			// Two queued colors: the base algorithm takes a color only
			// while it holds at most half the victim's events.
			for j := 0; j < 8; j++ {
				if err := r.Post(hWork, bystander, nil); err != nil {
					t.Fatal(err)
				}
			}
			for j := 0; j < 3; j++ {
				if err := r.Post(hWork, migrant, nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.Post(hArm, migrant, nil); err != nil {
				t.Fatal(err)
			}
			timersFired := r.Stats().Total().TimersFired
			if err := r.Post(hOnce, on0[1], nil); err != nil { // wakes the thief-to-be
				t.Fatal(err)
			}
			await(t, done, "post to the idle core")
			await(t, armed, "core 0 to steal the migrant color and arm the timer")
			await(t, blocked, "core 0 to block")
			if st := r.Stats(); st.Cores[0].TimersPending != 1 || st.Cores[1].TimersPending != 0 {
				t.Fatalf("timer armed on wheels %d/%d, want 1/0",
					st.Cores[0].TimersPending, st.Cores[1].TimersPending)
			}
			if got := r.table.Owner(equeue.Color(migrant)); got != 1 {
				t.Fatalf("the drained migrant color is owned by core %d, want its home, core 1", got)
			}
			// Core 1 drains what is left and parks for an hour, its own
			// wheel empty, straight through the deadline: the timer waits
			// for core 0.
			unblock(1)
			time.Sleep(after + 10*time.Millisecond)
			waitFor(t, 10*time.Second, "core 1 to park", func() bool { return asleep(r, 1) })
			if n := r.Stats().Total().TimersFired; n != timersFired {
				t.Fatalf("%d timers fired while the arming core was blocked", n-timersFired)
			}
			// Core 0 harvests the timer and delivers its event to the
			// color's home. Only enqueue's unpark can wake core 1 for it.
			unblock(0)
			select {
			case core := <-firedOn:
				if core != 1 {
					t.Fatalf("the timer's event ran on core %d, want the color's home, core 1", core)
				}
			case <-time.After(20 * time.Second):
				t.Fatal("the fired timer's event: worker slept through a wake-up")
			}
			drain(t, r)

			// Stop against two parked workers.
			waitFor(t, 10*time.Second, "both workers to park", func() bool { return asleep(r) })
			stopped := make(chan struct{})
			go func() {
				r.Stop()
				close(stopped)
			}()
			await(t, stopped, "Stop")
		})
	}
}

// TestStealCostOutlierDoesNotLockOutStealing: a thief that loses its CPU
// mid-steal measures milliseconds. The sample the runtime feeds the
// monitor is clamped, and an estimate that is nevertheless too high for
// any color to be worth it decays while probes keep finding unworthy
// work — so a worthy color is stolen again within a bounded number of
// probes instead of never. The runtimes are never started: the test is
// the thief.
func TestStealCostOutlierDoesNotLockOutStealing(t *testing.T) {
	const outlier = int64(5 * time.Millisecond)
	// Two colors of two 1ms events each on core 0, priced against est.
	setup := func(est int64) (r *Runtime, touch func()) {
		r = newRuntime(t, Config{Cores: 2, Policy: PolicyMelyWS})
		if est > 0 {
			r.stealMon.Observe(est) // unclamped: the monitor adopts its first sample whole
		}
		long := r.Register("long", func(ctx *Ctx) {}, WithCostEstimate(time.Millisecond))
		cols := colorsOn(r, 0, 2)
		for _, col := range cols {
			for i := 0; i < 2; i++ {
				if err := r.Post(long, col, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Worthiness is re-priced when a color is touched: a 1ns event
		// stands in for the traffic a live victim would see.
		tiny := r.Register("tiny", func(ctx *Ctx) {}, WithCostEstimate(time.Nanosecond))
		return r, func() {
			for _, col := range cols {
				if err := r.Post(tiny, col, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// Clamp: neither the first measured steal nor a 5ms outlier after
	// it moves the estimate by more than the clamp factor.
	r, _ := setup(0)
	seed := r.cfg.stealCostSeed.Nanoseconds()
	if !r.stealOnce(r.cores[1]) {
		t.Fatal("a 2ms color must be worth a 2µs steal")
	}
	first := r.stealMon.Estimate()
	if first > stealSampleClamp*seed {
		t.Fatalf("first sample moved the estimate from %dns to %dns", seed, first)
	}
	r.observeSteal(outlier)
	if est := r.stealMon.Estimate(); est > stealSampleClamp*first {
		t.Fatalf("a 5ms outlier moved the estimate from %dns to %dns", first, est)
	}

	// Decay: the state the clamp exists to prevent, forced — an estimate
	// above every color's worth. Probes must talk it down.
	r, touch := setup(outlier)
	if r.cores[0].stealLen.Load() != 0 {
		t.Fatalf("a 2ms color looks worth a %dns steal", r.stealMon.Estimate())
	}
	const maxProbes = 200
	probes := 0
	for !r.stealOnce(r.cores[1]) {
		if probes++; probes > maxProbes {
			t.Fatalf("no steal in %d probes: estimate stuck at %dns", maxProbes, r.stealMon.Estimate())
		}
		touch()
	}
	t.Logf("stolen again after %d probes, estimate %dns", probes, r.stealMon.Estimate())
}

// TestResetWakesOnlyForAnEarlierDeadline: the keep-alive use of Reset —
// pushing a deadline out — must leave a parked worker asleep; only a
// deadline moved ahead of the wheel's earliest bound is worth a wake-up.
func TestResetWakesOnlyForAnEarlierDeadline(t *testing.T) {
	r := startRuntime(t, Config{
		Cores:        1,
		parkTimeout:  time.Hour,
		stealBackoff: time.Hour,
		timerTick:    time.Millisecond,
	})
	done := make(chan struct{}, 1)
	h := r.Register("once", func(ctx *Ctx) { done <- struct{}{} })
	tm, err := r.PostAfter(h, 1, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "the worker to park", func() bool { return asleep(r) })
	parks := r.Stats().Cores[0].Parks
	for i := 0; i < 100; i++ {
		if !tm.Reset(2 * time.Hour) {
			t.Fatal("Reset of an armed timer failed")
		}
	}
	if !asleep(r) || r.Stats().Cores[0].Parks != parks {
		t.Fatalf("Parks %d → %d: a deadline pushed out woke the worker", parks, r.Stats().Cores[0].Parks)
	}
	if !tm.Reset(2 * time.Millisecond) {
		t.Fatal("Reset of an armed timer failed")
	}
	await(t, done, "Reset to an earlier deadline")
}
