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

// asleep reports whether every worker of r sits in park's sleep: nothing
// queued, no wake token pending, and (parks being an hour long in this
// file) a park counter that has stopped moving.
func asleep(r *Runtime) bool {
	parks := func() (n int64) {
		for _, c := range r.Stats().Cores {
			n += c.Parks
		}
		return n
	}
	before := parks()
	time.Sleep(2 * time.Millisecond)
	for _, c := range r.cores {
		if c.qlen.Load() != 0 || len(c.wake) != 0 {
			return false
		}
	}
	return parks() == before
}

// TestNoLostWakeups is the stress test of the park/unpark protocol.
// ParkTimeout and StealBackoff are an hour, so nothing self-heals: a
// worker that parks past a post, a timer arm, a migrated timer or Stop
// hangs the test into await's deadline. Every wake source is driven
// against workers that are parked or just about to be.
func TestNoLostWakeups(t *testing.T) {
	for _, pol := range []Policy{PolicyMelyWS, PolicyLibasyncWS} {
		t.Run(pol.String(), func(t *testing.T) {
			r := startRuntime(t, Config{
				Cores:        2,
				Policy:       pol,
				ParkTimeout:  time.Hour,
				StealBackoff: time.Hour,
				TimerTick:    time.Millisecond,
			})
			on0, on1 := colorsOn(r, 0, 3), colorsOn(r, 1, 2)
			done := make(chan struct{}, 1)
			release := make(chan struct{})
			var releaseOnce sync.Once
			unblock := func() { releaseOnce.Do(func() { close(release) }) }
			t.Cleanup(unblock) // runs before startRuntime's Stop, which waits for the handler

			// Every handler is registered before the first post:
			// registering against executing workers is not this test.
			const rounds = 100_000
			hOnce := r.Register("once", func(ctx *Ctx) { done <- struct{}{} })
			blocked := make(chan struct{}, 1)
			hBlock := r.Register("block", func(ctx *Ctx) {
				blocked <- struct{}{}
				<-release
			})
			hWork := r.Register("work", func(ctx *Ctx) {}, WithCostEstimate(5*time.Millisecond))
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

			// A steal carries a color's timer to the thief, which then
			// parks against its own wheel: core 0 stays blocked, so only
			// the thief's park bound can fire the timer.
			blocker, migrant, bystander := on0[0], on0[1], on0[2]
			if err := r.Post(hBlock, blocker, nil); err != nil {
				t.Fatal(err)
			}
			await(t, blocked, "core 0 to block")
			// Two queued colors: the base algorithm takes a color only
			// while it holds at most half the victim's events.
			for j := 0; j < 8; j++ {
				if err := r.Post(hWork, bystander, nil); err != nil {
					t.Fatal(err)
				}
			}
			for j := 0; j < 4; j++ {
				if err := r.Post(hWork, migrant, nil); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := r.PostAfter(hOnce, migrant, 50*time.Millisecond, nil); err != nil {
				t.Fatal(err)
			}
			steals, fires := r.Stats().Cores[1].Steals, r.Stats().Cores[1].TimersFired
			if err := r.Post(hOnce, on1[1], nil); err != nil { // wakes the thief-to-be
				t.Fatal(err)
			}
			await(t, done, "post to the idle core")
			waitFor(t, 10*time.Second, "core 1 to steal the migrant color", func() bool {
				return r.Stats().Cores[1].Steals > steals && r.table.Owner(equeue.Color(migrant)) == 1
			})
			// The fired event follows the drained color's lease back to
			// the blocked core 0, so the firing itself is the evidence.
			waitFor(t, 10*time.Second, "the migrated timer to fire on the parked thief", func() bool {
				return r.Stats().Cores[1].TimersFired > fires
			})
			unblock()
			await(t, done, "the fired timer's event")
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
	seed := r.cfg.StealCostSeed.Nanoseconds()
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
