package sim

import (
	"testing"

	"github.com/melyruntime/mely/internal/equeue"
	"github.com/melyruntime/mely/internal/policy"
	"github.com/melyruntime/mely/internal/topology"
)

func TestPostAfterDeliversInOrder(t *testing.T) {
	eng := newEngine(t, policy.Mely(), nil)
	var order []int
	h := eng.Register("tick", func(ctx *Ctx, ev *equeue.Event) {
		order = append(order, ev.Data.(int))
	}, HandlerOpts{DefaultCost: 100})
	eng.Seed(func(ctx *Ctx) {
		ctx.PostAfter(3_000_000, Ev{Handler: h, Color: 1, Data: 3})
		ctx.PostAfter(1_000_000, Ev{Handler: h, Color: 1, Data: 1})
		ctx.PostAfter(2_000_000, Ev{Handler: h, Color: 1, Data: 2})
		ctx.PostAfter(1_000_000, Ev{Handler: h, Color: 1, Data: 11}) // FIFO tie-break
	})
	eng.RunUntil(10_000_000)
	want := []int{1, 11, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTimersKeepIdleMachineAlive(t *testing.T) {
	// With no queued events, the machine must fast-forward to the next
	// timer rather than quiescing or spinning to the horizon.
	eng := newEngine(t, policy.Mely(), nil)
	fired := false
	h := eng.Register("late", func(ctx *Ctx, ev *equeue.Event) { fired = true }, HandlerOpts{DefaultCost: 10})
	eng.Seed(func(ctx *Ctx) {
		ctx.PostAfter(50_000_000, Ev{Handler: h, Color: 1})
	})
	eng.RunUntil(60_000_000)
	if !fired {
		t.Fatal("timer event did not fire")
	}
	if eng.TimersPending() != 0 {
		t.Fatalf("timers pending = %d", eng.TimersPending())
	}
	// Idle cores fast-forwarded: their idle cycles cover the gap.
	run := eng.Metrics(60_000_000)
	if run.Total().IdleCycles == 0 {
		t.Fatal("fast-forward must account idle time")
	}
}

func TestTimerBeyondHorizonStays(t *testing.T) {
	eng := newEngine(t, policy.Mely(), nil)
	fired := false
	h := eng.Register("later", func(ctx *Ctx, ev *equeue.Event) { fired = true }, HandlerOpts{DefaultCost: 10})
	eng.Seed(func(ctx *Ctx) {
		ctx.PostAfter(100_000_000, Ev{Handler: h, Color: 1})
	})
	eng.RunUntil(1_000_000)
	if fired {
		t.Fatal("timer fired before its deadline")
	}
	if eng.TimersPending() != 1 {
		t.Fatalf("timer lost: pending = %d", eng.TimersPending())
	}
	eng.RunUntil(200_000_000)
	if !fired {
		t.Fatal("timer did not fire after the horizon advanced")
	}
}

func TestLeaseOwnershipRevertsOnDrain(t *testing.T) {
	// A stolen color's events run on the thief; once the color drains,
	// new posts go back to the hash core.
	eng := newEngine(t, policy.MelyBaseWS(), func(ctx *Ctx) bool { return true })
	// Pick a color (clear of the filler range) whose mix-hash home is
	// core 1 — away from core 0, where the events are placed.
	var col equeue.Color
	for c := equeue.Color(200); ; c++ {
		if eng.table.Hash(c) == 1 {
			col = c
			break
		}
	}
	coresSeen := map[int]bool{}
	h := eng.Register("work", func(ctx *Ctx, ev *equeue.Event) {
		coresSeen[ctx.Core()] = true
	}, HandlerOpts{})
	filler := eng.Register("filler", func(ctx *Ctx, ev *equeue.Event) {}, HandlerOpts{})
	eng.Seed(func(ctx *Ctx) {
		// Load core 0 heavily so thieves steal from it, and place two
		// events of our color there explicitly.
		for i := 0; i < 50; i++ {
			ctx.PostTo(0, Ev{Handler: filler, Color: equeue.Color(100 + i), Cost: 50_000})
		}
		ctx.PostTo(0, Ev{Handler: h, Color: col, Cost: 40_000})
		ctx.PostTo(0, Ev{Handler: h, Color: col, Cost: 40_000})
	})
	eng.RunUntil(20_000_000)
	if eng.Pending() != 0 {
		t.Fatalf("pending = %d", eng.Pending())
	}
	// The color has drained everywhere: a fresh post must route to its
	// hash home (core 1), regardless of where it was stolen to.
	ranOn := -1
	h2 := eng.Register("probe", func(ctx *Ctx, ev *equeue.Event) { ranOn = ctx.Core() }, HandlerOpts{})
	eng.Seed(func(ctx *Ctx) {
		ctx.Post(Ev{Handler: h2, Color: col, Cost: 10})
	})
	eng.RunUntil(40_000_000)
	if ranOn != 1 {
		t.Fatalf("drained color ran on core %d, want hash home 1", ranOn)
	}
}

// TestInjectedEventFollowsLease: a timed event of a color whose lease
// ended goes to the color's hash home, as a post does. Color 3 is pinned
// to core 0, away from its home 1 (color%2); its run there re-arms it, and
// the machine then idles until the timer fires — so the run ends, and the
// lease with it, in fastForward.
func TestInjectedEventFollowsLease(t *testing.T) {
	eng, err := New(Config{
		Topology: topology.Uniform(2),
		Policy:   policy.MelyTimeLeftWS(),
		Params:   DefaultParams(),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ranOn []int
	var h equeue.HandlerID
	h = eng.Register("rearm", func(ctx *Ctx, ev *equeue.Event) {
		ranOn = append(ranOn, ctx.Core())
		if len(ranOn) == 1 {
			ctx.PostAfter(1_000_000, Ev{Handler: h, Color: 3, Cost: 100})
		}
	}, HandlerOpts{})
	eng.Seed(func(ctx *Ctx) {
		ctx.PostTo(0, Ev{Handler: h, Color: 3, Cost: 100})
	})
	eng.RunUntil(10_000_000)
	if len(ranOn) != 2 || ranOn[0] != 0 || ranOn[1] != 1 {
		t.Fatalf("runs landed on %v, want [0 1]: the timed event must follow the ended lease home", ranOn)
	}
}

func TestBusContentionSlowsConcurrentMisses(t *testing.T) {
	// Two far-apart cores streaming remote data must take longer than
	// one, because misses share the bus.
	run := func(twoStreams bool) int64 {
		eng := newEngine(t, policy.Mely(), nil)
		h := eng.Register("stream", func(ctx *Ctx, ev *equeue.Event) {}, HandlerOpts{})
		alloc := eng.Register("alloc", func(ctx *Ctx, ev *equeue.Event) {
			// Allocate two arrays on core 0, then have remote cores
			// stream them chunk by chunk.
			a := ctx.NewDataID()
			b := ctx.NewDataID()
			ctx.Touch(a, 1<<20)
			ctx.Touch(b, 1<<20)
			for i := 0; i < 16; i++ {
				ctx.PostTo(4, Ev{Handler: h, Color: 50, Cost: 100,
					DataID: a, DataSize: 1 << 20, Footprint: 64 << 10})
				if twoStreams {
					ctx.PostTo(6, Ev{Handler: h, Color: 60, Cost: 100,
						DataID: b, DataSize: 1 << 20, Footprint: 64 << 10})
				}
			}
		}, HandlerOpts{})
		eng.Seed(func(ctx *Ctx) {
			ctx.PostTo(0, Ev{Handler: alloc, Color: 1, Cost: 100})
		})
		eng.RunUntil(1 << 40)
		return eng.Metrics(1).Total().BusWaitCycles
	}
	if one, two := run(false), run(true); two <= one {
		t.Fatalf("bus wait with two streams (%d) must exceed one stream (%d)", two, one)
	}
}

func TestStealIntervalsParam(t *testing.T) {
	params := DefaultParams()
	params.StealIntervals = 1
	eng, err := New(Config{
		Topology: newEngine(t, policy.Mely(), nil).Topology(),
		Policy:   policy.MelyTimeLeftWS(),
		Params:   params,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := eng.Register("w", func(ctx *Ctx, ev *equeue.Event) {}, HandlerOpts{})
	eng.Seed(func(ctx *Ctx) {
		for i := 0; i < 100; i++ {
			ctx.PostTo(0, Ev{Handler: h, Color: equeue.Color(i + 1), Cost: 30_000})
		}
	})
	eng.RunUntil(100_000_000)
	if eng.Metrics(1).Total().Steals == 0 {
		t.Fatal("single-interval stealing queue must still steal")
	}
}
