package sim

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/melyruntime/mely/internal/equeue"
	"github.com/melyruntime/mely/internal/policy"
	"github.com/melyruntime/mely/internal/topology"
)

// TestRandomWorkloadsInvariants generates random handler graphs and
// checks the engine's fundamental invariants under every policy: no
// event is lost or duplicated, no two events of one color ever overlap
// in virtual time, and the color table holds only live leases. This is
// the failure-injection net under the calibrated experiments: whatever a
// workload does — fan-out, chains, reposts to shared colors, data
// touches, timers — the scheduler must hold these properties.
func TestRandomWorkloadsInvariants(t *testing.T) {
	policies := []policy.Config{
		policy.Libasync(), policy.LibasyncWS(),
		policy.Mely(), policy.MelyBaseWS(), policy.MelyTimeLeftWS(), policy.MelyWS(),
	}
	for seed := int64(1); seed <= 6; seed++ {
		for _, pol := range policies {
			pol := pol
			rng := rand.New(rand.NewSource(seed * 997))
			t.Run(pol.String(), func(t *testing.T) {
				runRandomWorkload(t, pol, rng)
			})
		}
	}
}

func runRandomWorkload(t *testing.T, pol policy.Config, rng *rand.Rand) {
	t.Helper()
	eng, err := New(Config{
		Topology: topology.IntelXeonE5410(),
		Policy:   pol,
		Params:   DefaultParams(),
		Seed:     rng.Int63(),
	})
	if err != nil {
		t.Fatal(err)
	}

	type span struct{ start, end int64 }
	var (
		executed  int
		spawned   int
		intervals = map[equeue.Color][]span{}
		handlers  []equeue.HandlerID
	)
	const seeds = 120
	nHandlers := rng.Intn(4) + 2
	budget := 2000 // total spawn budget across the run
	for i := 0; i < nHandlers; i++ {
		i := i
		var h equeue.HandlerID
		h = eng.Register("rnd", func(ctx *Ctx, ev *equeue.Event) {
			executed++
			checkLeases(t, eng, ctx.Core(), ev.Color, seeds)
			end := ctx.Now()
			intervals[ev.Color] = append(intervals[ev.Color], span{end - ev.Cost, end})
			// Random continuation behaviour.
			r := ctx.Rand()
			fanout := 0
			switch r.Intn(4) {
			case 0:
				fanout = 1 // chain
			case 1:
				fanout = 2 // fork
			}
			for f := 0; f < fanout && spawned < budget; f++ {
				spawned++
				color := ev.Color
				if r.Intn(2) == 0 {
					color = equeue.Color(r.Intn(24) + 1)
				}
				next := handlers[r.Intn(len(handlers))]
				ev2 := Ev{
					Handler: next,
					Color:   color,
					Cost:    int64(r.Intn(20_000) + 50),
				}
				if r.Intn(3) == 0 {
					ev2.DataID = uint64(r.Intn(8) + 1)
					ev2.Footprint = int64(r.Intn(32)+1) << 10
				}
				if r.Intn(5) == 0 {
					ctx.PostAfter(int64(r.Intn(200_000)+1), ev2)
				} else {
					ctx.Post(ev2)
				}
			}
			_ = i
		}, HandlerOpts{Penalty: int32(rng.Intn(10) + 1)})
		handlers = append(handlers, h)
	}

	eng.Seed(func(ctx *Ctx) {
		for i := 0; i < seeds; i++ {
			spawned++
			// Explicit placement needs fresh colors (PostTo refuses to
			// split a live color); handlers later repost onto the
			// shared colors 1..24 through the owner-routed Post.
			ctx.PostTo(rng.Intn(8), Ev{
				Handler: handlers[rng.Intn(len(handlers))],
				Color:   equeue.Color(100 + i),
				Cost:    int64(rng.Intn(30_000) + 50),
			})
		}
	})
	eng.RunUntil(1 << 36)

	if eng.Pending() != 0 || eng.TimersPending() != 0 {
		t.Fatalf("run did not drain: pending=%d timers=%d", eng.Pending(), eng.TimersPending())
	}
	if executed != spawned {
		t.Fatalf("conservation broken: executed %d of %d spawned", executed, spawned)
	}
	for color, spans := range intervals {
		sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
		for i := 1; i < len(spans); i++ {
			if spans[i].start < spans[i-1].end {
				t.Fatalf("color %d: overlapping executions [%d,%d) and [%d,%d)",
					color, spans[i-1].start, spans[i-1].end, spans[i].start, spans[i].end)
			}
		}
	}
}

// checkLeases is the color table's invariant, checked from a handler of
// color on core: the executing core owns the color, and every owner entry
// (a color owned away from its hash home) names a core the color is live
// on — its lease ends when it drains there. The workload's colors are
// 1..24 and 100..100+seeds-1.
func checkLeases(t *testing.T, eng *Engine, core int, color equeue.Color, seeds int) {
	t.Helper()
	if owner := eng.table.Owner(color); owner != core {
		t.Fatalf("color %d executes on core %d, owned by core %d", color, core, owner)
	}
	check := func(c equeue.Color) {
		owner := eng.table.Owner(c)
		if owner != eng.table.Hash(c) && !eng.cores[owner].ColorLive(c, eng.table.Queue(c)) {
			t.Fatalf("owner entry %d -> core %d names a color not live there", c, owner)
		}
	}
	for c := equeue.Color(1); c <= 24; c++ {
		check(c)
	}
	for i := 0; i < seeds; i++ {
		check(equeue.Color(100 + i))
	}
}
