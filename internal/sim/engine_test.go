package sim

import (
	"sort"
	"testing"

	"github.com/melyruntime/mely/internal/equeue"
	"github.com/melyruntime/mely/internal/obs"
	"github.com/melyruntime/mely/internal/policy"
	"github.com/melyruntime/mely/internal/topology"
)

func newEngine(t *testing.T, pol policy.Config, quiesce func(*Ctx) bool) *Engine {
	t.Helper()
	eng, err := New(Config{
		Topology:    topology.IntelXeonE5410(),
		Policy:      pol,
		Params:      DefaultParams(),
		Seed:        42,
		OnQuiescent: quiesce,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestExecutesSeededEvents(t *testing.T) {
	eng := newEngine(t, policy.Libasync(), nil)
	executed := 0
	h := eng.Register("count", func(ctx *Ctx, ev *equeue.Event) {
		executed++
	}, HandlerOpts{DefaultCost: 100})
	eng.Seed(func(ctx *Ctx) {
		for i := 0; i < 10; i++ {
			ctx.PostTo(0, Ev{Handler: h, Color: equeue.Color(i + 1)})
		}
	})
	eng.RunUntil(1_000_000)
	if executed != 10 {
		t.Fatalf("executed %d events, want 10", executed)
	}
	if !eng.Stopped() {
		t.Error("engine should stop at quiescence with a nil hook")
	}
	run := eng.Metrics(1_000_000)
	if run.Total().Events != 10 {
		t.Errorf("metrics events = %d, want 10", run.Total().Events)
	}
}

func TestHandlerChainsAndPayload(t *testing.T) {
	eng := newEngine(t, policy.Mely(), nil)
	var last equeue.HandlerID
	depth := 0
	last = eng.Register("chain", func(ctx *Ctx, ev *equeue.Event) {
		depth++
		ctx.AddPayload("seen", 1)
		if depth < 5 {
			ctx.Post(Ev{Handler: last, Color: ev.Color, Cost: 50})
		}
	}, HandlerOpts{})
	eng.Seed(func(ctx *Ctx) {
		ctx.PostTo(2, Ev{Handler: last, Color: 9, Cost: 50})
	})
	eng.RunUntil(10_000_000)
	if depth != 5 {
		t.Fatalf("chain depth = %d, want 5", depth)
	}
	if got := eng.Payload()["seen"]; got != 5 {
		t.Errorf("payload = %v, want 5", got)
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() (int64, int64, int64) {
		eng := newEngine(t, policy.LibasyncWS(), nil)
		var h equeue.HandlerID
		h = eng.Register("work", func(ctx *Ctx, ev *equeue.Event) {
			if ev.Cost > 200 && ctx.Rand().Intn(2) == 0 {
				ctx.Post(Ev{Handler: h, Color: ev.Color, Cost: 100})
			}
		}, HandlerOpts{})
		eng.Seed(func(ctx *Ctx) {
			for i := 0; i < 500; i++ {
				cost := int64(100)
				if i%50 == 0 {
					cost = 20_000
				}
				ctx.PostTo(0, Ev{Handler: h, Color: equeue.Color(i + 1), Cost: cost})
			}
		})
		eng.RunUntil(50_000_000)
		run := eng.Metrics(50_000_000)
		tot := run.Total()
		return tot.Events, tot.Steals, tot.StealCycles
	}
	e1, s1, c1 := runOnce()
	e2, s2, c2 := runOnce()
	if e1 != e2 || s1 != s2 || c1 != c2 {
		t.Fatalf("non-deterministic: (%d,%d,%d) vs (%d,%d,%d)", e1, s1, c1, e2, s2, c2)
	}
}

func TestWorkstealingBalancesLoad(t *testing.T) {
	for _, cfg := range []policy.Config{policy.LibasyncWS(), policy.MelyBaseWS(), policy.MelyWS()} {
		t.Run(cfg.String(), func(t *testing.T) {
			eng := newEngine(t, cfg, nil)
			h := eng.Register("work", func(ctx *Ctx, ev *equeue.Event) {}, HandlerOpts{})
			eng.Seed(func(ctx *Ctx) {
				for i := 0; i < 400; i++ {
					ctx.PostTo(0, Ev{Handler: h, Color: equeue.Color(i + 1), Cost: 50_000})
				}
			})
			eng.RunUntil(int64(400) * 60_000)
			run := eng.Metrics(1)
			helpers := 0
			for i := 1; i < len(run.Cores); i++ {
				if run.Cores[i].Events > 0 {
					helpers++
				}
			}
			if helpers == 0 {
				t.Fatal("no other core executed events despite workstealing")
			}
			if run.Total().Steals == 0 {
				t.Fatal("no steals recorded")
			}
		})
	}
}

func TestNoStealWithoutWorkstealing(t *testing.T) {
	for _, cfg := range []policy.Config{policy.Libasync(), policy.Mely()} {
		t.Run(cfg.String(), func(t *testing.T) {
			eng := newEngine(t, cfg, nil)
			h := eng.Register("work", func(ctx *Ctx, ev *equeue.Event) {}, HandlerOpts{})
			eng.Seed(func(ctx *Ctx) {
				for i := 0; i < 100; i++ {
					ctx.PostTo(3, Ev{Handler: h, Color: equeue.Color(i + 1), Cost: 10_000})
				}
			})
			eng.RunUntil(100_000_000)
			run := eng.Metrics(1)
			for i := range run.Cores {
				if i != 3 && run.Cores[i].Events != 0 {
					t.Fatalf("core %d executed %d events without WS", i, run.Cores[i].Events)
				}
			}
			if run.Cores[3].Events != 100 {
				t.Fatalf("core 3 executed %d events, want 100", run.Cores[3].Events)
			}
		})
	}
}

// TestColorMutualExclusion is the paper's core safety property: two
// events of one color never execute concurrently, even under aggressive
// stealing. Handlers record execution intervals per color; the test
// verifies they never overlap.
func TestColorMutualExclusion(t *testing.T) {
	type span struct{ start, end int64 }
	for _, cfg := range []policy.Config{policy.LibasyncWS(), policy.MelyBaseWS(), policy.MelyWS()} {
		t.Run(cfg.String(), func(t *testing.T) {
			intervals := map[equeue.Color][]span{}
			eng := newEngine(t, cfg, nil)
			var h equeue.HandlerID
			h = eng.Register("work", func(ctx *Ctx, ev *equeue.Event) {
				end := ctx.Now()
				intervals[ev.Color] = append(intervals[ev.Color],
					span{end - ev.Cost, end})
				if len(intervals[ev.Color]) < 6 {
					ctx.Post(Ev{Handler: h, Color: ev.Color, Cost: ev.Cost})
				}
			}, HandlerOpts{})
			eng.Seed(func(ctx *Ctx) {
				// Few colors, many events, all on one core: maximal
				// steal pressure on shared colors.
				for i := 0; i < 64; i++ {
					ctx.PostTo(0, Ev{
						Handler: h,
						Color:   equeue.Color(i%8 + 1),
						Cost:    int64(1000 + i*37),
					})
				}
			})
			eng.RunUntil(1_000_000_000)
			for color, spans := range intervals {
				sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
				for i := 1; i < len(spans); i++ {
					if spans[i].start < spans[i-1].end {
						t.Fatalf("color %d: overlapping executions [%d,%d) and [%d,%d)",
							color, spans[i-1].start, spans[i-1].end,
							spans[i].start, spans[i].end)
					}
				}
			}
		})
	}
}

func TestPostToSplitColorPanics(t *testing.T) {
	eng := newEngine(t, policy.Mely(), nil)
	h := eng.Register("work", func(ctx *Ctx, ev *equeue.Event) {}, HandlerOpts{})
	defer func() {
		if recover() == nil {
			t.Fatal("PostTo that splits a live color must panic")
		}
	}()
	eng.Seed(func(ctx *Ctx) {
		ctx.PostTo(0, Ev{Handler: h, Color: 5, Cost: 100})
		ctx.PostTo(1, Ev{Handler: h, Color: 5, Cost: 100}) // same live color elsewhere
	})
}

func TestQuiescentHookRounds(t *testing.T) {
	rounds := 0
	var h equeue.HandlerID
	eng := newEngine(t, policy.Mely(), func(ctx *Ctx) bool {
		rounds++
		if rounds > 3 {
			return false
		}
		for i := 0; i < 20; i++ {
			ctx.PostTo(0, Ev{Handler: h, Color: equeue.Color(i + 1), Cost: 500})
		}
		return true
	})
	count := 0
	h = eng.Register("work", func(ctx *Ctx, ev *equeue.Event) { count++ }, HandlerOpts{})
	eng.RunUntil(1_000_000_000)
	if rounds != 4 {
		t.Fatalf("rounds = %d, want 4 (3 productive + 1 refusal)", rounds)
	}
	if count != 60 {
		t.Fatalf("executed %d, want 60", count)
	}
	if !eng.Stopped() {
		t.Error("refusing hook must stop the run")
	}
}

func TestRunUntilHorizonStopsHook(t *testing.T) {
	// The hook posts forever, but RunUntil must stop at the horizon.
	var h equeue.HandlerID
	eng := newEngine(t, policy.Mely(), func(ctx *Ctx) bool {
		for i := 0; i < 10; i++ {
			ctx.PostTo(0, Ev{Handler: h, Color: equeue.Color(i + 1), Cost: 1000})
		}
		return true
	})
	h = eng.Register("work", func(ctx *Ctx, ev *equeue.Event) {}, HandlerOpts{})
	eng.RunUntil(1_000_000)
	if eng.Stopped() {
		t.Error("engine should not stop; the horizon ended the run")
	}
	run := eng.Metrics(1_000_000)
	if run.Total().Events == 0 {
		t.Error("no events executed")
	}
}

func TestResetMetricsWarmup(t *testing.T) {
	var h equeue.HandlerID
	eng := newEngine(t, policy.Mely(), func(ctx *Ctx) bool {
		for i := 0; i < 10; i++ {
			ctx.PostTo(0, Ev{Handler: h, Color: equeue.Color(i + 1), Cost: 1000,
				DataID: ctx.NewDataID(), Footprint: 4096})
		}
		return true
	})
	h = eng.Register("work", func(ctx *Ctx, ev *equeue.Event) {
		ctx.AddPayload("n", 1)
	}, HandlerOpts{})
	eng.RunUntil(500_000)
	eng.ResetMetrics()
	if eng.Payload()["n"] != 0 {
		t.Fatal("payload must reset")
	}
	eng.RunUntil(1_000_000)
	run := eng.Metrics(500_000)
	if run.Total().Events == 0 {
		t.Error("no post-warmup events recorded")
	}
	if run.Cycles != 500_000 {
		t.Errorf("Cycles = %d", run.Cycles)
	}
}

func TestTimeLeftAvoidsUnworthySteals(t *testing.T) {
	// One long-color core plus tiny unworthy colors: time-left must
	// steal only worthy colors; base steals everything it can.
	countStolen := func(cfg policy.Config) int64 {
		eng := newEngine(t, cfg, nil)
		h := eng.Register("work", func(ctx *Ctx, ev *equeue.Event) {}, HandlerOpts{})
		eng.Seed(func(ctx *Ctx) {
			for i := 0; i < 200; i++ {
				ctx.PostTo(0, Ev{Handler: h, Color: equeue.Color(i + 1), Cost: 100})
			}
		})
		eng.RunUntil(100_000_000)
		return eng.Metrics(1).Total().Steals
	}
	base := countStolen(policy.MelyBaseWS())
	timeleft := countStolen(policy.MelyTimeLeftWS())
	if base == 0 {
		t.Fatal("base WS should steal tiny colors")
	}
	if timeleft != 0 {
		t.Fatalf("time-left stole %d unworthy sets (cost 100 << steal cost)", timeleft)
	}
}

func TestLocalityStealsFromNeighborFirst(t *testing.T) {
	eng := newEngine(t, policy.MelyLocalityWS(), nil)
	h := eng.Register("work", func(ctx *Ctx, ev *equeue.Event) {}, HandlerOpts{})
	// Load core 0 and core 6 equally; core 1 (pair mate of 0) must
	// steal from core 0.
	eng.Seed(func(ctx *Ctx) {
		for i := 0; i < 50; i++ {
			ctx.PostTo(0, Ev{Handler: h, Color: equeue.Color(i + 1), Cost: 40_000})
			ctx.PostTo(6, Ev{Handler: h, Color: equeue.Color(i + 1000), Cost: 40_000})
		}
	})
	eng.RunUntil(3_000_000)
	run := eng.Metrics(1)
	if run.Cores[1].Events == 0 {
		t.Fatal("core 1 should have stolen work")
	}
	// Events stolen by core 1 must come from core 0's colors (1..50).
	// Equivalent check: total per-pair balance — core 1 and core 0
	// together processed colors of core 0. We verify via steal counts:
	// core 1 performed steals and its stolen events carry core-0 colors,
	// which we can't observe directly here; instead ensure core 1 stole
	// at least once and core 7 (pair mate of 6) did too.
	if run.Cores[1].Steals == 0 || run.Cores[7].Steals == 0 {
		t.Fatalf("pair mates should steal: core1=%d core7=%d",
			run.Cores[1].Steals, run.Cores[7].Steals)
	}
}

func TestStolenTimeAccounting(t *testing.T) {
	eng := newEngine(t, policy.MelyBaseWS(), nil)
	h := eng.Register("work", func(ctx *Ctx, ev *equeue.Event) {}, HandlerOpts{})
	eng.Seed(func(ctx *Ctx) {
		for i := 0; i < 100; i++ {
			ctx.PostTo(0, Ev{Handler: h, Color: equeue.Color(i + 1), Cost: 30_000})
		}
	})
	eng.RunUntil(3_000_000_000)
	run := eng.Metrics(1)
	tot := run.Total()
	if tot.Steals == 0 {
		t.Fatal("expected steals")
	}
	if tot.StolenEvents == 0 || tot.StolenExecCycles == 0 {
		t.Fatal("stolen work must be attributed")
	}
	if run.StealCostCycles() <= 0 || run.StolenTimeCycles() <= 0 {
		t.Fatal("derived steal metrics must be positive")
	}
	if tot.StolenExecCycles < tot.StolenEvents*30_000 {
		t.Errorf("stolen exec cycles %d < %d events * cost", tot.StolenExecCycles, tot.StolenEvents)
	}
}

// TestTraceRecordsMatchMetrics: the trace hook's flight-recorder
// records are the run's counters one by one — an exec record per event
// (StolenFlag on the migrated ones, handler id and color intact), a
// KindSteal record per steal carrying its victim and color count, an
// N == 0 record per fruitless round — stamped in nanoseconds at
// Params.CyclesPerSecond and serial on each core's timeline.
func TestTraceRecordsMatchMetrics(t *testing.T) {
	eng := newEngine(t, policy.MelyBaseWS(), nil)
	h := eng.Register("work", func(ctx *Ctx, ev *equeue.Event) {}, HandlerOpts{})
	eng.Seed(func(ctx *Ctx) {
		for i := 0; i < 100; i++ {
			ctx.PostTo(0, Ev{Handler: h, Color: equeue.Color(i + 1), Cost: 30_000})
		}
	})
	var exec, stolen, steals, colors, failed int64
	var lastEnd [8]int64
	eng.SetTrace(func(core int, ev obs.Event) {
		if ev.Ts < lastEnd[core] || ev.Dur < 0 {
			t.Fatalf("core %d: record %+v starts before %d ns, the end of the one before", core, ev, lastEnd[core])
		}
		lastEnd[core] = ev.Ts + ev.Dur
		switch {
		case ev.Kind == obs.KindExec:
			exec++
			if ev.N&^obs.StolenFlag != uint32(h) || ev.Arg < 1 || ev.Arg > 100 {
				t.Fatalf("exec record %+v: want handler %d, a color in 1..100", ev, h)
			}
			if ev.N&obs.StolenFlag != 0 {
				stolen++
			}
			// 30 000 cycles at 2.33 GHz, plus the cache model's share.
			if ev.Dur < 12_875 {
				t.Fatalf("exec record %+v shorter than its 30k-cycle cost in ns", ev)
			}
		case ev.Kind == obs.KindSteal && ev.N > 0:
			steals++
			colors += int64(ev.N)
			if ev.Arg == uint64(core) || ev.Arg > 7 {
				t.Fatalf("steal record %+v on core %d: victim must be another core", ev, core)
			}
		case ev.Kind == obs.KindSteal:
			failed++
		default:
			t.Fatalf("unexpected record %+v", ev)
		}
	})
	eng.RunUntil(3_000_000_000)
	tot := eng.Metrics(1).Total()
	if exec != tot.Events || stolen != tot.StolenEvents || steals != tot.Steals || colors != tot.StolenColors {
		t.Fatalf("records: %d exec (%d stolen), %d steals of %d colors; metrics: %d (%d), %d of %d",
			exec, stolen, steals, colors, tot.Events, tot.StolenEvents, tot.Steals, tot.StolenColors)
	}
	if steals == 0 || stolen == 0 || failed == 0 || failed > tot.FailedSteals {
		t.Fatalf("%d steals, %d stolen execs, %d failed rounds (metrics count %d)", steals, stolen, failed, tot.FailedSteals)
	}
	if eng.HandlerName(h) != "work" || eng.HandlerName(h+1) != "" {
		t.Fatalf("HandlerName = %q, %q", eng.HandlerName(h), eng.HandlerName(h+1))
	}
}

func TestEventConservationUnderStealing(t *testing.T) {
	eng := newEngine(t, policy.MelyWS(), nil)
	executed := 0
	var h equeue.HandlerID
	h = eng.Register("work", func(ctx *Ctx, ev *equeue.Event) {
		executed++
		if ev.Cost == 777 { // spawn one follow-up per seed event
			ctx.Post(Ev{Handler: h, Color: ev.Color, Cost: 778})
		}
	}, HandlerOpts{})
	const seeds = 300
	eng.Seed(func(ctx *Ctx) {
		for i := 0; i < seeds; i++ {
			ctx.PostTo(i%2, Ev{Handler: h, Color: equeue.Color(i + 1), Cost: 777})
		}
	})
	eng.RunUntil(1_000_000_000)
	if executed != 2*seeds {
		t.Fatalf("executed %d, want %d (no lost or duplicated events)", executed, 2*seeds)
	}
	if eng.Pending() != 0 {
		t.Fatalf("pending = %d after drain", eng.Pending())
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil topology must fail")
	}
	if _, err := New(Config{Topology: topology.Uniform(2)}); err == nil {
		t.Error("invalid policy must fail")
	}
	if _, err := New(Config{
		Topology: topology.Uniform(2), Policy: policy.Mely(), QuiesceCore: 5,
	}); err == nil {
		t.Error("out-of-range quiesce core must fail")
	}
}

func TestAutoPenaltyLearnsFromMemoryUsage(t *testing.T) {
	// A handler that repeatedly walks a long-lived array must acquire a
	// rising penalty; a handler allocating fresh data must not.
	eng := newEngine(t, policy.MelyPenaltyWS(), nil)
	var walker, allocator equeue.HandlerID
	walker = eng.Register("walker", func(ctx *Ctx, ev *equeue.Event) {
		if n := ev.Data.(int); n > 0 {
			ctx.Post(Ev{Handler: walker, Color: ev.Color, Cost: 1000,
				DataID: ev.DataID, DataSize: ev.DataSize, Footprint: ev.Footprint,
				Data: n - 1})
		}
	}, HandlerOpts{AutoPenalty: true})
	allocator = eng.Register("allocator", func(ctx *Ctx, ev *equeue.Event) {
		if n := ev.Data.(int); n > 0 {
			ctx.Post(Ev{Handler: allocator, Color: ev.Color, Cost: 1000,
				DataID: ctx.NewDataID(), Footprint: 32 << 10,
				Data: n - 1})
		}
	}, HandlerOpts{AutoPenalty: true})
	eng.Seed(func(ctx *Ctx) {
		array := ctx.NewDataID()
		ctx.Touch(array, 64<<10)
		ctx.PostTo(0, Ev{Handler: walker, Color: 1, Cost: 1000,
			DataID: array, DataSize: 64 << 10, Footprint: 16 << 10, Data: 40})
		ctx.PostTo(0, Ev{Handler: allocator, Color: 2, Cost: 1000,
			DataID: ctx.NewDataID(), Footprint: 32 << 10, Data: 40})
	})
	eng.RunUntil(1 << 34)
	wPen := eng.handlers[walker].autoPenalty()
	aPen := eng.handlers[allocator].autoPenalty()
	if wPen <= 2 {
		t.Fatalf("walker auto penalty = %d, want > 2 (long-lived data)", wPen)
	}
	if aPen != 1 {
		t.Fatalf("allocator auto penalty = %d, want 1 (fresh data each time)", aPen)
	}
}
