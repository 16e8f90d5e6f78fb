// Package workload builds the paper's three microbenchmarks (section
// V-B) on the simulator:
//
//   - unbalanced: a fork/join round of 50 000 independent events, 98%
//     very short (100 cycles) and 2% long (10-50 Kcycles), all registered
//     on the first core — the base-workstealing and time-left experiments
//     (Tables III and IV);
//   - penalty: per-color chains of B events walking an array allocated
//     by their parent A event, with ws_penalty 1000 on B — the
//     penalty-aware experiment (Table V);
//   - cache efficient: a fork/join merge sort per core pair — the
//     locality-aware experiment (Table VI).
//
// Each builder returns a ready engine; run it with sim.Measure.
package workload

import (
	"github.com/melyruntime/mely/internal/equeue"
	"github.com/melyruntime/mely/internal/policy"
	"github.com/melyruntime/mely/internal/sim"
	"github.com/melyruntime/mely/internal/topology"
)

// UnbalancedSpec parameterizes the unbalanced microbenchmark. The zero
// value is the paper's configuration (scaled durations are chosen by the
// caller via sim.Measure). The json tags are the keys of a scenario
// spec's sim.unbalanced block (docs/topology-schema.md).
type UnbalancedSpec struct {
	// EventsPerRound is the number of events registered on the first
	// core at each round (paper: 50 000).
	EventsPerRound int `json:"events_per_round,omitempty"`
	// ShortCost is the processing time of the short events (100).
	ShortCost int64 `json:"short_cost,omitempty"`
	// LongMin/LongMax bound the long events (10 000 - 50 000).
	LongMin int64 `json:"long_min,omitempty"`
	LongMax int64 `json:"long_max,omitempty"`
	// ShortPermille is the share of short events in 1/1000 (980).
	ShortPermille int `json:"short_permille,omitempty"`
	// LearnedEstimates replaces the exact per-event annotations with
	// learned (EWMA) per-handler estimates, and SplitHandlers gives the
	// long events a handler of their own, so that those averages are
	// accurate again (section VII future work; no spec key sets them).
	LearnedEstimates bool `json:"-"`
	SplitHandlers    bool `json:"-"`
}

func (s *UnbalancedSpec) defaults() {
	if s.EventsPerRound == 0 {
		s.EventsPerRound = 50_000
	}
	if s.ShortCost == 0 {
		s.ShortCost = 100
	}
	if s.LongMin == 0 {
		s.LongMin = 10_000
	}
	if s.LongMax == 0 {
		s.LongMax = 50_000
	}
	if s.ShortPermille == 0 {
		s.ShortPermille = 980
	}
}

// registerBatch is how many events a registration (feeder) handler
// posts per activation. Rounds are registered by handler code — as in
// the paper's fork/join benchmarks — so thieves and the victim's own
// dequeues interleave with the registration instead of waiting behind
// one giant critical section.
const registerBatch = 64

// BuildUnbalanced constructs an engine running the unbalanced benchmark
// under the given policy. Events are independent (every event gets its
// own color) and all of them are registered on core 0; when all events
// of a round have been processed, a new round begins.
func BuildUnbalanced(topo *topology.Topology, pol policy.Config, params sim.Params, seed int64, spec UnbalancedSpec) (*sim.Engine, error) {
	spec.defaults()
	var (
		eng            *sim.Engine
		work, workLong equeue.HandlerID
		feed           equeue.HandlerID
	)
	cfg := sim.Config{
		Topology: topo,
		Policy:   pol,
		Params:   params,
		Seed:     seed,
		OnQuiescent: func(ctx *sim.Ctx) bool {
			ctx.PostTo(0, sim.Ev{Handler: feed, Color: equeue.DefaultColor, Data: 0})
			ctx.AddPayload("rounds", 1)
			return true
		},
	}
	var err error
	eng, err = sim.New(cfg)
	if err != nil {
		return nil, err
	}
	noop := func(ctx *sim.Ctx, ev *equeue.Event) {}
	workOpts := sim.HandlerOpts{DynamicEstimate: spec.LearnedEstimates}
	work = eng.Register("unbalanced-work", noop, workOpts)
	workLong = work
	if spec.SplitHandlers {
		workLong = eng.Register("unbalanced-work-long", noop, workOpts)
	}
	feed = eng.Register("unbalanced-register", func(ctx *sim.Ctx, ev *equeue.Event) {
		rng := ctx.Rand()
		next := ev.Data.(int)
		for i := next; i < spec.EventsPerRound && i < next+registerBatch; i++ {
			h, cost := work, spec.ShortCost
			if rng.Intn(1000) >= spec.ShortPermille {
				h = workLong
				cost = spec.LongMin + rng.Int63n(spec.LongMax-spec.LongMin+1)
			}
			// Independent events: each gets its own color. Color 0
			// is reserved for the feeder, so shift by one.
			ctx.PostTo(0, sim.Ev{
				Handler: h,
				Color:   equeue.Color(i%65535 + 1),
				Cost:    cost,
			})
		}
		if next+registerBatch < spec.EventsPerRound {
			ctx.Post(sim.Ev{Handler: feed, Color: ev.Color, Data: next + registerBatch})
		}
	}, sim.HandlerOpts{})
	return eng, nil
}
