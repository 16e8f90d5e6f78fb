package workload

import (
	"github.com/melyruntime/mely/internal/equeue"
	"github.com/melyruntime/mely/internal/policy"
	"github.com/melyruntime/mely/internal/sim"
	"github.com/melyruntime/mely/internal/topology"
)

// PenaltySpec parameterizes the penalty microbenchmark (section V-B f);
// the json tags are the keys of a scenario spec's sim.penalty block.
type PenaltySpec struct {
	// NumA is the number of type-A events registered on the first core
	// at each round, each with its own color.
	NumA int `json:"num_a,omitempty"`
	// ArrayBytes is the size of the array each A event allocates
	// ("fitting in the core cache").
	ArrayBytes int64 `json:"array_bytes,omitempty"`
	// ChunkBytes is the slice of the parent array each B event
	// accesses before registering the next B of the chain.
	ChunkBytes int64 `json:"chunk_bytes,omitempty"`
	// ACost/BCost are the handler processing times.
	ACost int64 `json:"a_cost,omitempty"`
	BCost int64 `json:"b_cost,omitempty"`
	// BPenalty is the workstealing penalty of B events (paper: 1000).
	BPenalty int32 `json:"b_penalty,omitempty"`
	// AutoPenalty replaces the manual annotations with penalties
	// derived from monitored memory usage (section VII future work; no
	// spec key sets it).
	AutoPenalty bool `json:"-"`
}

func (s *PenaltySpec) defaults() {
	if s.NumA == 0 {
		// "Many events of type A" — bounded so the live arrays
		// (NumA x ArrayBytes in the worst case) fit the machine's
		// caches, as they must have in the paper (its serial baseline
		// does not thrash).
		s.NumA = 64
	}
	if s.ArrayBytes == 0 {
		s.ArrayBytes = 64 << 10
	}
	if s.ChunkBytes == 0 {
		s.ChunkBytes = 16 << 10
	}
	if s.ACost == 0 {
		s.ACost = 25_000
	}
	if s.BCost == 0 {
		s.BCost = 200
	}
	if s.BPenalty == 0 {
		s.BPenalty = 1000
	}
}

// penaltyChain is the continuation of a B chain: the parent array and
// the progress through it.
type penaltyChain struct {
	arrayID   uint64
	remaining int64
}

// BuildPenalty constructs the penalty benchmark: a single core starts
// with NumA events of type A (one color each); an A event creates an
// array and registers a B event of the same color; each B accesses a
// chunk of its parent array and chains the next B until the array has
// been completely accessed. Idle cores have more opportunities to steal
// B events but should prefer A events to preserve cache locality — which
// is exactly what the penalty annotation on B encodes.
func BuildPenalty(topo *topology.Topology, pol policy.Config, params sim.Params, seed int64, spec PenaltySpec) (*sim.Engine, error) {
	spec.defaults()
	var (
		eng  *sim.Engine
		hA   equeue.HandlerID
		hB   equeue.HandlerID
		feed equeue.HandlerID
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
	feed = eng.Register("penalty-register", func(ctx *sim.Ctx, ev *equeue.Event) {
		next := ev.Data.(int)
		for i := next; i < spec.NumA && i < next+registerBatch; i++ {
			ctx.PostTo(0, sim.Ev{
				Handler: hA,
				Color:   equeue.Color(i + 1),
				Cost:    spec.ACost,
			})
		}
		if next+registerBatch < spec.NumA {
			ctx.Post(sim.Ev{Handler: feed, Color: ev.Color, Data: next + registerBatch})
		}
	}, sim.HandlerOpts{})
	aOpts := sim.HandlerOpts{}
	bOpts := sim.HandlerOpts{Penalty: spec.BPenalty}
	if spec.AutoPenalty {
		aOpts = sim.HandlerOpts{AutoPenalty: true}
		bOpts = sim.HandlerOpts{AutoPenalty: true}
	}
	hA = eng.Register("penalty-A", func(ctx *sim.Ctx, ev *equeue.Event) {
		// Allocate the array (first touch faults it in near this core).
		arrayID := ctx.NewDataID()
		ctx.Touch(arrayID, spec.ArrayBytes)
		ctx.Post(sim.Ev{
			Handler:   hB,
			Color:     ev.Color,
			Cost:      spec.BCost,
			DataID:    arrayID,
			Footprint: spec.ChunkBytes,
			DataSize:  spec.ArrayBytes,
			Data:      &penaltyChain{arrayID: arrayID, remaining: spec.ArrayBytes - spec.ChunkBytes},
		})
	}, aOpts)
	hB = eng.Register("penalty-B", func(ctx *sim.Ctx, ev *equeue.Event) {
		chain := ev.Data.(*penaltyChain)
		if chain.remaining <= 0 {
			// Chain complete; the array dies with it.
			ctx.FreeData(chain.arrayID)
			ctx.AddPayload("chains", 1)
			return
		}
		chain.remaining -= spec.ChunkBytes
		ctx.Post(sim.Ev{
			Handler:   hB,
			Color:     ev.Color,
			Cost:      spec.BCost,
			DataID:    chain.arrayID,
			Footprint: spec.ChunkBytes,
			DataSize:  spec.ArrayBytes,
			Data:      chain,
		})
	}, bOpts)
	return eng, nil
}
