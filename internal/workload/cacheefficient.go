package workload

import (
	"github.com/melyruntime/mely/internal/equeue"
	"github.com/melyruntime/mely/internal/policy"
	"github.com/melyruntime/mely/internal/sim"
	"github.com/melyruntime/mely/internal/topology"
)

// CacheEfficientSpec parameterizes the cache efficient microbenchmark
// (section V-B g): a fork/join merge sort whose halves should be sorted
// near the core that allocated the array. The json tags are the keys of
// a scenario spec's sim.cacheeff block.
type CacheEfficientSpec struct {
	// APerCore is the number of A events registered, at each round, on
	// one core of every core pair (paper: one hundred).
	APerCore int `json:"a_per_core,omitempty"`
	// ArrayBytes is the array allocated by each A ("fitting in their
	// cache").
	ArrayBytes int64 `json:"array_bytes,omitempty"`
	// ACost is A's processing time (allocate + initialize).
	ACost int64 `json:"a_cost,omitempty"`
	// SortCost is the processing time of each B (sorting half the
	// array).
	SortCost int64 `json:"sort_cost,omitempty"`
	// SyncCost is the processing time of each C synchronization event.
	SyncCost int64 `json:"sync_cost,omitempty"`
	// MergeCost is the final merge step's processing time.
	MergeCost int64 `json:"merge_cost,omitempty"`
}

func (s *CacheEfficientSpec) defaults() {
	if s.APerCore == 0 {
		s.APerCore = 100
	}
	if s.ArrayBytes == 0 {
		s.ArrayBytes = 32 << 10
	}
	if s.ACost == 0 {
		s.ACost = 4000
	}
	if s.SortCost == 0 {
		s.SortCost = 30_000
	}
	if s.SyncCost == 0 {
		s.SyncCost = 500
	}
	if s.MergeCost == 0 {
		s.MergeCost = 10_000
	}
}

// mergeJob tracks one array's fork/join state.
type mergeJob struct {
	arrayID   uint64
	homeColor equeue.Color
	syncSeen  int
}

// BuildCacheEfficient constructs the cache efficient benchmark. At each
// round, one core per pair starts with APerCore events of type A. An A
// event allocates an array and registers two B events with different
// colors on the same core; each B sorts half of the array and registers
// a synchronization event C (colored like the parent so the two C's
// serialize); the second C performs the final merge. Idle cores (the
// other core of each pair) balance the load by stealing B events — and
// with locality-aware stealing they steal them from their own pair,
// keeping every array inside one L2.
func BuildCacheEfficient(topo *topology.Topology, pol policy.Config, params sim.Params, seed int64, spec CacheEfficientSpec) (*sim.Engine, error) {
	spec.defaults()
	var (
		eng *sim.Engine
		hA  equeue.HandlerID
		hB  equeue.HandlerID
		hC  equeue.HandlerID
	)

	// Color plan per round, reused every round (all colors drain at the
	// join). The k-th job's colors all hash to its producer core, so a
	// drained color re-homes there (ownership is a lease; see
	// equeue.Core.StopRunning): A and C share ncores*(3k+1)+p, the two
	// B's get ncores*(3k+2)+p and ncores*(3k+3)+p. Color 0 is the
	// feeder's.
	producers := producersOf(topo)
	ncores := topo.NumCores()
	jobColor := func(k int, producer int) equeue.Color {
		return equeue.Color(ncores*(3*k+1) + producer)
	}

	var feed equeue.HandlerID
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
	total := spec.APerCore * len(producers)
	feed = eng.Register("ce-register", func(ctx *sim.Ctx, ev *equeue.Event) {
		next := ev.Data.(int)
		for k := next; k < total && k < next+registerBatch; k++ {
			producer := producers[k%len(producers)]
			ctx.PostTo(producer, sim.Ev{
				Handler: hA,
				Color:   jobColor(k, producer),
				Cost:    spec.ACost,
			})
		}
		if next+registerBatch < total {
			ctx.Post(sim.Ev{Handler: feed, Color: ev.Color, Data: next + registerBatch})
		}
	}, sim.HandlerOpts{})

	hA = eng.Register("ce-A", func(ctx *sim.Ctx, ev *equeue.Event) {
		arrayID := ctx.NewDataID()
		ctx.Touch(arrayID, spec.ArrayBytes)
		job := &mergeJob{arrayID: arrayID, homeColor: ev.Color}
		half := spec.ArrayBytes / 2
		// Two B events, different colors, registered on this core.
		for i := 1; i <= 2; i++ {
			ctx.PostTo(ctx.Core(), sim.Ev{
				Handler:   hB,
				Color:     ev.Color + equeue.Color(i*topo.NumCores()),
				Cost:      spec.SortCost,
				DataID:    arrayID,
				Footprint: half,
				DataSize:  spec.ArrayBytes,
				Data:      job,
			})
		}
	}, sim.HandlerOpts{})

	hB = eng.Register("ce-B-sort", func(ctx *sim.Ctx, ev *equeue.Event) {
		job := ev.Data.(*mergeJob)
		// Register the synchronization event, colored like the parent
		// array so the two C's of one job serialize.
		ctx.Post(sim.Ev{
			Handler: hC,
			Color:   job.homeColor,
			Cost:    spec.SyncCost,
			Data:    job,
		})
	}, sim.HandlerOpts{})

	hC = eng.Register("ce-C-join", func(ctx *sim.Ctx, ev *equeue.Event) {
		job := ev.Data.(*mergeJob)
		job.syncSeen++
		if job.syncSeen < 2 {
			return
		}
		// Final part of the merge sort.
		ctx.Touch(job.arrayID, spec.ArrayBytes)
		ctx.Charge(spec.MergeCost)
		ctx.FreeData(job.arrayID)
		ctx.AddPayload("merges", 1)
	}, sim.HandlerOpts{})

	return eng, nil
}

// producersOf picks one core per cache-sharing pair (the cores that
// start with A events); on topologies without sharing, every second
// core.
func producersOf(topo *topology.Topology) []int {
	var producers []int
	seen := make(map[int]bool)
	for c := 0; c < topo.NumCores(); c++ {
		g := topo.ShareGroup(c)
		if seen[g] {
			continue
		}
		seen[g] = true
		producers = append(producers, c)
	}
	return producers
}
