package mely

import (
	"math"

	"github.com/melyruntime/mely/internal/equeue"
)

// BatchEvent is one entry of a PostBatch call.
type BatchEvent struct {
	Handler Handler
	Color   Color
	Data    any
}

// PostBatch posts a batch of events amortizing the per-event delivery
// work: events are materialized in one slab and the batch is grouped by
// each color's hash core. While every color is at its home core, a group
// of several events is handed over whole: it is spliced onto the core's
// arrivals in O(1) per event under a single acquisition of that core's
// lock, with one wakeup per core instead of one per event, and the owner
// files it into its color queues on its own CPU at its next pop. Any
// other group — a single event, or any group while a color is away from
// home or in transit — is posted one event at a time, as Post does. This
// is the hot-path producer API for servers that accumulate work (a
// network pump draining a readiness list, a pipeline stage emitting
// fan-out) — see BenchmarkRuntimePostBatch for the 64-event/8-core
// acceptance numbers.
//
// Semantics match per-event Post exactly: events of one color are
// delivered in batch order and the ownership lease protocol is honored
// per event — an event of a color leased away from its hash core goes to
// the lessee, and one whose color is in transit holds up the later
// events of its group until the thief has adopted it, as a Post of that
// color would wait. Ordering between different colors of one batch is
// unspecified, as it already is between concurrent posters. If any entry
// names an unknown handler the whole batch is rejected before anything is
// enqueued. After shutdown PostBatch fails with ErrStopped.
//
// On a bounded runtime (Config.MaxQueuedEvents and friends) admission
// applies per event: an ErrOverloaded rejection or a Block-policy wait
// can therefore strike mid-batch, returning with the EARLIER entries
// already posted — only the unknown-handler check stays all-or-nothing.
// Batch producers that need atomicity against overload should check
// Saturated first or use PostBatchEdge where the edge-backpressure
// contract applies.
func (r *Runtime) PostBatch(batch []BatchEvent) error {
	return r.postBatch(batch, nil, true)
}

// postBatch is PostBatch with the posting handler context (nil outside
// a handler) and the external mark; see Runtime.post for both.
func (r *Runtime) postBatch(batch []BatchEvent, from *Ctx, external bool) error {
	n := len(batch)
	if n == 0 {
		return nil
	}
	if r.stopped.Load() {
		return ErrStopped
	}
	hs := *r.handlers.Load()
	if r.adm != nil {
		// Bounded runtimes take the per-event path: admission is a
		// per-color decision (a spilling color's entries must hit the
		// disk tail in batch order while its neighbors go to memory),
		// so the one-lock-per-core delivery does not apply. Only the
		// unknown-handler check stays all-or-nothing (see PostBatch).
		for _, be := range batch {
			if _, err := lookupHandler(hs, be.Handler); err != nil {
				return err
			}
		}
		for _, be := range batch {
			if err := r.post(nil, from, be.Handler, be.Color, be.Data, external); err != nil {
				return err
			}
		}
		return nil
	}

	// One slab for the whole batch instead of n pool hits. Slab events
	// are marked so execution never pools them (an interior pointer
	// would pin the whole slab); the slab is garbage as soon as its
	// last event retires. Until the delivery loop below nothing is
	// published, so a bad entry mid-build rejects the batch atomically
	// with no unwinding (the slab is simply dropped). Batches are
	// typically handler-homogeneous, so the handler is looked up only
	// when it changes.
	slab := make([]equeue.Event, n)
	var (
		lastID int32 = -1 // impossible id: the first entry always validates
		entry  *handlerEntry
		err    error
	)
	s := r.scratch.Get().(*batchScratch)
	s.prepare(len(r.cores))
	// Outside a handler, one atomic each for the whole batch reserves its
	// sample ticks and its span ids.
	c, ptrace, pspan := from.origin()
	var lone idSource
	ids := r.idsOn(c, n, &lone)
	// An event costlier on its own than a steal makes its color worth one
	// (time-left): a group handed over unfiled counts such events into
	// the owner's stealLen, so that thieves still look there.
	worth := int64(math.MaxInt64)
	if r.pol.TimeLeft {
		worth = max(r.stealMon.Estimate(), 1)
	}
	for i, be := range batch {
		if be.Handler.id != lastID {
			if entry, err = lookupHandler(hs, be.Handler); err != nil {
				return err // s is dropped: its chains hold the slab
			}
			lastID = be.Handler.id
		}
		ev := &slab[i]
		// Each entry posted outside a handler founds its own trace.
		r.stamp(ev, ids, entry, be.Color, be.Data, ptrace, pspan)
		ev.Slab = true

		// Group by hash core: per-core chains of the events themselves,
		// in batch order. The hash is pure math and deterministic, so the
		// events of one color always land in the same group; the owner
		// entries of the few colors leased away are met at delivery.
		g := &s.groups[r.table.Hash(ev.Color)]
		g.ch.Push(ev)
		g.n++
		if ev.WeightedCost() > worth {
			g.worthy++
		}
		g.sampled = g.sampled || ev.PostNanos != 0
	}
	r.pending.Add(int64(n))

	// Each core's group is handed over whole, or else posted like Post,
	// one event at a time in batch order: an event whose color is leased
	// away goes to the lessee, and one in transit holds up the rest of its
	// group while enqueue waits out the migration.
	for core := range s.groups {
		g := &s.groups[core]
		if g.n == 0 || r.spliceGroup(r.cores[core], g) {
			continue
		}
		for ev := g.ch.Pop(); ev != nil; ev = g.ch.Pop() {
			r.enqueue(ev).stats.batchedEvents.Add(1)
		}
	}
	r.scratch.Put(s)
	return nil
}

// batchScratch is the reusable working memory of one PostBatch call:
// the per-core groups. Pooled per runtime; safe because each call takes
// one exclusively.
type batchScratch struct {
	groups []batchGroup
}

// batchGroup is one core's share of a batch: its events chained in batch
// order, how many, how many are each worth a steal (see postBatch), and
// whether any is sampled for latency.
type batchGroup struct {
	ch      equeue.Chain
	n       int32
	worthy  int32
	sampled bool
}

func (s *batchScratch) prepare(ncores int) {
	if len(s.groups) != ncores {
		s.groups = make([]batchGroup, ncores)
	}
	for i := range s.groups {
		s.groups[i] = batchGroup{}
	}
}

// spliceGroup hands a group of two or more events over to c whole while
// no color anywhere is away from home or in transit: O(1) per event under
// one hold of c.lock, and no color-table stripe, no map and no
// ColorQueue. The events join c's arrivals as they are, and the owner —
// or whoever next takes its lock to decide per color — files them
// (lockFiled, rcore.arrivals). They are counted where a delivery counts:
// qlen (and stealLen for each event worth a steal on its own),
// Stats.PostedHere, BatchedEvents, and a sampled event's post record. A
// group that holds the running color closes its private run, exactly as
// its delivery into runCQ would (deliverLocked): the handler's later
// continuations queue behind it. It reports false, having handed over
// nothing, for a one-event group (without taking the lock) or a deviated
// table; postBatch then posts the group's events one at a time.
func (r *Runtime) spliceGroup(c *rcore, g *batchGroup) bool {
	if g.n < 2 {
		return false
	}
	c.lock.Lock()
	if r.table.AnyDeviated() {
		c.lock.Unlock()
		return false
	}
	running := c.runCQ != nil && c.runOpen.Load()
	if running || (g.sampled && c.ring != nil) {
		for ev := g.ch.Front(); ev != nil; ev = g.ch.Next(ev) {
			if running && ev.Color == c.runCQ.Color() {
				c.runOpen.Store(false)
				running = false
			}
			c.recordPost(ev)
		}
	}
	c.arrivals.Splice(&g.ch)
	c.qlen.Add(g.n)
	if g.worthy > 0 {
		c.stealLen.Add(g.worthy)
	}
	c.stats.postedHere.Add(int64(g.n))
	c.stats.batchedEvents.Add(int64(g.n))
	c.lock.Unlock()
	c.unpark()
	return true
}

// PostBatch posts a batch from inside a handler (see Runtime.PostBatch).
// Like Ctx.Post, it is an internal continuation: never rejected or
// blocked by an overload bound. With tracing on, every entry of the
// batch becomes a child span of the posting handler's event.
func (ctx *Ctx) PostBatch(batch []BatchEvent) error {
	return ctx.r.postBatch(batch, ctx, false)
}
