// Package sim is a deterministic discrete-event simulator of an
// event-coloring runtime on a multicore machine. It executes the same
// queue structures (internal/equeue) and workstealing decisions
// (internal/policy) as the real runtime, but charges costs to per-core
// virtual cycle clocks and models spinlock contention and the cache
// hierarchy in virtual time. Every table and figure of the paper is
// regenerated on this platform (see internal/bench).
//
// # Scheduling model
//
// The engine always advances the core with the smallest virtual clock,
// one atomic action at a time (process one event, or one steal attempt,
// or one idle wait). Because steps are applied in global time order,
// locks can be modeled exactly with a single "free at" timestamp per
// lock: an acquirer at time t waits max(0, freeAt-t). Two bounded
// anachronisms remain — an action spans its whole duration atomically,
// so another core can observe its effects up to one action early — and
// they are bounded by a single handler execution, which is far below the
// horizons measured here.
//
// # Determinism
//
// Runs are reproducible: same configuration and seed, same metrics. The
// engine owns a single rand.Rand; handlers and workloads must draw
// randomness from it and avoid iterating Go maps where order leaks into
// decisions.
package sim

import (
	"fmt"
	"math/rand"

	"github.com/melyruntime/mely/internal/cachesim"
	"github.com/melyruntime/mely/internal/equeue"
	"github.com/melyruntime/mely/internal/metrics"
	"github.com/melyruntime/mely/internal/obs"
	"github.com/melyruntime/mely/internal/policy"
	"github.com/melyruntime/mely/internal/profile"
	"github.com/melyruntime/mely/internal/topology"
)

// HandlerFunc is a simulated event handler. It runs at the virtual time
// the event finishes executing; it may post follow-up events and touch
// the cache model through ctx. Its Go-level execution time is irrelevant:
// the virtual cost is Ev.Cost plus modeled cache latency.
type HandlerFunc func(ctx *Ctx, ev *equeue.Event)

// HandlerOpts configures a registered handler.
type HandlerOpts struct {
	// DefaultCost is used when a posted event leaves Cost zero.
	DefaultCost int64
	// Penalty is the handler's ws_penalty annotation (section III-C).
	Penalty int32
	// DynamicEstimate makes the time-left accounting use the handler's
	// learned average execution time instead of the event's exact cost
	// (the future-work mode of section VII: no programmer annotations).
	DynamicEstimate bool
	// AutoPenalty derives the handler's ws_penalty from monitored
	// memory usage instead of an annotation (the second future-work
	// mode of section VII): handlers that repeatedly touch large,
	// long-lived data sets look increasingly unattractive to thieves.
	AutoPenalty bool
}

// Config configures an Engine.
type Config struct {
	Topology *topology.Topology
	Policy   policy.Config
	Params   Params
	Seed     int64

	// Trace, when non-nil, receives the runtime's flight-recorder
	// record for every handler execution (KindExec: Arg the color, N
	// the handler id, StolenFlag set on a migrated event) and every
	// steal round (KindSteal: Arg the victim, N the colors taken; N == 0
	// for a round that found nothing) on the given core's timeline, with
	// cycles converted to nanoseconds at Params.CyclesPerSecond — what
	// obs.WriteChrome renders. Keep it fast; it runs inline.
	Trace func(core int, ev obs.Event)

	// OnQuiescent runs when no events remain anywhere (after clocks
	// sync). Returning false ends the run. Nil means quiescence ends
	// the run. The context is bound to QuiesceCore.
	OnQuiescent func(ctx *Ctx) bool
	QuiesceCore int
}

// Ev describes an event to post.
type Ev struct {
	Handler equeue.HandlerID
	Color   equeue.Color
	// Cost in cycles; zero uses the handler's DefaultCost.
	Cost int64
	// Footprint/DataID describe the data set touched (cache model);
	// DataSize is the full object size when only part of it is touched.
	Footprint int64
	DataSize  int64
	DataID    uint64
	// Data is the continuation payload.
	Data any
}

type handlerEntry struct {
	name string
	fn   HandlerFunc
	opts HandlerOpts

	// Memory-usage monitoring for AutoPenalty: EWMAs of the lines a
	// handler touches and of how often the data set is long-lived
	// (seen before this execution).
	footLines float64
	reuseFrac float64
	observed  bool
}

// autoPenaltyDivisor scales monitored memory usage into a ws_penalty:
// one penalty point per this many long-lived lines touched.
const autoPenaltyDivisor = 16

// autoPenalty converts the monitored usage into a penalty annotation.
func (h *handlerEntry) autoPenalty() int32 {
	if !h.observed {
		return 1
	}
	p := 1 + int32(h.reuseFrac*h.footLines/autoPenaltyDivisor)
	if p < 1 {
		p = 1
	}
	return p
}

// observeMemory folds one execution's memory behaviour into the EWMAs.
func (h *handlerEntry) observeMemory(lines float64, reused bool) {
	r := 0.0
	if reused {
		r = 1.0
	}
	if !h.observed {
		h.footLines, h.reuseFrac, h.observed = lines, r, true
		return
	}
	const alpha = 0.125
	h.footLines += alpha * (lines - h.footLines)
	h.reuseFrac += alpha * (r - h.reuseFrac)
}

type simLock struct {
	freeAt int64
}

type core struct {
	id    int
	clock int64
	lock  simLock

	// The queue (in the configured layout) and the running color.
	equeue.Core
	idle bool

	// executing holds an event whose cost has been charged but whose
	// handler has not yet run. The handler runs at the core's next
	// step, i.e. once the global time front reaches the execution's
	// finish time — so the continuation's posts and lock operations
	// happen in global time order (a long event must not reserve a
	// remote lock far in the future).
	executing *equeue.Event

	stats     *metrics.Core
	victimBuf []int
	// stealSet is the scratch steal set of this core's attempts.
	stealSet equeue.StealSet
}

// Engine simulates one runtime configuration on one machine.
type Engine struct {
	cfg      Config
	topo     *topology.Topology
	pol      policy.Config
	params   Params
	cache    *cachesim.Model
	table    *equeue.ColorTable
	cores    []*core
	handlers []handlerEntry
	profiles *profile.Table
	stealMon *profile.StealCostMonitor
	run      *metrics.Run
	rng      *rand.Rand
	pool     equeue.Pool

	// enqueueCost/dequeueCost are the layout's queue-operation prices.
	enqueueCost, dequeueCost int64

	pending   int
	stopped   bool
	queueLen  []int
	nextData  uint64
	busFreeAt int64

	timers   timerHeap
	timerSeq uint64
}

// New validates cfg and builds an engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("sim: nil topology")
	}
	if err := cfg.Policy.Validate(); err != nil {
		return nil, err
	}
	if cfg.Params.CyclesPerSecond == 0 {
		cfg.Params = DefaultParams()
	}
	if cfg.QuiesceCore < 0 || cfg.QuiesceCore >= cfg.Topology.NumCores() {
		return nil, fmt.Errorf("sim: quiesce core %d out of range", cfg.QuiesceCore)
	}
	n := cfg.Topology.NumCores()
	table := equeue.NewColorTable(n)
	// The paper's workloads (and the models regenerating its tables)
	// engineer colors around the Libasync-smp color%ncores placement;
	// keep it for the simulated platform. The real runtime uses the
	// table's default 64-bit mix placement.
	table.SetPlacement(func(c equeue.Color) int { return int(uint64(c) % uint64(n)) })
	e := &Engine{
		cfg:      cfg,
		topo:     cfg.Topology,
		pol:      cfg.Policy,
		params:   cfg.Params,
		cache:    cachesim.New(cfg.Topology, cfg.Params.Cache),
		table:    table,
		profiles: profile.NewTable(0),
		stealMon: profile.NewStealCostMonitor(cfg.Params.StealCostSeed),
		run:      metrics.NewRun(n, cfg.Params.CyclesPerSecond),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		queueLen: make([]int, n),
		nextData: 1,
	}
	list := cfg.Policy.Layout == policy.ListLayout
	e.enqueueCost, e.dequeueCost = e.params.EnqueueMely, e.params.DequeueMely
	if list {
		e.enqueueCost, e.dequeueCost = e.params.EnqueueList, e.params.DequeueList
	}
	e.cores = make([]*core, n)
	for i := 0; i < n; i++ {
		c := &core{id: i, stats: &e.run.Cores[i], victimBuf: make([]int, 0, n)}
		c.Core = equeue.NewCore(list, cfg.Params.StealCostSeed, cfg.Params.BatchThreshold)
		if !list && cfg.Params.StealIntervals > 0 {
			c.Mely().Stealing().SetIntervals(cfg.Params.StealIntervals)
		}
		e.cores[i] = c
	}
	return e, nil
}

// Register adds a handler and returns its id.
func (e *Engine) Register(name string, fn HandlerFunc, opts HandlerOpts) equeue.HandlerID {
	e.handlers = append(e.handlers, handlerEntry{name: name, fn: fn, opts: opts})
	e.profiles.Grow(len(e.handlers))
	return equeue.HandlerID(len(e.handlers) - 1)
}

// HandlerProfile exposes the learned execution-time profile of h.
func (e *Engine) HandlerProfile(h equeue.HandlerID) *profile.HandlerProfile {
	return e.profiles.Handler(int(h))
}

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// SetTrace installs (or replaces) the trace hook; see Config.Trace.
func (e *Engine) SetTrace(fn func(core int, ev obs.Event)) { e.cfg.Trace = fn }

// HandlerName is the name h was registered under ("" when unknown),
// the label obs.ChromeConfig resolves a traced handler id to.
func (e *Engine) HandlerName(h equeue.HandlerID) string {
	if int(h) < len(e.handlers) {
		return e.handlers[h].name
	}
	return ""
}

// trace hands the hook one record spanning [start, end) cycles of c's
// timeline. The duration is the difference of the converted stamps, so
// spans that abut in cycles abut in nanoseconds.
func (e *Engine) trace(c *core, k obs.Kind, start, end int64, arg uint64, n uint32) {
	nanos := func(cycles int64) int64 {
		return int64(float64(cycles) * 1e9 / e.params.CyclesPerSecond)
	}
	ts := nanos(start)
	e.cfg.Trace(c.id, obs.Event{Kind: k, Ts: ts, Dur: nanos(end) - ts, Arg: arg, N: n})
}

// NewDataID allocates a fresh data-set identity for the cache model.
func (e *Engine) NewDataID() uint64 {
	id := e.nextData
	e.nextData++
	return id
}

// Topology returns the simulated machine's topology.
func (e *Engine) Topology() *topology.Topology { return e.topo }

// Policy returns the engine's scheduling configuration.
func (e *Engine) Policy() policy.Config { return e.pol }

// Pending reports the number of queued (not yet executed) events.
func (e *Engine) Pending() int { return e.pending }

// Stopped reports whether the run ended at quiescence.
func (e *Engine) Stopped() bool { return e.stopped }

// StealCostEstimate exposes the monitored steal cost (Table IV context).
func (e *Engine) StealCostEstimate() int64 { return e.stealMon.Estimate() }

// Seed posts an event before the run starts, bound to QuiesceCore's
// context at time zero.
func (e *Engine) Seed(fn func(ctx *Ctx)) {
	ctx := &Ctx{eng: e, core: e.cores[e.cfg.QuiesceCore]}
	fn(ctx)
}

// RunUntil advances the simulation until every core's clock reaches t or
// the run stops at quiescence. It may be called repeatedly with
// increasing horizons.
func (e *Engine) RunUntil(t int64) {
	for !e.stopped {
		e.deliverDue()
		c := e.minClockCore(t)
		if c == nil {
			return
		}
		e.step(c)
		if e.pending == 0 && !e.anyQueued() && !e.anyExecuting() {
			if e.timers.Len() > 0 {
				// The machine is idle waiting for outside input.
				e.fastForward(t)
				continue
			}
			e.quiesce(t)
		}
	}
}

// ResetMetrics zeroes the accumulated counters (warmup boundary) —
// including the cache model's miss counts, but not residency.
func (e *Engine) ResetMetrics() {
	for i := range e.run.Cores {
		e.run.Cores[i] = metrics.Core{}
	}
	for i := range e.cache.Misses {
		e.cache.Misses[i] = 0
	}
	e.run.Payload = make(map[string]float64)
}

// Metrics finalizes and returns the run's counters. measured is the
// cycle extent the counters cover (horizon minus warmup).
func (e *Engine) Metrics(measured int64) *metrics.Run {
	for i := range e.run.Cores {
		e.run.Cores[i].L2Misses = e.cache.Misses[i]
	}
	e.run.Cycles = measured
	return e.run
}

// Payload exposes the run's workload-defined counters.
func (e *Engine) Payload() map[string]float64 { return e.run.Payload }

func (e *Engine) minClockCore(horizon int64) *core {
	var best *core
	for _, c := range e.cores {
		if c.clock >= horizon {
			continue
		}
		if best == nil || c.clock < best.clock {
			best = c
		}
	}
	return best
}

func (e *Engine) anyExecuting() bool {
	for _, c := range e.cores {
		if c.executing != nil {
			return true
		}
	}
	return false
}

func (e *Engine) anyQueued() bool {
	for _, c := range e.cores {
		if c.Len() > 0 {
			return true
		}
	}
	return false
}

// step performs one atomic action for core c.
//
// The running color set by startOne outlives the steps that execute it:
// the execution conceptually spans [pop, c.clock), and a thief stepping
// inside that span must see the color as running (it can never be
// stolen). The core stops running it where a runtime worker's pop would:
// at the pop of another color, and once the core finds nothing to pop —
// before it steals or idles here, in fastForward while the machine waits
// for timers, and at quiescence. Each of these ends the color's lease if
// it drained (equeue.Core.StopRunning).
func (e *Engine) step(c *core) {
	if c.executing != nil {
		e.finishOne(c)
		return
	}
	if c.Len() > 0 {
		e.startOne(c)
		return
	}
	c.StopRunning(e.table, c.id)
	if e.pol.Steal != policy.StealNone && e.stealAttempt(c) {
		return
	}
	c.idle = true
	c.clock += e.params.IdleRecheck
	c.stats.IdleCycles += e.params.IdleRecheck
}

// startOne dequeues one event and charges its execution; the handler
// body runs at the core's next step (see core.executing). The core has
// queued events: step checked, and the engine is single-threaded.
func (e *Engine) startOne(c *core) {
	c.idle = false
	start := c.clock

	// Dequeue under the core's own lock.
	e.lockAcquire(c, c)
	if e.pol.TimeLeft {
		c.Mely().SetStealCost(e.stealMon.Estimate())
	}
	ev, emptied := c.PopNext()
	c.clock += e.dequeueCost
	if emptied != nil {
		c.clock += e.params.ColorQueueUnlink
		e.table.SetQueue(emptied.Color(), nil)
		c.Mely().ReleaseColorQueue(emptied)
	}
	if prev, ok := c.RunningColor(); ok && ev.Color != prev {
		c.StopRunning(e.table, c.id)
	}
	c.SetRunning(ev.Color)
	e.lockRelease(c, c, c.clock)
	e.pending--
	e.queueLen[c.id] = c.Len()
	c.stats.QueueCycles += c.clock - start

	// Execute.
	objSize := ev.DataSize
	if objSize == 0 {
		objSize = ev.Footprint
	}
	handler := &e.handlers[ev.Handler]
	if handler.opts.AutoPenalty {
		lines := float64(ev.Footprint) / float64(e.params.Cache.LineSize)
		handler.observeMemory(lines, ev.DataID != 0 && e.cache.Known(ev.DataID))
	}
	cacheCycles := e.chargeAccess(c, ev.DataID, objSize, ev.Footprint)
	c.clock += ev.Cost + cacheCycles
	c.stats.Events++
	c.stats.ExecCycles += ev.Cost + cacheCycles
	c.stats.CacheAccessCycles += cacheCycles
	e.profiles.Handler(int(ev.Handler)).Observe(ev.Cost + cacheCycles)
	if ev.Stolen {
		c.stats.StolenEvents++
		c.stats.StolenExecCycles += ev.Cost + cacheCycles
	}

	c.executing = ev
	c.stats.BusyCycles += c.clock - start
	if e.cfg.Trace != nil {
		n := uint32(ev.Handler)
		if ev.Stolen {
			n |= obs.StolenFlag
		}
		e.trace(c, obs.KindExec, start, c.clock, uint64(ev.Color), n)
	}
}

// finishOne runs the handler continuation of the event whose execution
// completed at the core's current clock.
func (e *Engine) finishOne(c *core) {
	ev := c.executing
	c.executing = nil
	start := c.clock
	h := &e.handlers[ev.Handler]
	if h.fn != nil {
		ctx := Ctx{eng: e, core: c, ev: ev}
		h.fn(&ctx, ev)
	}
	c.stats.BusyCycles += c.clock - start
	e.pool.Put(ev)
}

// stealAttempt runs the workstealing routine of Figure 2 (with the
// configured heuristics) and reports whether events were migrated. One
// victim-lock critical section selects and detaches up to
// policy.StealBudget colors — one, the paper's protocol, unless batch
// stealing raises the budget — and one self-lock hold adopts them.
// Per-color costs (scan/inspect/unlink/link) are charged per color, the
// fixed ones — victim lock transfer, can_be_stolen, migrate setup — once
// per steal: exactly the amortization a larger budget buys.
func (e *Engine) stealAttempt(c *core) bool {
	c.idle = false
	c.stats.StealAttempts++
	t0 := c.clock
	var waited int64
	c.clock += e.params.StealSetup

	order := e.pol.VictimOrder(c.id, e.queueLen, e.topo, c.victimBuf)
	set := &c.stealSet
	for _, vid := range order {
		v := e.cores[vid]
		// The heuristic policies pre-screen victims with cheap unlocked
		// reads; the base algorithm locks blindly — one of the two
		// naivetes the paper calls out.
		if e.pol.Steal == policy.StealHeuristic {
			if v.Len() == 0 {
				continue
			}
			if e.pol.TimeLeft && v.WorthyColors() == 0 {
				continue
			}
		}
		waited += e.lockAcquire(c, v)
		heldFrom := c.clock
		c.clock += e.params.InspectVictim

		set.Colors = set.Colors[:0]
		if e.pol.CanBeStolen(&v.Core) {
			if e.pol.TimeLeft {
				v.Mely().SetStealCost(e.stealMon.Estimate())
			}
			w := e.pol.SelectStealSet(&v.Core, set)
			c.clock += int64(w.Scanned)*e.params.ScanPerEvent +
				int64(w.Inspected)*e.params.CQInspect +
				int64(w.Unlinked)*e.params.ColorQueueUnlink
		}
		e.lockRelease(c, v, heldFrom)
		if len(set.Colors) == 0 {
			continue
		}

		// Migrate into our own queue and take ownership of every color.
		e.queueLen[vid] = v.Len()
		waited += e.lockAcquire(c, c)
		mHeld := c.clock
		c.clock += e.params.MigrateBase + int64(c.Adopt(set))*e.params.ColorQueueLink
		for i, color := range set.Colors {
			e.table.SetOwner(color, c.id)
			e.table.SetQueue(color, set.Queue(i))
		}
		e.lockRelease(c, c, mHeld)
		e.queueLen[c.id] = c.Len()

		dt := c.clock - t0
		c.stats.Steals++
		c.stats.StolenColors += int64(len(set.Colors))
		if !e.topo.SharesCache(c.id, vid) {
			c.stats.RemoteSteals++
		}
		c.stats.StealCycles += dt
		c.stats.BusyCycles += dt
		// The built-in monitoring estimates the intrinsic cost of a
		// steal (its critical path); queueing delays behind other
		// cores are contention, not cost, and would make the
		// worthiness threshold balloon under load.
		e.stealMon.Observe(dt - waited)
		if e.cfg.Trace != nil {
			e.trace(c, obs.KindSteal, t0, c.clock, uint64(vid), uint32(len(set.Colors)))
		}
		return true
	}

	c.stats.FailedSteals++
	dt := c.clock - t0
	c.stats.FailedStealCycles += dt
	c.stats.BusyCycles += dt
	if e.cfg.Trace != nil && dt > 0 {
		e.trace(c, obs.KindSteal, t0, c.clock, 0, 0)
	}
	return false
}

// lockAcquire blocks c on target's queue lock, charging wait and
// transfer costs, and returns the wait. Waits are folded into the
// enclosing step's busy span.
func (e *Engine) lockAcquire(c, target *core) int64 {
	var wait int64
	if target.lock.freeAt > c.clock {
		wait = target.lock.freeAt - c.clock
		c.stats.LockWaitCycles += wait
		c.clock = target.lock.freeAt
	}
	cost := e.params.LockAcquire +
		int64(e.topo.Dist(c.id, target.id))*e.params.LockDistPenalty
	c.clock += cost
	return wait
}

// lockRelease frees target's lock at c's current time. heldFrom is when
// the critical section began (for victim-pressure accounting).
func (e *Engine) lockRelease(c, target *core, heldFrom int64) {
	target.lock.freeAt = c.clock
	if target != c {
		target.stats.VictimLockedCycles += c.clock - heldFrom
	}
}

// newEvent returns the queued form of ev: a pooled event with its
// handler's default cost, time-left estimate and ws_penalty filled in.
func (e *Engine) newEvent(ev Ev) *equeue.Event {
	h := &e.handlers[ev.Handler]
	event := e.pool.Get()
	event.Handler = ev.Handler
	event.Color = ev.Color
	event.Cost = ev.Cost
	if event.Cost == 0 {
		event.Cost = h.opts.DefaultCost
	}
	event.Footprint = ev.Footprint
	event.DataSize = ev.DataSize
	event.DataID = ev.DataID
	event.Data = ev.Data
	if h.opts.DynamicEstimate {
		event.Est = e.profiles.Handler(int(ev.Handler)).Estimate()
		if event.Est == 0 {
			event.Est = 1 // unprofiled: look cheap until learned
		}
	}
	penalty := h.opts.Penalty
	if h.opts.AutoPenalty {
		penalty = h.autoPenalty()
	}
	event.Penalty = e.pol.EffectivePenalty(penalty)
	return event
}

// post enqueues ev on the owner of its color (or an explicit target).
func (e *Engine) post(from *core, explicit int, ev Ev) {
	event := e.newEvent(ev)
	owner := e.resolveOwner(ev.Color, explicit)
	target := e.cores[owner]

	e.lockAcquire(from, target)
	heldFrom := from.clock
	if e.pol.TimeLeft {
		target.Mely().SetStealCost(e.stealMon.Estimate())
	}
	from.clock += e.enqueueCost
	if target.Push(target.QueueFor(e.table, ev.Color), event) {
		from.clock += e.params.ColorQueueLink
	}
	e.lockRelease(from, target, heldFrom)
	e.pending++
	e.queueLen[owner] = target.Len()

	// Wake an idle target: it would have observed the event at post
	// time had it kept spinning.
	if target != from && target.idle && target.clock < from.clock {
		target.stats.IdleCycles += from.clock - target.clock
		target.clock = from.clock
	}
	target.idle = false
}

// resolveOwner returns the core a new event of the color must go to: its
// owner, unless explicit (PostTo) pins the color to another core, which
// it may only while the color is live nowhere. Ownership is a lease that
// ends when the color drains (equeue.Core.StopRunning), so the owner is
// the hash home again by the time the color's next event arrives — the
// reason the paper's Web server keeps stealing forever: every load wave
// re-creates the hash imbalance and the thieves pay the steal price
// again.
func (e *Engine) resolveOwner(col equeue.Color, explicit int) int {
	owner := e.table.Owner(col)
	if explicit < 0 || explicit == owner {
		return owner
	}
	if e.cores[owner].ColorLive(col, e.table.Queue(col)) {
		panic(fmt.Sprintf(
			"sim: PostTo(%d) would split live color %d owned by core %d",
			explicit, col, owner))
	}
	e.table.SetOwner(col, explicit)
	return explicit
}

// quiesce synchronizes clocks and invokes the OnQuiescent hook.
func (e *Engine) quiesce(horizon int64) {
	var maxClock int64
	for _, c := range e.cores {
		if c.clock > maxClock {
			maxClock = c.clock
		}
	}
	for _, c := range e.cores {
		if c.clock < maxClock {
			c.stats.IdleCycles += maxClock - c.clock
			c.clock = maxClock
		}
		c.idle = true
		c.StopRunning(e.table, c.id)
	}
	if maxClock >= horizon {
		return // horizon reached; caller decides whether to continue
	}
	if e.cfg.OnQuiescent == nil {
		e.stopped = true
		return
	}
	qc := e.cores[e.cfg.QuiesceCore]
	ctx := Ctx{eng: e, core: qc}
	if !e.cfg.OnQuiescent(&ctx) {
		e.stopped = true
	}
}

// chargeAccess runs a cache-model access, adding memory-bus queueing:
// every missed line occupies the shared bus, and concurrent misses from
// other cores must wait — the mechanism that makes steal-induced misses
// a machine-wide cost, not just the thief's (the paper's +146% L2 miss
// observation comes with a throughput collapse for exactly this reason).
func (e *Engine) chargeAccess(c *core, id uint64, objSize, touched int64) int64 {
	cycles, missLines := e.cache.Access(c.id, id, objSize, touched)
	if missLines > 0 && e.params.BusCyclesPerLine > 0 {
		if e.busFreeAt > c.clock {
			wait := e.busFreeAt - c.clock
			cycles += wait
			c.stats.BusWaitCycles += wait
		}
		occupied := missLines * e.params.BusCyclesPerLine
		start := c.clock
		if e.busFreeAt > start {
			start = e.busFreeAt
		}
		e.busFreeAt = start + occupied
	}
	return cycles
}

// Ctx is the execution context passed to simulated handlers.
type Ctx struct {
	eng  *Engine
	core *core
	ev   *equeue.Event
}

// Post registers an event on the current owner of its color.
func (ctx *Ctx) Post(ev Ev) { ctx.eng.post(ctx.core, -1, ev) }

// PostTo registers an event on an explicit core, claiming the color for
// that core. It panics if the color is live elsewhere (that would break
// the mutual-exclusion guarantee); use it only for fresh colors, e.g.
// a microbenchmark "registering 50000 events on the first core".
func (ctx *Ctx) PostTo(core int, ev Ev) { ctx.eng.post(ctx.core, core, ev) }

// Now is the executing core's virtual clock.
func (ctx *Ctx) Now() int64 { return ctx.core.clock }

// Core is the executing core's id.
func (ctx *Ctx) Core() int { return ctx.core.id }

// Rand returns the engine's deterministic random source.
func (ctx *Ctx) Rand() *rand.Rand { return ctx.eng.rng }

// NewDataID allocates a data-set identity (see cachesim).
func (ctx *Ctx) NewDataID() uint64 { return ctx.eng.NewDataID() }

// Touch charges a full access to a data set from the current core and
// returns its latency (also added to the core's clock). The first Touch
// of an id is its allocation.
func (ctx *Ctx) Touch(id uint64, size int64) int64 {
	return ctx.TouchPart(id, size, size)
}

// TouchPart charges an access to `touched` bytes of a data set of
// objSize bytes (see cachesim.Access for the exact semantics).
func (ctx *Ctx) TouchPart(id uint64, objSize, touched int64) int64 {
	cycles := ctx.eng.chargeAccess(ctx.core, id, objSize, touched)
	ctx.core.clock += cycles
	ctx.core.stats.CacheAccessCycles += cycles
	ctx.core.stats.ExecCycles += cycles
	return cycles
}

// FreeData drops a data set from the cache model (short-lived data).
func (ctx *Ctx) FreeData(id uint64) { ctx.eng.cache.Free(id) }

// AddPayload accumulates a workload-defined metric (requests served,
// bytes transferred, ...).
func (ctx *Ctx) AddPayload(key string, v float64) {
	ctx.eng.run.Payload[key] += v
}

// Charge adds extra cycles to the current core (explicit modeling of
// work outside Ev.Cost).
func (ctx *Ctx) Charge(cycles int64) {
	ctx.core.clock += cycles
	ctx.core.stats.ExecCycles += cycles
}
