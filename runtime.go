package mely

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/melyruntime/mely/internal/admission"
	"github.com/melyruntime/mely/internal/affinity"
	"github.com/melyruntime/mely/internal/equeue"
	"github.com/melyruntime/mely/internal/obs"
	"github.com/melyruntime/mely/internal/policy"
	"github.com/melyruntime/mely/internal/profile"
	"github.com/melyruntime/mely/internal/spinlock"
	"github.com/melyruntime/mely/internal/timerwheel"
	"github.com/melyruntime/mely/internal/topology"
)

// ErrStopped is returned by Post and PostBatch once the runtime has
// stopped (Stop, Close, or the end of Run). Producers race shutdown by
// design — drain loops and pumps test for it with errors.Is.
var ErrStopped = admission.ErrStopped

// Handler identifies a registered event handler. The zero value is
// invalid (Post rejects it), so optional handler fields can be left
// unset.
type Handler struct{ id int32 } // id is the handler index + 1; 0 = invalid

// HandlerFunc is an event handler. Handlers must not block: network and
// disk waits belong in pumps (see internal/netpoll) that post events on
// readiness. A handler runs with its event's color held — no two events
// of one color ever run concurrently.
type HandlerFunc func(ctx *Ctx)

// HandlerOption annotates a handler at registration.
type HandlerOption interface{ apply(*handlerEntry) }

type penaltyOption int32

func (p penaltyOption) apply(h *handlerEntry) { h.penalty = int32(p) }

// WithPenalty sets the handler's workstealing penalty (section III-C of
// the paper): thieves perceive its events as penalty-times cheaper, so
// handlers touching large, long-lived data sets stay near their data.
func WithPenalty(penalty int) HandlerOption {
	if penalty < 1 {
		penalty = 1
	}
	return penaltyOption(penalty)
}

type costOption time.Duration

func (c costOption) apply(h *handlerEntry) { h.annotated = time.Duration(c) }

// WithCostEstimate pins the handler's execution-time annotation (the
// paper's profiling-then-annotation workflow). Without it the runtime
// learns the estimate online.
func WithCostEstimate(d time.Duration) HandlerOption { return costOption(d) }

type handlerEntry struct {
	id        equeue.HandlerID // index in the handler table
	name      string
	fn        HandlerFunc
	penalty   int32
	annotated time.Duration
	// prof is the handler's execution-time profile. It rides in the entry
	// so the copy-on-write handler table publishes it with the handler:
	// whoever can see handler i can see its profile, also while Register
	// runs beside the workers.
	prof *profile.HandlerProfile
}

// Sizes of the worker-owned posting state (see rcore).
const (
	// profFeedEvery is how many executions of one handler a worker
	// averages in its own memory before it feeds the shared profile.
	profFeedEvery = 16
	// spanBlockSize is how many span ids a worker reserves from traceSeq
	// at a time.
	spanBlockSize = 1024
	// coreFreeMax bounds a worker's event free stack.
	coreFreeMax = 256
)

// profAcc is one worker's unfed execution time of one handler.
type profAcc struct{ sum, n int64 }

// rstats are per-core counters, atomics so Stats can snapshot while
// workers run.
type rstats struct {
	events           atomic.Int64
	execNanos        atomic.Int64
	steals           atomic.Int64
	remoteSteals     atomic.Int64
	stealAttempts    atomic.Int64
	failedSteals     atomic.Int64
	stealNanos       atomic.Int64
	stolenEvents     atomic.Int64
	stolenExecNanos  atomic.Int64
	stolenColors     atomic.Int64
	batchHist        obs.Counts
	backoffParks     atomic.Int64
	parks            atomic.Int64
	postedHere       atomic.Int64
	batchedEvents    atomic.Int64
	colorQueueChurns atomic.Int64
	panics           atomic.Int64
	stalls           atomic.Int64
	timersFired      atomic.Int64
	timerLagHist     obs.Counts
	// Sampled latency histograms (Config.ObsSampleRate): queue delay
	// (post→execute) and handler execution time.
	qdelayHist   obs.Hist
	execTimeHist obs.Hist
}

type rcore struct {
	id   int
	lock spinlock.Lock

	// The event queue, in the policy's layout, and the running color;
	// guarded by lock. Only popLocal changes the running color: it stays
	// set between events and is cleared by the pop that finds nothing,
	// before the worker steals or parks — mirroring the simulator.
	equeue.Core

	// runCQ is the ColorQueue the running color's event was popped from
	// (Mely layout; nil when nothing runs). A thief never takes the
	// running color and its lease ends only once it stops running
	// (StopRunning), so until the next pop this queue is the color's
	// tabled queue on this core — the public part of the color, where
	// everyone but its worker delivers, without a color-table round trip
	// (deliverLocked). That holds for a queue the pop emptied as well: it
	// stays tabled while the run lasts, and the next popLocal retires it
	// if nothing re-linked it. Non-nil only while a color is running;
	// guarded by lock.
	runCQ *equeue.ColorQueue

	// qlen/stealLen mirror queue sizes for unlocked victim screening (the
	// running color's private run is in neither, see run). qlen counts the
	// arrivals too, and stealLen each arrival worth a steal on its own.
	qlen     atomic.Int32
	stealLen atomic.Int32

	// arrivals are the events a PostBatch handed to this core without
	// filing them (spliceGroup): still linked as the batch built them, in
	// post order, behind everything queued here. Whoever takes lock to
	// decide anything per color files them first, through deliverLocked
	// (lockFiled), so they join the queues in order and before any later
	// delivery. Filing cannot fail: a group splices only when no color
	// anywhere is away from its home or in transit, so each arrival's
	// color is homed here and owned here; such a color can move only under
	// this lock, and every mover files first. Guarded by lock; one word,
	// where padding kept every field from wake on at the offset, and so on
	// the cache line, it was measured at (TestHotFieldLayout pins which
	// fields may share a line, not where the lines fall).
	arrivals equeue.Chain

	wake chan struct{}

	// wheel is the core's timing wheel: timers for colors owned here are
	// armed here and harvested by this worker, wherever the color is then.
	wheel *timerwheel.Wheel
	// parkTimer is the reusable park sleep timer (one per core instead
	// of a time.NewTimer allocation per park).
	parkTimer *time.Timer

	victimBuf []int
	lenBuf    []int
	// stealSet is the steal set of this worker's attempts, reused across
	// them (worker-owned); the padding behind it is there for the same
	// reason as the one above.
	stealSet equeue.StealSet
	_        [24]byte
	// timerBuf is the timer harvest buffer (worker-owned).
	timerBuf []*timerwheel.Entry
	// Stall-watchdog progress stamps, written by the worker around each
	// handler invocation (only when Config.StallThreshold is set) and
	// read by the watchdog goroutine. execStart is the execution start
	// (runtime-epoch nanoseconds; 0 = not executing); execTrace/
	// execSpan/execHandler describe the running event. Three of them sit
	// here, in the worker's block, execHandler and stalled at the end of
	// the struct: every field from ctx to colorDelays keeps the cache
	// line it was measured on (TestHotFieldLayout).
	execStart atomic.Int64
	execTrace atomic.Uint64
	execSpan  atomic.Uint64
	// ctx is the worker's reusable handler context. Handlers receive
	// *Ctx, which escapes, so a per-event Ctx literal was the hot
	// path's only heap allocation; one event executes at a time per
	// worker, and a Ctx was never valid past the handler's return (its
	// event is zeroed and pooled), so reuse is invisible to handlers.
	ctx Ctx

	// run is the private part of the running color (Mely layout): the
	// events popLocal detached from runCQ behind the one it returned.
	// Only this worker could have popped them (a running color is neither
	// stolen nor re-homed), so it executes them without lock (runColor);
	// runLeft is how many of them the color's batch still covers.
	// Worker-owned and written per event, hence down here: off the cache
	// lines of the fields above, which posters and thieves read.
	run     *equeue.ColorQueue
	runLeft int
	// runOpen lets the running handler append its own continuations to
	// run (Runtime.post): true only while runCQ has been empty since the
	// pop, so that an event appended to run precedes nothing delivered
	// before it. Stored under lock — by popLocal, by deliverLocked when
	// it pushes into runCQ, and by spliceGroup when the group holds the
	// running color — and loaded by the worker without it.
	runOpen atomic.Bool

	// Posting state of this core's worker. Only the worker touches it, so
	// what a handler posts, a timer fires or a reload brings back on this
	// core writes no word another core writes: sample ticks and span ids
	// come from ids (refilled from traceSeq a block at a time), events
	// from the free stack (execute refills it; evPool takes the
	// overflow), and prof holds the execution times not yet fed to the
	// shared handler profiles, by handler id.
	ids  idSource
	free []*equeue.Event
	prof []profAcc

	stats rstats

	// ring is the core's flight-recorder buffer (nil when
	// Config.TraceRing is negative); colorDelays attributes sampled
	// queue delay to the core's hottest colors.
	ring        *obs.Ring
	colorDelays colorDelayTable

	// The rest of the stall-watchdog stamps (see execStart): the running
	// event's handler, and stalled, which marks an already-reported
	// episode so one stuck handler emits one record.
	execHandler atomic.Int32
	stalled     atomic.Bool
}

// inTransitMarker occupies a color's table slot while a steal migrates
// its queue between cores, so the lease logic keeps treating the color
// as live (a drained-looking color would be re-homed mid-migration,
// splitting it across cores). Only its identity is ever used.
var inTransitMarker = new(equeue.ColorQueue)

// Runtime is the real multicore event-coloring runtime.
type Runtime struct {
	cfg Config
	// lastIncident (see incidentMu), collector and stalledCores make up
	// for the 40 bytes Config has lost: the fields below stay on the
	// cache lines they were measured on (see pending for what a shift
	// costs).
	lastIncident time.Time
	// collector is the self-monitoring layer (Config.ObsInterval): the
	// time-series ring + health engine, built by New so readers never
	// race Start; nil when disabled.
	collector *tsCollector
	// stalledCores is the stall watchdog's live gauge (see stallOn).
	stalledCores atomic.Int32

	pol   policy.Config
	topo  *topology.Topology
	table *equeue.ColorTable
	cores []*rcore

	handlers atomic.Pointer[[]handlerEntry]
	regMu    sync.Mutex

	stealMon *profile.StealCostMonitor

	started atomic.Bool
	stopped atomic.Bool
	// lifeMu serializes Start/Stop transitions: without it a Stop racing
	// Start's worker-launch loop would call wg.Wait concurrently with
	// wg.Add (a documented WaitGroup misuse). Workers never take it.
	lifeMu sync.Mutex
	wg     sync.WaitGroup

	evPool sync.Pool
	// scratch pools PostBatch working memory (see batchScratch).
	scratch sync.Pool

	// epoch anchors the monotonic timer clock (see Runtime.now).
	epoch time.Time

	// poll holds the readiness backends' counts (NotePollWakeup,
	// NoteWriteStall, NoteReadPause). A reactor writes them on every
	// wakeup, so they live in an allocation of their own, off the cache
	// lines of epoch and the other fields workers read per event; the
	// padding keeps adm and every field after it on the lines they were
	// measured on.
	poll *pollCounters
	_    [96]byte

	// adm is the overload-control layer (queue bounds, Reject/Block/
	// Spill admission, the spillq bridge). Nil on unbounded runtimes,
	// which therefore pay nothing on the posting hot path.
	adm *overload

	// Live observability (see obs.go): obsMask selects one in
	// Config.ObsSampleRate posts for latency sampling (obsOn false
	// disables), and ringAux is the shared flight-recorder track for
	// off-core actions (spill, reload, poll wakeups).
	obsOn   bool
	obsMask uint64
	obsSeq  atomic.Uint64
	ringAux *obs.Ring

	// Causal tracing (the flight recorder's flow layer): traceOn gates
	// every id stamp — with TraceRing negative no event field is ever
	// written, so an untraced runtime pays zero bytes per event —
	// and traceSeq allocates span ids runtime-wide (a root's trace id
	// is its own span id, so roots need no second counter).
	traceOn  bool
	traceSeq atomic.Uint64

	// Stall watchdog (Config.StallThreshold): stallOn gates the per-core
	// progress stamps on the execute path, stallStop ends the watchdog
	// goroutine, stalledCores (above) is the live gauge, and
	// lastStallStack holds the most recent episode's full goroutine dump.
	stallOn        bool
	stallStop      chan struct{}
	stallStopOnce  sync.Once
	stallMu        sync.Mutex
	lastStallStack []byte

	// timersCanceled counts averted firings runtime-wide: written per
	// Cancel, so it sits on this line of cold fields, off pending's.
	timersCanceled atomic.Int64

	// The incident fields are profile-on-anomaly's rate-limit state
	// (Config.IncidentDir), shared by the collector and the stall
	// watchdog.
	incidentMu   sync.Mutex
	incidentBusy bool
	incidents    atomic.Int64

	// pending counts posted-but-not-completed events (Drain). Drain
	// waiters subscribe to drained; workers open it when pending hits
	// zero, so an idle drain costs nothing (no polling). drainWaiters
	// keeps the zero-crossing check off the execute hot path when
	// nobody is draining. Every poster and worker writes pending: it
	// sits down here beside fields nobody reads per event, not on the
	// cache lines of stopped, stealMon, handlers or epoch.
	pending      atomic.Int64
	drainWaiters atomic.Int32
	drained      admission.Gate
}

// New builds a runtime; call Start to launch the workers.
func New(cfg Config) (*Runtime, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	pol := cfg.Policy.internal()
	if pol.Steal != policy.StealNone {
		// The runtime steals in batches; the simulator keeps the
		// presets' one color per steal so the paper's tables regenerate
		// unchanged.
		pol.MaxStealColors = cfg.maxStealColors
	}
	r := &Runtime{
		cfg:      cfg,
		pol:      pol,
		topo:     detectTopology(cfg.Cores),
		table:    equeue.NewColorTable(cfg.Cores),
		stealMon: profile.NewStealCostMonitor(cfg.stealCostSeed.Nanoseconds()),
		epoch:    time.Now(),
		poll:     new(pollCounters),
	}
	r.evPool.New = func() any { return &equeue.Event{} }
	r.scratch.New = func() any { return &batchScratch{} }
	if cfg.ObsSampleRate > 0 {
		rate := uint64(1)
		for rate < uint64(cfg.ObsSampleRate) {
			rate <<= 1
		}
		r.obsOn = true
		r.obsMask = rate - 1
	}
	if cfg.TraceRing > 0 {
		r.ringAux = obs.NewRing(cfg.TraceRing)
		r.traceOn = true
	}
	r.stallOn = cfg.StallThreshold > 0
	empty := make([]handlerEntry, 0, 16)
	r.handlers.Store(&empty)
	r.cores = make([]*rcore, cfg.Cores)
	for i := range r.cores {
		c := &rcore{
			id:        i,
			wake:      make(chan struct{}, 1),
			wheel:     timerwheel.New(cfg.timerTick, timerwheel.DefaultLevels),
			victimBuf: make([]int, 0, cfg.Cores),
			lenBuf:    make([]int, cfg.Cores),
			free:      make([]*equeue.Event, 0, coreFreeMax),
		}
		c.wheel.Owner = i
		if cfg.TraceRing > 0 {
			c.ring = obs.NewRing(cfg.TraceRing)
		}
		c.Core = equeue.NewCore(pol.Layout == policy.ListLayout, cfg.stealCostSeed.Nanoseconds(), cfg.batchThreshold)
		c.run = c.NewColorQueue(0) // nil on the list layout: no private run
		r.cores[i] = c
	}
	if cfg.MaxQueuedEvents > 0 || cfg.MaxQueuedPerColor > 0 {
		adm, err := newAdmission(r, cfg)
		if err != nil {
			return nil, err
		}
		r.adm = adm
	}
	if cfg.ObsInterval > 0 {
		r.collector = newCollector(r)
	}
	return r, nil
}

// Register adds a handler. Registration is allowed at any time, also
// while the runtime runs.
func (r *Runtime) Register(name string, fn HandlerFunc, opts ...HandlerOption) Handler {
	entry := handlerEntry{name: name, fn: fn, penalty: 1, prof: &profile.HandlerProfile{}}
	for _, o := range opts {
		o.apply(&entry)
	}
	if entry.annotated > 0 {
		entry.prof.Annotate(entry.annotated.Nanoseconds())
	}
	r.regMu.Lock()
	defer r.regMu.Unlock()
	old := *r.handlers.Load()
	next := make([]handlerEntry, len(old)+1)
	copy(next, old)
	entry.id = equeue.HandlerID(len(old))
	next[len(old)] = entry
	r.handlers.Store(&next)
	return Handler{id: int32(len(next))}
}

// Start launches the worker goroutines.
func (r *Runtime) Start() error {
	r.lifeMu.Lock()
	defer r.lifeMu.Unlock()
	if r.stopped.Load() {
		return fmt.Errorf("mely: runtime already stopped")
	}
	if r.started.Swap(true) {
		return fmt.Errorf("mely: runtime already started")
	}
	r.wg.Add(len(r.cores))
	for _, c := range r.cores {
		go r.worker(c)
	}
	if r.stallOn {
		r.stallStop = make(chan struct{})
		r.wg.Add(1)
		go r.stallWatchdog()
	}
	if r.collector != nil {
		r.wg.Add(1)
		go r.collectorLoop(r.collector)
	}
	return nil
}

// Stop terminates the workers and waits for them to exit. Events still
// queued are dropped; call Drain first (or use Run) for a graceful
// shutdown. Stop is idempotent.
func (r *Runtime) Stop() {
	r.lifeMu.Lock()
	defer r.lifeMu.Unlock()
	if !r.started.Load() || r.stopped.Swap(true) {
		r.stopped.Store(true)
		if r.started.Load() {
			// An earlier Stop shut the workers down (lifeMu serializes
			// us behind it); Wait here is immediate and keeps the
			// waits-for-exit contract for every caller.
			r.wg.Wait()
		}
		if r.adm != nil {
			r.adm.close()
		}
		r.drained.Open() // queued events (if any) will never complete
		return
	}
	if r.adm != nil {
		// Posters blocked under OverloadBlock must observe the stop now
		// (they re-check stopped on wake), not after the workers exit.
		r.adm.Wake()
	}
	if r.stallStop != nil {
		r.stallStopOnce.Do(func() { close(r.stallStop) })
	}
	if col := r.collector; col != nil {
		col.stopOnce.Do(func() { close(col.stop) })
	}
	for _, c := range r.cores {
		c.unpark()
	}
	r.wg.Wait()
	if r.adm != nil {
		// Workers are gone; nothing reloads anymore. Tear the spill
		// store down: without SpillRecover the segments are deleted
		// (spilled events are dropped exactly like queued ones); with
		// it Close is durable — open tails are sealed and the backlog
		// survives for the next runtime's recovery.
		r.adm.close()
	}
	// Events still queued were dropped and will never complete: release
	// Drain waiters so they observe the stop instead of hanging.
	r.drained.Open()
}

// Close shuts the runtime down immediately and idempotently: it is Stop
// with an io.Closer-shaped signature, so a Runtime slots into defer
// chains and resource managers. Queued events are dropped; for a
// graceful shutdown call Drain first or use Run. Close never fails and
// may be called any number of times, before or after Start.
func (r *Runtime) Close() error {
	r.Stop()
	return nil
}

// Run is the context-aware lifecycle: it starts the workers, blocks
// until ctx is cancelled, drains every event posted so far, and stops.
// It returns Start's error if the runtime cannot launch, ErrStopped if
// the runtime was stopped out from under it (Stop/Close during Run)
// with events still queued, and nil after a complete drain-and-stop.
// The drain deliberately ignores ctx (which is already done by then) —
// handlers finish their queued work — so producers should stop posting
// once ctx ends; handler chains that re-post forever will hold Run
// open.
func (r *Runtime) Run(ctx context.Context) error {
	if err := r.Start(); err != nil {
		return err
	}
	<-ctx.Done()
	err := r.Drain(context.WithoutCancel(ctx))
	r.Stop()
	return err
}

// Drain waits until every posted event has been executed. It is
// event-driven: waiters sleep on a channel the workers close at the
// pending-count zero crossing, so draining an idle runtime burns no
// CPU. If the runtime stops with events still queued (Stop or Close
// without a prior drain drops them), Drain fails with ErrStopped
// rather than waiting for completions that can never happen.
func (r *Runtime) Drain(ctx context.Context) error {
	if r.pending.Load() == 0 {
		return nil
	}
	r.drainWaiters.Add(1)
	defer r.drainWaiters.Add(-1)
	for {
		ch := r.drained.Subscribe()
		// Re-check after subscribing: a zero crossing before this point
		// either already closed ch or is ordered before this load.
		if r.pending.Load() == 0 {
			return nil
		}
		if r.stopped.Load() {
			// The runtime stopped with this work still queued; it was
			// dropped (Stop wakes drainers on every path).
			return ErrStopped
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

// Post registers an event for handler h under the given color. It is
// safe from any goroutine, including handlers (prefer Ctx.Post there).
// After shutdown it fails with ErrStopped; on a bounded runtime
// (Config.MaxQueuedEvents / MaxQueuedPerColor) it additionally follows
// the configured OverloadPolicy — failing with ErrOverloaded, waiting
// for queue space (see PostContext to bound the wait), or spilling the
// color's tail to disk.
func (r *Runtime) Post(h Handler, color Color, data any) error {
	return r.post(nil, nil, h, color, data, true)
}

// post is the way in behind Post, PostContext, PostEdge, Ctx.Post and the
// bounded leg of PostBatch: validate, admit, stamp, then deliver or spill
// (docs/architecture.md "The way in"). external marks posts from
// outside handler context: only those can be rejected or blocked (a
// rejected or blocked continuation would wedge the workers — see
// OverloadPolicy's decision table). from is the handler context that is
// posting (nil outside a handler): its event is the causal parent of the
// new one — without it the new event is a trace root — and its core's
// worker-owned posting state stands in for the runtime-wide counters.
func (r *Runtime) post(ctx context.Context, from *Ctx, h Handler, color Color, data any, external bool) error {
	if r.stopped.Load() {
		return ErrStopped
	}
	entry, err := lookupHandler(*r.handlers.Load(), h)
	if err != nil {
		return err
	}
	route, err := r.routeFor(ctx, equeue.Color(color), external)
	if err != nil {
		return err
	}
	c, ptrace, pspan := from.origin()
	var lone idSource
	ids := r.idsOn(c, 1, &lone)
	if route == admission.Disk {
		// Stamped like any other post, but on the stack: the record goes
		// to the color's disk tail and no event leaves the pool.
		var ev equeue.Event
		r.stamp(&ev, ids, entry, color, data, ptrace, pspan)
		r.spill(c, &ev)
		return nil
	}
	ev := r.newEvent(c)
	r.stamp(ev, ids, entry, color, data, ptrace, pspan)
	continues := from != nil && ev.Color == from.ev.Color
	if continues && !from.handedOn {
		// The pending hand-off: a continuation of the running color takes
		// over the running event's pending count instead of adding its
		// own — execute then skips the decrement. The child cannot
		// complete before the parent returns (a running color is neither
		// executed elsewhere nor stolen), so the count never reads zero
		// while either is unfinished and Drain stays exact. One hand-off
		// per execution; every other post counts for itself.
		from.handedOn = true
	} else {
		r.pending.Add(1)
	}
	if continues && c.runOpen.Load() {
		// The private run: nothing was delivered to the running color's
		// queue since its worker emptied it, so the continuation is next
		// in line whichever list holds it, and the worker's own needs no
		// lock, no mirror and no wake-up (see rcore.runOpen).
		c.run.Append(ev)
		c.notePosted(ev)
		return nil
	}
	r.enqueue(ev)
	return nil
}

// lookupHandler is the one handler validation: every way in resolves its
// Handler here, against one load of the handler table.
func lookupHandler(hs []handlerEntry, h Handler) (*handlerEntry, error) {
	if idx := int(h.id) - 1; idx >= 0 && idx < len(hs) {
		return &hs[idx], nil
	}
	return nil, unknownHandlerError(h)
}

func unknownHandlerError(h Handler) error {
	return fmt.Errorf("mely: unknown handler %d", h.id)
}

// routeFor is the admission step (admission.Layer.Admit). An unbounded
// runtime has no admission layer and sends everything to memory. It
// inlines in this shape, just under the budget.
func (r *Runtime) routeFor(ctx context.Context, color equeue.Color, external bool) (route admission.Route, err error) {
	if r.adm != nil {
		route, err = r.adm.Admit(ctx, color, external)
	}
	return route, err
}

// idSource is where a poster draws its one-in-ObsSampleRate sample ticks
// and its span ids from: a worker's own (rcore.ids, whose span block
// (spanNext, spanEnd] newSpan refills from traceSeq), or what idsOn cut
// from the shared sequences for a poster that has no core.
type idSource struct {
	spanNext, spanEnd uint64
	tick              uint64
}

// idsOn picks the id source of a poster about to post n events: the
// worker-owned one of the core it runs on, or, for a poster with no core
// (c nil), n ticks and n span ids cut from the runtime-wide sequences
// into *lone — one atomic each however large n is (ids need only be
// unique per runtime, not dense in post order across posters).
func (r *Runtime) idsOn(c *rcore, n int, lone *idSource) *idSource {
	if c != nil {
		return &c.ids
	}
	k := uint64(n)
	if r.obsOn {
		lone.tick = r.obsSeq.Add(k) - k
	}
	if r.traceOn {
		lone.spanEnd = r.traceSeq.Add(k)
		lone.spanNext = lone.spanEnd - k
	}
	return lone
}

// sampleTick counts one post on s and reports whether it is the one in
// ObsSampleRate sampled for latency.
func (r *Runtime) sampleTick(s *idSource) bool {
	if !r.obsOn {
		return false
	}
	s.tick++
	return s.tick&r.obsMask == 0
}

// newSpan draws a span id, unique per runtime, from s.
func (r *Runtime) newSpan(s *idSource) uint64 {
	if s.spanNext == s.spanEnd {
		s.spanEnd = r.traceSeq.Add(spanBlockSize)
		s.spanNext = s.spanEnd - spanBlockSize
	}
	s.spanNext++
	return s.spanNext
}

// stamp fills a zeroed event for the handler lookupHandler resolved to
// entry. It is the only writer of a posted event's cost, penalty,
// latency-sample stamp and causal identifiers. ptrace/pspan name the
// causal parent (zero = root): with tracing on the event gets its own
// span id, inheriting the parent's trace or founding a new one.
func (r *Runtime) stamp(ev *equeue.Event, ids *idSource, entry *handlerEntry, color Color, data any, ptrace, pspan uint64) {
	ev.Handler = entry.id
	ev.Color = equeue.Color(color)
	// The profiled cost of an execution in nanoseconds, the time-left
	// heuristic's currency; an unprofiled handler looks cheap until
	// measured.
	ev.Cost = max(entry.prof.Estimate(), 1)
	ev.Penalty = r.pol.EffectivePenalty(entry.penalty)
	ev.Data = data
	if r.sampleTick(ids) {
		// Sampled for latency observation: the stamp rides to execution,
		// where the queue delay is measured (see observeExec).
		ev.PostNanos = r.now()
	}
	if r.traceOn {
		span := r.newSpan(ids)
		ev.SpanID = span
		if ptrace != 0 {
			ev.TraceID, ev.ParentSpan = ptrace, pspan
		} else {
			ev.TraceID = span // a root founds its trace under its own id
		}
	}
}

// newEvent takes a zeroed event off the calling worker's free stack, or from
// the shared pool when that is empty or the caller is no worker (c nil).
func (r *Runtime) newEvent(c *rcore) *equeue.Event {
	if c != nil {
		if n := len(c.free); n > 0 {
			ev := c.free[n-1]
			c.free[n-1] = nil
			c.free = c.free[:n-1]
			return ev
		}
	}
	return r.evPool.Get().(*equeue.Event)
}

// recycleEvent takes back a zeroed event that newEvent handed out: onto
// the calling worker's free stack while there is room, else to the pool.
func (r *Runtime) recycleEvent(c *rcore, ev *equeue.Event) {
	if len(c.free) < coreFreeMax {
		c.free = append(c.free, ev)
	} else {
		r.evPool.Put(ev)
	}
}

// enqueue delivers an event to the current owner of its color,
// retrying when a concurrent steal or a lease's end moves the color.
// Ownership is a lease: a stolen color goes back to its hash core as
// soon as it has fully drained on its current owner (StopRunning) — the
// paper's color table, and the reason load waves re-create the hash
// placement the paper measures against. It returns the core the event
// was delivered to.
func (r *Runtime) enqueue(ev *equeue.Event) *rcore {
	for tries := 0; ; tries++ {
		if tries > 1 {
			// More than one retry means we are waiting on another
			// goroutine's progress (a thief mid-migration): yield so it
			// can run, especially when GOMAXPROCS < workers+posters.
			runtime.Gosched()
		}
		owner := r.table.Owner(ev.Color)
		c := r.cores[owner]
		r.lockFiled(c)
		if !r.deliverLocked(c, owner, ev) {
			// Stolen or re-homed between the read and the lock, or in
			// transit: resolve again.
			c.lock.Unlock()
			continue
		}
		c.syncLens()
		c.notePosted(ev)
		c.lock.Unlock()
		c.unpark()
		return c
	}
}

// notePosted accounts one event delivered to core c: Stats.PostedHere
// and, for an event sampled for latency, the flight recorder's post record.
func (c *rcore) notePosted(ev *equeue.Event) {
	c.stats.postedHere.Add(1)
	c.recordPost(ev)
}

// recordPost writes the flight recorder's post record of an event sampled
// for latency.
func (c *rcore) recordPost(ev *equeue.Event) {
	if ev.PostNanos != 0 && c.ring != nil {
		c.ring.AppendFlow(obs.KindPost, ev.PostNanos, 0, uint64(ev.Color), uint32(ev.Handler),
			ev.TraceID, ev.SpanID, ev.ParentSpan)
	}
}

// lockFiled takes c.lock for a holder that decides anything per color:
// it refreshes the time-left steal cost and files c's arrivals first, so
// that what it finds queued is everything posted to c. Each arrival goes
// through deliverLocked like any delivery; it cannot be refused (see
// rcore.arrivals), and one that was would be a protocol bug.
func (r *Runtime) lockFiled(c *rcore) {
	c.lock.Lock()
	if r.pol.TimeLeft {
		c.Mely().SetStealCost(r.stealMon.Estimate())
	}
	for ev := c.arrivals.Pop(); ev != nil; ev = c.arrivals.Pop() {
		if !r.deliverLocked(c, c.id, ev) {
			panic("mely: an arrival's color left its home core before it was filed")
		}
	}
}

// deliverLocked is the single lease-protocol delivery step, shared by
// the per-event path (enqueue) and the filing of arrivals (lockFiled).
// The caller holds c.lock and resolved owner == c.id for ev's color. It
// re-checks ownership against the table (except for a continuation of
// the running color, which cannot have moved) and pushes on success.
// false means the color moved — stolen away, re-homed by its lease's
// end, or in transit — and the caller must re-route the event.
func (r *Runtime) deliverLocked(c *rcore, owner int, ev *equeue.Event) bool {
	m := c.Mely() // called directly on this path: it runs once per event
	if cq := c.runCQ; cq != nil && cq.Color() == ev.Color {
		// The running color continues itself: no ownership re-check is
		// needed, a running color can neither be stolen nor lose its
		// lease (see rcore.runCQ). From here on the color's own
		// continuations must queue behind this event (see rcore.runOpen).
		c.runOpen.Store(false)
		if m.Push(cq, ev) {
			c.stats.colorQueueChurns.Add(1)
		}
		return true
	}
	home := r.table.Hash(ev.Color)
	if owner == home {
		// Home delivery, the common case: one stripe hop re-checks
		// ownership and installs the queue (see DeliverHome).
		if m == nil { // the list layout tables no queues
			if cq, _, ok := r.table.DeliverHome(ev.Color, nil); !ok || cq == inTransitMarker {
				return false // stolen, or in transit: wait it out
			}
			c.Push(nil, ev)
			return true
		}
		fresh := m.NewColorQueue(ev.Color)
		cq, installed, ok := r.table.DeliverHome(ev.Color, fresh)
		if !ok || cq == inTransitMarker {
			// Stolen since resolution, or mid-migration. A color in
			// transit REJECTS deliveries — the caller retries until the
			// thief has adopted. Installing a queue over the marker
			// would erase the in-transit state and make the new queue
			// stealable before the first thief lands, letting a second
			// steal interleave and split the color across two cores.
			m.ReleaseColorQueue(fresh)
			return false
		}
		if !installed {
			m.ReleaseColorQueue(fresh)
		}
		if m.Push(cq, ev) {
			c.stats.colorQueueChurns.Add(1)
		}
		return true
	}
	// Away-from-home (leased) delivery: re-check owner and fetch the
	// queue in one hop. A lease lasts only while its color is live here
	// (StopRunning), so the color still owned here has events queued
	// here, in its tabled queue on the Mely layout.
	curOwner, cq := r.table.OwnerAndQueue(ev.Color)
	if curOwner != owner || cq == inTransitMarker {
		return false // moved, or in transit: wait for adoption (see above)
	}
	if c.Push(cq, ev) {
		c.stats.colorQueueChurns.Add(1)
	}
	return true
}

// worker is the per-core scheduling loop. It is an ordinary goroutine,
// so waking it is a run-queue insert; only Config.Pin wires it to an OS
// thread (sched_setaffinity acts on threads), which turns every wake-up
// of a parked worker into a thread hand-off.
func (r *Runtime) worker(c *rcore) {
	defer r.wg.Done()
	if r.cfg.Pin {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		_ = affinity.Pin(c.id) // best effort; unpinned is correct, just less local
	}

	// idle counts consecutive fruitless rounds (no local work, steal
	// probe failed or disabled). It survives parks, so repeated failed
	// probes back off exponentially (see below) until any success.
	idle := 0
	for !r.stopped.Load() {
		// Expire due timers first so deadline work cannot starve behind
		// a deep event backlog; the check is one atomic load when
		// nothing is due.
		if r.harvestTimers(c) > 0 {
			idle = 0
			continue
		}
		if ev := r.popLocal(c); ev != nil {
			r.runColor(c, ev)
			idle = 0
			continue
		}
		if r.pol.Steal != policy.StealNone && r.stealOnce(c) {
			idle = 0
			continue
		}
		idle++
		// Adaptive steal throttling: when probes keep failing — the
		// steal-storm shape, many cores idle and hammering the same few
		// victim locks — park for exponentially growing slices
		// (stealBackoff, 2x per fruitless round, capped at parkTimeout)
		// instead of a full parkTimeout, so a lone idle worker reacts
		// fast while a stampede quiets itself. Any successful round
		// resets the streak. Doubling instead of shifting by the streak,
		// so a large stealBackoff cannot overflow into a negative park.
		d := r.cfg.parkTimeout
		bd := r.cfg.stealBackoff
		for i := 1; i < idle && bd < d; i++ {
			bd <<= 1
		}
		if bd < d {
			d = bd
			c.stats.backoffParks.Add(1)
		}
		// Sleep no longer than the wheel's next expiry: the park is the
		// timer resolution floor for an otherwise-idle core.
		if d = r.timerParkBound(c, d); d <= 0 {
			continue // a timer is already due; harvest instead of parking
		}
		c.stats.parks.Add(1)
		r.park(c, d)
	}
}

// park puts the worker to sleep for at most d, or until a wake token
// arrives.
func (r *Runtime) park(c *rcore, d time.Duration) {
	// A wake token may already be buffered: a post landed after our last
	// queue scan (every unpark sends unconditionally, so the token
	// cannot be missed the way a parked-flag handshake could if unpark
	// read the flag before park stored it). Consume it and return to
	// re-scan instead of sleeping.
	select {
	case <-c.wake:
		return
	default:
	}
	// One reusable timer per core: parks are the worker's steady idle
	// state and a fresh time.NewTimer per park was a measurable
	// allocation on the idle path. The stop-and-drain before Reset
	// clears a stale expiry from a wake-interrupted park; a value that
	// slips through at worst ends one future park early, which is always
	// safe here (the loop just re-scans).
	if c.parkTimer == nil {
		c.parkTimer = time.NewTimer(d)
	} else {
		if !c.parkTimer.Stop() {
			select {
			case <-c.parkTimer.C:
			default:
			}
		}
		c.parkTimer.Reset(d)
	}
	select {
	case <-c.wake:
	case <-c.parkTimer.C:
	}
}

// unpark deposits a wake token unconditionally (non-blocking, buffered
// chan of one): if the worker is awake the token makes its next park
// return immediately, closing the missed-wakeup window. Callers publish
// the work the worker should find first.
func (c *rcore) unpark() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// popLocal dequeues the next event of c's queue and is the one place the
// running color changes: it becomes the popped event's, or none when the
// queue is empty. A color that stops running here ends its lease in the
// same hold (equeue.Core.StopRunning). On the Mely layout popLocal also
// detaches the rest of the color's batch into c.run (see runColor).
func (r *Runtime) popLocal(c *rcore) *equeue.Event {
	r.lockFiled(c)
	var ev *equeue.Event
	if m := c.Mely(); m == nil {
		ev, _ = c.PopNext()
	} else {
		r.retireRunCQ(c)
		ev, c.runCQ = m.PopNextFrom()
		open := false
		if cq := c.runCQ; cq != nil {
			m.PopRun(cq, c.run)
			c.runLeft = r.cfg.batchThreshold - 1
			if open = cq.Len() == 0; open {
				c.stats.colorQueueChurns.Add(1) // the pop unlinked it
			}
		}
		c.runOpen.Store(open)
	}
	c.syncLens()
	if prev, ok := c.RunningColor(); ok && (ev == nil || ev.Color != prev) {
		// The drained run's queue is retired above, so no poster can
		// find it once the color is home.
		if color, home, ended := c.StopRunning(r.table, c.id); ended && c.ring != nil {
			c.ring.Append(obs.KindReHome, r.now(), 0, uint64(color), uint32(home))
		}
	}
	if ev != nil {
		c.SetRunning(ev.Color)
	}
	c.lock.Unlock()
	return ev
}

// runColor executes ev and then the running color's private run: the
// events popLocal detached behind ev plus the continuations the handlers
// append while the run's tail is open (Runtime.post). The run costs no
// lock round trip; the color still yields as before — due timers are
// harvested between every two events, and once batchThreshold events ran
// back to back with other work queued on the core, the rest goes back to
// the front of the color's queue and the core rotates. A stop drops what
// is left, like everything else still queued.
func (r *Runtime) runColor(c *rcore, ev *equeue.Event) {
	end := r.execute(c, ev, 0)
	for c.run != nil && c.run.Len() > 0 && !r.stopped.Load() {
		if c.runLeft <= 0 && c.qlen.Load() > 0 {
			r.lockFiled(c)
			if c.Mely().PushFrontRun(c.runCQ, c.run) {
				c.stats.colorQueueChurns.Add(1)
			}
			c.syncLens()
			c.lock.Unlock()
			return
		}
		c.runLeft--
		if r.harvestTimers(c) > 0 || r.adm != nil {
			end = 0 // a firing, or Executed's reload, ran since that stamp
		}
		end = r.execute(c, c.run.Drain(), end)
	}
}

// execute runs the handler and feeds the profiler. A panicking handler
// is contained: the event is dropped, the panic counted, and the worker
// lives on (one bad event must not take down the whole core). start is
// the event's start stamp when the caller has one — the end stamp
// execute returned for the event before, with nothing but its retire in
// between (runColor) — and 0 to read the clock.
func (r *Runtime) execute(c *rcore, ev *equeue.Event, start int64) (end int64) {
	hs := *r.handlers.Load()
	entry := &hs[ev.Handler]
	// One monotonic read at each end (the start's may be the previous
	// event's end): the stall stamp, the profiler, the latency sample and
	// the flight recorder all take the epoch-relative value as it is.
	if start == 0 {
		start = r.now()
	}
	handedOn := false
	if entry.fn != nil {
		if r.stallOn {
			// Progress stamp for the stall watchdog: the descriptive
			// fields land before execStart so the watchdog (which keys
			// off a nonzero execStart) never reads a half-written stamp.
			c.execTrace.Store(ev.TraceID)
			c.execSpan.Store(ev.SpanID)
			c.execHandler.Store(int32(ev.Handler))
			c.execStart.Store(start)
		}
		c.ctx = Ctx{r: r, core: c, ev: ev}
		runHandler(entry, &c.ctx, &c.stats)
		handedOn = c.ctx.handedOn
		c.ctx.ev = nil // the event is about to be zeroed and pooled
		if r.stallOn {
			c.execStart.Store(0)
			c.stalled.Store(false) // the episode (if any) ended with the handler
		}
	}
	end = r.now()
	elapsed := end - start
	if elapsed < 1 {
		elapsed = 1
	}
	c.feedProfile(ev.Handler, entry.prof, elapsed)
	c.stats.events.Add(1)
	c.stats.execNanos.Add(elapsed)
	if ev.Stolen {
		c.stats.stolenEvents.Add(1)
		c.stats.stolenExecNanos.Add(elapsed)
	}
	if ev.PostNanos != 0 || c.ring != nil {
		r.observeExec(c, ev, start, elapsed)
	}
	color := ev.Color
	slabbed := ev.Slab
	*ev = equeue.Event{} // release the payload reference promptly either way
	if !slabbed {
		r.recycleEvent(c, ev)
	}
	if a := r.adm; a != nil {
		// Overload accounting: the queued-events gauge drops, blocked
		// posters get a wake, and a spilling color that drained to its
		// low-water mark pulls the next batch back from disk. Runs
		// before the pending decrement so Drain cannot observe zero
		// while this color still has a disk tail to reload.
		a.Executed(c, color)
	}
	// An event that handed its pending count to a continuation (see post)
	// has none left to give back.
	if !handedOn && r.pending.Add(-1) == 0 && r.drainWaiters.Load() > 0 {
		r.drained.Open()
	}
	return end
}

// feedProfile accounts one execution of handler h to its profile p. The
// time accumulates in the worker's own memory and reaches the shared
// profile as a mean every profFeedEvery executions, so cores running one
// handler do not CAS one word per event; while the handler has no
// estimate yet the sample goes through at once, so the first execution
// seeds it.
func (c *rcore) feedProfile(h equeue.HandlerID, p *profile.HandlerProfile, elapsed int64) {
	if int(h) >= len(c.prof) {
		c.prof = append(c.prof, make([]profAcc, int(h)+1-len(c.prof))...)
	}
	acc := &c.prof[h]
	acc.sum += elapsed
	acc.n++
	if acc.n == profFeedEvery || p.Estimate() == 0 {
		p.Observe(acc.sum / acc.n)
		*acc = profAcc{}
	}
}

// runHandler invokes the handler with panic containment.
func runHandler(entry *handlerEntry, ctx *Ctx, stats *rstats) {
	defer func() {
		if recover() != nil {
			stats.panics.Add(1)
		}
	}()
	entry.fn(ctx)
}

// syncLens refreshes the unlocked mirrors thieves screen and rank victims
// by — qlen, stealLen — from the queues. Caller holds c.lock and has
// filed the arrivals (lockFiled), which the queues then hold.
func (c *rcore) syncLens() {
	c.qlen.Store(int32(c.Len()))
	c.stealLen.Store(int32(c.WorthyColors()))
}

// retireRunCQ forgets the running color's cached queue; one that its
// last pop drained and no continuation re-linked also leaves the color
// table and returns to the pool. Caller holds c.lock.
func (r *Runtime) retireRunCQ(c *rcore) {
	if cq := c.runCQ; cq != nil && cq.Len() == 0 {
		r.table.ClearQueue(cq.Color(), cq)
		c.Mely().ReleaseColorQueue(cq)
	}
	c.runCQ = nil
}

// stealOnce runs one pass of the workstealing algorithm (Figure 2 plus
// the configured heuristics) and reports whether work was migrated.
func (r *Runtime) stealOnce(c *rcore) bool {
	c.stats.stealAttempts.Add(1)
	start := r.now()

	for i, v := range r.cores {
		c.lenBuf[i] = int(v.qlen.Load())
	}
	order := r.pol.VictimOrder(c.id, c.lenBuf, r.topo, c.victimBuf)
	set := &c.stealSet

	// unworthy records that some victim had events queued and none worth
	// the current steal-cost estimate.
	unworthy := false
	for _, vid := range order {
		v := r.cores[vid]
		// Heuristic policies screen victims with the unlocked
		// mirrors; the base algorithm locks blindly, as in the paper.
		if r.pol.Steal == policy.StealHeuristic {
			if v.qlen.Load() == 0 {
				continue
			}
			if r.pol.TimeLeft && v.stealLen.Load() == 0 {
				unworthy = true
				continue
			}
		}

		if !r.detachSet(v, c.id, set) {
			continue
		}
		r.adoptSet(c, set)
		colors := set.Colors

		dt := r.now() - start
		if c.ring != nil {
			c.ring.Append(obs.KindSteal, start, dt, uint64(vid), uint32(len(colors)))
		}
		c.stats.steals.Add(1)
		c.stats.stolenColors.Add(int64(len(colors)))
		c.stats.batchHist.Observe(&obs.StealBatchBounds, int64(len(colors)))
		if !r.topo.SharesCache(c.id, vid) {
			c.stats.remoteSteals.Add(1)
		}
		c.stats.stealNanos.Add(dt)
		r.observeSteal(dt)
		if len(colors) > 1 && len(r.cores) > 2 {
			// The batch brought home more colors than one worker can
			// drain at once; one wakeup lets a parked neighbor steal
			// the surplus onward instead of sleeping out its timeout.
			// One, not len(colors): cascading thieves wake the next
			// neighbor themselves if work remains. Skip the victim —
			// it has its own work and would not re-steal the surplus.
			next := (c.id + 1) % len(r.cores)
			if next == vid {
				next = (next + 1) % len(r.cores)
			}
			r.cores[next].unpark()
		}
		return true
	}

	c.stats.failedSteals.Add(1)
	if unworthy {
		r.decayStealCost()
	}
	return false
}

// detachSet is the victim's half of a steal, one critical section under
// v.lock: it files v's arrivals, selects and detaches the whole steal
// set (a single color when the budget is one) and publishes every lease
// in one table pass. It reports whether it took anything.
func (r *Runtime) detachSet(v *rcore, thief int, set *equeue.StealSet) bool {
	r.lockFiled(v)
	set.Colors = set.Colors[:0]
	if r.pol.CanBeStolen(&v.Core) {
		r.pol.SelectStealSet(&v.Core, set)
	}
	if len(set.Colors) > 0 {
		// Ownership moves under the victim's lock; posters that race will
		// retry against the thief. The transit marker keeps each color
		// "live" until adoption so the lease logic cannot re-home it
		// mid-migration. Owner and marker are published in one stripe
		// acquisition per color — and colors sharing a stripe share one
		// acquisition — because a two-step publish would expose a
		// detached queue to posters that already see the new owner.
		r.table.BeginMigrationBatch(set.Colors, thief, inTransitMarker)
	}
	v.syncLens() // the filing alone may have moved stealLen
	v.lock.Unlock()
	return len(set.Colors) > 0
}

// adoptSet is the thief's half of a steal: it migrates the whole set into
// c's queue under one hold of c.lock. Between BeginMigrationBatch and
// here the table holds the in-transit marker for every stolen color and
// every delivery backs off (deliverLocked), so no poster can have
// installed a queue over a marker, and no second thief can have found
// anything of these colors to steal; EndMigration panics if one did.
// Tabling each color's queue (nil on the list layout) retires the
// marker and ends the color's transit.
func (r *Runtime) adoptSet(c *rcore, set *equeue.StealSet) {
	r.lockFiled(c)
	for i, color := range set.Colors {
		r.table.EndMigration(color, set.Queue(i), inTransitMarker)
	}
	c.Adopt(set)
	c.syncLens()
	c.lock.Unlock()
}

// stealSampleClamp bounds a measured steal fed to the monitor to this
// multiple of the current estimate: the estimate still climbs to any
// real cost within a few steals (+3/8 per clamped sample), but no single
// outlier prices every color out.
const stealSampleClamp = 4

// observeSteal feeds one measured steal to the cost monitor. A thief
// descheduled mid-steal measures its time off the CPU, not the steal,
// hence the clamp.
func (r *Runtime) observeSteal(dt int64) {
	r.stealMon.Observe(min(dt, stealSampleClamp*r.stealMon.Estimate()))
}

// decayStealCost pulls the steal-cost estimate 1/64 of the way back to
// stealCostSeed. It runs when a probe found work queued but nothing
// worth the estimate: steals are the estimate's only corrective
// samples, so an estimate too high to allow any would otherwise stand
// for the runtime's life. (The monitor's own average takes an eighth of
// the eighth fed here.)
func (r *Runtime) decayStealCost() {
	est, seed := r.stealMon.Estimate(), r.cfg.stealCostSeed.Nanoseconds()
	if est > seed {
		r.stealMon.Observe(est - (est-seed)>>3)
	}
}

// Ctx is the execution context of a running handler. It is valid until
// the handler returns and belongs to the handler's goroutine: posting
// through it uses the executing core's worker-owned state, so a handler
// must not hand it to another goroutine (use Runtime.Post there).
type Ctx struct {
	r    *Runtime
	core *rcore
	ev   *equeue.Event
	// handedOn records that this execution gave its pending count to a
	// same-color continuation (see Runtime.post).
	handedOn bool
}

// origin is what a post inherits from the handler context making it: the
// core whose worker-owned posting state it uses and its causal parent's
// ids. Outside a handler (ctx nil) there is no core and the event is a
// trace root.
func (ctx *Ctx) origin() (c *rcore, ptrace, pspan uint64) {
	if ctx == nil {
		return nil, 0, 0
	}
	return ctx.core, ctx.ev.TraceID, ctx.ev.SpanID
}

// Post registers a follow-up event. It is an internal continuation:
// on a bounded runtime it is never rejected or blocked (that would
// wedge the worker executing this handler), though a spilling color's
// tail discipline still applies under OverloadSpill. The new event
// inherits this event's causal lineage (same trace, parented on this
// span) when tracing is on.
func (ctx *Ctx) Post(h Handler, color Color, data any) error {
	return ctx.r.post(nil, ctx, h, color, data, false)
}

// Data returns the event's payload.
func (ctx *Ctx) Data() any { return ctx.ev.Data }

// Color returns the event's color.
func (ctx *Ctx) Color() Color { return Color(ctx.ev.Color) }

// CoreID identifies the worker executing the handler.
func (ctx *Ctx) CoreID() int { return ctx.core.id }

// Stolen reports whether a steal migrated this event before execution.
func (ctx *Ctx) Stolen() bool { return ctx.ev.Stolen }

// TraceID returns the executing event's causal trace id — the id of
// the ingress root this event descends from (zero with tracing off).
func (ctx *Ctx) TraceID() uint64 { return ctx.ev.TraceID }

// SpanID returns the executing event's own span id (zero with tracing
// off). Events posted from this handler are parented on it.
func (ctx *Ctx) SpanID() uint64 { return ctx.ev.SpanID }

// Runtime returns the owning runtime.
func (ctx *Ctx) Runtime() *Runtime { return ctx.r }
