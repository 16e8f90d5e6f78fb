package mely

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/melyruntime/mely/internal/equeue"
	"github.com/melyruntime/mely/internal/obs"
	"github.com/melyruntime/mely/internal/spillq"
)

// ErrOverloaded is returned by Post, PostContext, and PostBatch when a
// configured queue bound (Config.MaxQueuedEvents /
// Config.MaxQueuedPerColor) is exceeded under OverloadReject. Test with
// errors.Is; producers typically shed the request (respond 503, drop
// the sample) rather than retry immediately — the bound exists because
// the runtime is already behind.
var ErrOverloaded = errors.New("mely: queue bound exceeded (overloaded)")

// OverloadPolicy selects what posting does once a queue bound is hit.
// It only matters when Config.MaxQueuedEvents or MaxQueuedPerColor is
// set; without bounds queues grow without limit (the pre-overload
// behavior).
//
// The decision table:
//
//	policy          external Post            handler/timer posts
//	--------------  -----------------------  ----------------------
//	OverloadReject  ErrOverloaded            admitted (never fail)
//	OverloadBlock   waits (ctx-cancelable)   admitted (never block)
//	OverloadSpill   tail spills to disk      tail spills to disk
//
// External posts are Post/PostContext/PostBatch from outside a
// handler; posts from handler context (Ctx.Post and friends) and timer
// firings are internal continuations — failing or blocking them would
// deadlock the workers, so under Reject and Block they are always
// admitted (the bound is then enforced at the edge, which is where
// load enters). OverloadSpill applies to every post: a saturated
// color's tail moves to disk segments (internal/spillq) and reloads in
// FIFO order as the color drains below its low-water mark, so memory
// stays bounded no matter who posts.
type OverloadPolicy int

const (
	// OverloadReject fails external posts with ErrOverloaded once a
	// bound is hit (the default when bounds are configured).
	OverloadReject OverloadPolicy = iota
	// OverloadBlock makes external posts wait until the queues drain
	// below the bound; PostContext waits are cancelable. Runtime stop
	// releases every waiter with ErrStopped.
	OverloadBlock
	// OverloadSpill moves saturated colors' queue tails to disk
	// (Config.SpillDir) and reloads them as the colors drain: posting
	// never fails and in-memory queues stay within the bound.
	OverloadSpill
)

func (p OverloadPolicy) String() string {
	switch p {
	case OverloadReject:
		return "reject"
	case OverloadBlock:
		return "block"
	case OverloadSpill:
		return "spill"
	default:
		return fmt.Sprintf("OverloadPolicy(%d)", int(p))
	}
}

// ParseOverloadPolicy parses an overload policy name
// (reject|block|spill, as String prints them; "" is OverloadReject).
func ParseOverloadPolicy(s string) (OverloadPolicy, error) {
	for p := OverloadReject; p <= OverloadSpill; p++ {
		if s == "" || strings.EqualFold(s, p.String()) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("mely: unknown overload policy %q (reject|block|spill)", s)
}

// SpillSyncPolicy selects when spilled records reach stable storage
// (Config.SpillSync): the loss-on-crash vs append-throughput dial of
// the spill store. Irrelevant without Config.SpillRecover in the sense
// that a non-recovering runtime deletes its segments anyway — but the
// syncs still happen as configured, so measure with the policy you
// deploy.
type SpillSyncPolicy int

// The values are the store's (spillq.SyncPolicy).
const (
	// SpillSyncNone (the default) syncs only when a segment fills and
	// seals: a crash can lose each spilling color's open tail, up to
	// one segment (256 KiB) of records per color.
	SpillSyncNone = SpillSyncPolicy(spillq.SyncNone)
	// SpillSyncInterval additionally syncs the open tail at most once
	// per 100 ms: a crash loses at most one interval's appends per
	// color.
	SpillSyncInterval = SpillSyncPolicy(spillq.SyncInterval)
	// SpillSyncAlways syncs every spilled batch before the append
	// returns: zero loss window — a record accepted onto disk survives
	// any crash — at a large throughput cost (one msync per append;
	// see BenchmarkSpillAppend and the README's tuning table).
	SpillSyncAlways = SpillSyncPolicy(spillq.SyncAlways)
)

func (p SpillSyncPolicy) String() string { return spillq.SyncPolicy(p).String() }

// ParseSpillSyncPolicy parses a spill sync policy name
// (none|interval|always, as String prints them; "" is SpillSyncNone).
func ParseSpillSyncPolicy(s string) (SpillSyncPolicy, error) {
	for p := SpillSyncNone; p <= SpillSyncAlways; p++ {
		if s == "" || strings.EqualFold(s, p.String()) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("mely: unknown spill sync policy %q (none|interval|always)", s)
}

// PostContext is Post with cancellation: under OverloadBlock a bounded
// runtime makes posters wait for queue space, and ctx bounds that wait.
// Under every other configuration it behaves exactly like Post.
func (r *Runtime) PostContext(ctx context.Context, h Handler, color Color, data any) error {
	return r.post(ctx, nil, h, color, data, true)
}

// PostEdge posts an event that is never rejected or blocked by an
// overload bound (a spilling color's disk-tail discipline still
// applies). It is the posting surface for edge components that
// implement their own backpressure: the contract is that the caller
// consults Saturated before producing more work for a color and pauses
// its source — netpoll pauses a saturated connection's read readiness —
// so its posts are the already-harvested remainder that failing or
// blocking would only lose or deadlock. Everything else should use
// Post, which the bounds actually govern.
func (r *Runtime) PostEdge(h Handler, color Color, data any) error {
	return r.post(nil, nil, h, color, data, false)
}

// PostBatchEdge is PostEdge's batch form (see PostBatch for the
// delivery semantics).
func (r *Runtime) PostBatchEdge(batch []BatchEvent) error {
	return r.postBatch(batch, nil, false)
}

// Bounded reports whether the runtime enforces overload bounds
// (Config.MaxQueuedEvents / MaxQueuedPerColor). Edge components use it
// to decide whether the Saturated-and-pause protocol is worth checking
// per unit of harvested work.
func (r *Runtime) Bounded() bool { return r.adm != nil }

// Saturated reports whether posting one more external event under
// color would currently hit a configured bound (always false on an
// unbounded runtime). Edge components use it for backpressure:
// netpoll pauses a connection's read readiness while its data color is
// saturated and resumes when the color drains, pushing the overload
// into the peer's TCP window instead of the runtime's memory.
func (r *Runtime) Saturated(color Color) bool {
	a := r.adm
	if a == nil {
		return false
	}
	if a.maxTotal > 0 && a.queued.Load() >= a.maxTotal {
		return true
	}
	if a.trackColors {
		s := a.shard(equeue.Color(color))
		s.mu.Lock()
		st := s.colors[equeue.Color(color)]
		sat := st != nil && (st.spilling() ||
			(a.maxPerColor > 0 && st.mem >= a.maxPerColor))
		s.mu.Unlock()
		return sat
	}
	return false
}

// admRoute is an admission decision.
type admRoute int

const (
	routeMemory admRoute = iota // deliver to the in-memory queues (slot reserved)
	routeDisk                   // append to the color's spill tail (slot reserved)
)

// admShardCount stripes the per-color admission state (power of two).
const admShardCount = 64

// reloadBatchRecords caps one reload iteration: enough to amortize the
// segment read, small enough that a reload cannot blow through the
// global bound before re-checking headroom.
const reloadBatchRecords = 256

type admShard struct {
	mu     sync.Mutex
	colors map[equeue.Color]*colorAdm
}

// colorAdm is one color's admission state. All fields are guarded by
// the owning shard's mutex.
type colorAdm struct {
	mem int64 // in-memory queued events of this color
	// disk counts the color's spilled events not yet reloaded, each from
	// the moment admit routes it to disk — a reservation: its record
	// reaches the store afterwards (appendRecord) — until reload brings
	// it back or forceMemory takes the slot to memory.
	disk int64
	// reloading serializes reloads of one color (at most one worker or
	// poster drains a color's disk tail at a time).
	reloading bool
	// starved marks a spilling color with an empty in-memory queue that
	// could not reload for lack of global headroom; any event completion
	// that frees headroom picks starved colors back up.
	starved bool
}

// spilling reports whether the color's tail lives on disk: every new post
// of the color routes to disk until the backlog has fully reloaded AND
// been delivered, which is what keeps per-color FIFO across the spill
// boundary.
func (st *colorAdm) spilling() bool { return st.disk > 0 || st.reloading }

// admission is the overload-control layer: queue-bound accounting,
// the Reject/Block/Spill policy machinery, and the bridge to the
// spillq store. It exists only on bounded runtimes (r.adm non-nil).
type admission struct {
	r           *Runtime
	policy      OverloadPolicy
	maxTotal    int64
	maxPerColor int64
	// lowWater is the per-color reload threshold: a spilling color
	// whose in-memory depth drains to it pulls the next batch back from
	// disk. Half the effective per-color bound.
	lowWater    int64
	trackColors bool

	// queued is the runtime-wide in-memory queued-event gauge
	// (Stats.QueuedEvents). Maintained only on bounded runtimes.
	queued atomic.Int64

	store  *spillq.Store
	ownDir bool

	shards [admShardCount]admShard

	// starved colors wait here for global headroom (see colorAdm).
	starvedMu sync.Mutex
	starvedQ  []equeue.Color
	starvedN  atomic.Int32

	// Block-policy gate: waiters subscribe to it and every completion
	// that could open space opens it.
	block        gate
	blockWaiters atomic.Int32

	spilled   atomic.Int64
	reloaded  atomic.Int64
	rejected  atomic.Int64
	blocked   atomic.Int64
	spillErrs atomic.Int64
	depthHist obs.Counts

	closeOnce sync.Once
	closeErr  error
}

// newAdmission builds the overload layer for a bounded Config (it is
// not constructed at all when no bound is set). For OverloadSpill it
// opens the spill store, defaulting SpillDir to a fresh private temp
// directory; an explicit SpillDir is used as-is (one runtime per
// directory) and survives as a directory across runs — only the
// runtime's segment files are cleaned up.
func newAdmission(r *Runtime, cfg Config) (*admission, error) {
	a := &admission{
		r:           r,
		policy:      cfg.OverloadPolicy,
		maxTotal:    int64(cfg.MaxQueuedEvents),
		maxPerColor: int64(cfg.MaxQueuedPerColor),
	}
	a.trackColors = a.maxPerColor > 0 || a.policy == OverloadSpill
	colorCap := a.maxPerColor
	if colorCap <= 0 || (a.maxTotal > 0 && a.maxTotal < colorCap) {
		colorCap = a.maxTotal
	}
	a.lowWater = colorCap / 2
	if a.lowWater < 1 {
		a.lowWater = 1
	}
	for i := range a.shards {
		a.shards[i].colors = make(map[equeue.Color]*colorAdm)
	}
	if a.policy == OverloadSpill {
		dir := cfg.SpillDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "mely-spill-")
			if err != nil {
				return nil, fmt.Errorf("mely: spill dir: %w", err)
			}
			dir = tmp
			a.ownDir = true
		}
		// Segment size and sync interval are the store's defaults
		// (256 KiB, 100 ms).
		opts := spillq.Options{
			Sync:    spillq.SyncPolicy(cfg.SpillSync),
			Recover: cfg.SpillRecover,
		}
		// Recovery: the store replays surviving record headers during
		// Open (per-color FIFO order); count them per color here, then
		// adopt each backlog below — after the store is wired — so the
		// colors start out spilling with the right disk depth, and
		// reloading begins immediately.
		var backlogs map[equeue.Color]int64
		if cfg.SpillRecover {
			backlogs = make(map[equeue.Color]int64)
			opts.OnRecover = func(rec spillq.Record) { backlogs[equeue.Color(rec.Color)]++ }
		}
		store, err := spillq.Open(dir, opts)
		if err != nil {
			if a.ownDir {
				os.RemoveAll(dir)
			}
			return nil, fmt.Errorf("mely: %w", err)
		}
		a.store = store
		for color, n := range backlogs {
			a.adoptRecovered(color, n)
		}
	}
	return a, nil
}

// adoptRecovered publishes one color's crash-recovered disk backlog
// into the admission state: the color starts out spilling (new posts
// route to disk behind the backlog, preserving per-color FIFO across
// the restart), the records count as pending work, and the reload
// machinery starts pulling the backlog into memory immediately —
// recovered events need no triggering execution, they flow in under the
// normal headroom-bounded batches (leftovers park as starved and drain
// on completions).
func (a *admission) adoptRecovered(color equeue.Color, n int64) {
	a.r.pending.Add(n)
	s := a.shard(color)
	s.mu.Lock()
	st := s.state(color)
	st.disk += n
	st.reloading = true
	s.mu.Unlock()
	a.reload(nil, color)
}

// close shuts the spill store down and releases blocked posters.
// Idempotent; called from Stop after the workers have exited.
func (a *admission) close() {
	a.closeOnce.Do(func() {
		a.block.open()
		if a.store != nil {
			a.closeErr = a.store.Close()
			if a.ownDir {
				os.RemoveAll(a.store.Dir())
			}
		}
	})
}

func (a *admission) shard(c equeue.Color) *admShard {
	// The same mix the color table uses, over different bits.
	x := uint64(c)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 29
	return &a.shards[x&(admShardCount-1)]
}

// headroom reports whether the global bound has space for one more
// in-memory event.
func (a *admission) headroom() bool {
	return a.maxTotal <= 0 || a.queued.Load() < a.maxTotal
}

// state returns color's admission state, created on first use. Caller
// holds s.mu.
func (s *admShard) state(color equeue.Color) *colorAdm {
	st := s.colors[color]
	if st == nil {
		st = &colorAdm{}
		s.colors[color] = st
	}
	return st
}

// admit is the admission decision for one event about to be posted, and
// a reservation either way. routeMemory means the event holds a slot
// against the bounds (the caller must enqueue it); routeDisk means it
// holds a slot of its color's disk tail — the color is spilling from
// here on — and the caller must spill it (Runtime.spill), which appends
// it there or, failing that, takes the slot to memory (forceMemory).
// external distinguishes edge posts from handler/timer continuations
// (see OverloadPolicy).
func (a *admission) admit(ctx context.Context, color equeue.Color, external bool) (admRoute, error) {
	countedBlock := false
	for {
		if a.r.stopped.Load() {
			return 0, ErrStopped
		}
		if !a.trackColors {
			// Global bound only, Reject or Block: no per-color state.
			q := a.queued.Load()
			if a.maxTotal > 0 && q >= a.maxTotal && external {
				if err := a.refuse(ctx, &countedBlock, a.headroom); err != nil {
					return 0, err
				}
				continue
			}
			if !a.queued.CompareAndSwap(q, q+1) {
				continue // raced another poster; re-evaluate the bound
			}
			return routeMemory, nil
		}

		s := a.shard(color)
		s.mu.Lock()
		st := s.colors[color]
		overColor := a.maxPerColor > 0 && st != nil && st.mem >= a.maxPerColor
		if a.policy == OverloadSpill && st != nil && (overColor || st.spilling()) {
			st.disk++
			s.mu.Unlock()
			return routeDisk, nil
		}
		if overColor && external {
			// Reject/Block at the per-color bound (no global slot was
			// consumed).
			s.mu.Unlock()
			err := a.refuse(ctx, &countedBlock, func() bool {
				if !a.headroom() {
					return false
				}
				s.mu.Lock()
				st := s.colors[color]
				ok := st == nil || st.mem < a.maxPerColor
				s.mu.Unlock()
				return ok
			})
			if err != nil {
				return 0, err
			}
			continue
		}
		// Global reservation, CAS-strict: concurrent posters on other
		// shards cannot jointly overshoot the bound.
		if a.claimGlobal(1) == 0 {
			if a.policy == OverloadSpill {
				s.state(color).disk++
				s.mu.Unlock()
				return routeDisk, nil
			}
			if external {
				s.mu.Unlock()
				if err := a.refuse(ctx, &countedBlock, a.headroom); err != nil {
					return 0, err
				}
				continue
			}
			// Internal continuation under Reject/Block: admitted past
			// the bound rather than wedging a worker.
			a.queued.Add(1)
		}
		s.state(color).mem++
		s.mu.Unlock()
		return routeMemory, nil
	}
}

// refuse is what an external post gets at a bound: ErrOverloaded under
// OverloadReject; under OverloadBlock a wait for check to pass, counted
// once per post (*counted), after which nil means "re-try admission".
func (a *admission) refuse(ctx context.Context, counted *bool, check func() bool) error {
	if a.policy == OverloadReject {
		a.rejected.Add(1)
		return ErrOverloaded
	}
	if !*counted {
		a.blocked.Add(1)
		*counted = true
	}
	return a.waitBelow(ctx, check)
}

// claimGlobal claims up to want in-memory slots against
// MaxQueuedEvents, strictly (CAS), returning how many were claimed.
func (a *admission) claimGlobal(want int64) int64 {
	if want <= 0 {
		return 0
	}
	for {
		q := a.queued.Load()
		n := want
		if a.maxTotal > 0 {
			if head := a.maxTotal - q; head < n {
				n = head
			}
		}
		if n <= 0 {
			return 0
		}
		if a.queued.CompareAndSwap(q, q+n) {
			return n
		}
	}
}

// forceMemory takes a disk-routed event's slot to memory without a bound
// check: the fallback when the event turns out not to be encodable (or
// the store fails) and losing it would be worse than overshooting the
// bound. Giving the disk slot back is what stops a color whose overflow
// cannot reach the disk from reading as spilling — and so as saturated,
// pausing its connection's reads — with no reload ever to end it.
func (a *admission) forceMemory(color equeue.Color) {
	a.queued.Add(1)
	s := a.shard(color)
	s.mu.Lock()
	st := s.state(color)
	st.disk--
	st.mem++
	s.mu.Unlock()
}

// waitBelow blocks until check passes, the runtime stops, or ctx ends.
// A nil return means "re-try admission", not "admitted".
func (a *admission) waitBelow(ctx context.Context, check func() bool) error {
	a.blockWaiters.Add(1)
	defer a.blockWaiters.Add(-1)
	ch := a.block.subscribe()
	// Re-check after subscribing: a completion between the caller's
	// bound check and the subscription has already closed ch or is
	// observable here — either way the wake cannot be missed.
	if check() || a.r.stopped.Load() {
		return nil
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case <-ch:
		return nil
	case <-done:
		return ctx.Err()
	}
}

// noteExec accounts one executed event leaving the in-memory queues:
// the gauge decrements, the Block-policy wake, the low-water reload
// trigger for its color, and the starved-color pickup that runs on any
// completion once global headroom exists. Called by the workers after
// every handler execution on a bounded runtime; c is the calling
// worker's core (reloaded events are built on it, see eventFromRecord).
func (a *admission) noteExec(c *rcore, color equeue.Color) {
	a.queued.Add(-1)
	var doReload bool
	if a.trackColors {
		s := a.shard(color)
		s.mu.Lock()
		if st := s.colors[color]; st != nil {
			st.mem--
			switch {
			case !st.reloading && st.disk > 0 && st.mem <= a.lowWater:
				if a.headroom() {
					st.reloading = true
					doReload = true
				} else if st.mem == 0 {
					// The color's memory is empty and the machine is at
					// its bound: no execution of this color will ever
					// come to trigger the reload, so park it for starved
					// pickup by whichever completion frees headroom.
					a.markStarvedLocked(st, color)
				}
			case !st.spilling() && st.mem == 0:
				// Fully idle: drop the entry so the maps track the
				// working set, not the color keyspace.
				delete(s.colors, color)
			}
		}
		s.mu.Unlock()
	}
	// Only now, with both gauges lowered: a waiter at the per-color bound
	// woken ahead of st.mem-- finds the color still full and sleeps on a
	// fresh subscription, which — if this was the last completion —
	// nothing would ever open.
	if a.blockWaiters.Load() > 0 {
		a.block.open()
	}
	if doReload {
		a.reload(c, color)
	}
	if a.starvedN.Load() > 0 && a.headroom() {
		a.reloadStarved(c)
	}
}

// markStarvedLocked queues a spilling color whose memory drained but
// whose reload found no global headroom. Caller holds the color's
// shard lock.
func (a *admission) markStarvedLocked(st *colorAdm, color equeue.Color) {
	if st.starved {
		return
	}
	st.starved = true
	a.starvedMu.Lock()
	a.starvedQ = append(a.starvedQ, color)
	a.starvedN.Store(int32(len(a.starvedQ)))
	a.starvedMu.Unlock()
}

// reloadStarved picks one starved color and reloads it. Runs on any
// event completion once headroom exists, so a color whose memory fully
// drained while the machine was at its bound cannot be stranded on
// disk: some in-memory event must complete before headroom appears,
// and that completion lands here.
func (a *admission) reloadStarved(c *rcore) {
	a.starvedMu.Lock()
	var color equeue.Color
	var have bool
	if len(a.starvedQ) > 0 {
		color = a.starvedQ[0]
		a.starvedQ = a.starvedQ[1:]
		a.starvedN.Store(int32(len(a.starvedQ)))
		have = true
	}
	a.starvedMu.Unlock()
	if !have {
		return
	}
	s := a.shard(color)
	s.mu.Lock()
	st := s.colors[color]
	if st == nil {
		s.mu.Unlock()
		return
	}
	st.starved = false
	if st.reloading || st.disk == 0 {
		s.mu.Unlock()
		return
	}
	st.reloading = true
	s.mu.Unlock()
	a.reload(c, color)
}

// reload drains one color's disk tail back into the in-memory queues:
// headroom-bounded batches, FIFO order, delivered through the normal
// ownership lease path — so a reloaded tail follows its color wherever
// a steal moved it. The caller must have set st.reloading, which also
// pins the color's entry; reload clears it at its one exit — and never
// before its own batch has been enqueued: the color reads as spilling
// through the enqueue loop, so a concurrent post cannot slip into memory
// ahead of older spilled events (it stops only once the tail is truly
// empty AND delivered). Disk reads happen outside the shard mutex —
// st.reloading serializes readers per color, and admit reserves st.disk
// before the record reaches the store, so a read can at worst come up
// short (an append in flight), never inconsistent. c is the core whose
// worker is calling, nil when the caller is no worker.
func (a *admission) reload(c *rcore, color equeue.Color) {
	var buf []spillq.Record
	full := false // the global bound had no slot to reload into
	s := a.shard(color)
	s.mu.Lock()
	st := s.colors[color]
	for st.disk > 0 {
		want := min(int64(reloadBatchRecords), st.disk)
		if a.maxPerColor > 0 {
			// Nothing, if the color refilled (posters raced the reload):
			// its next completion re-triggers.
			want = min(want, a.maxPerColor-st.mem)
		}
		// Claim the global slots CAS-strictly before touching the store,
		// so concurrent reloads and posters cannot jointly push memory
		// past the bound; unused claims are released after the read.
		claimed := a.claimGlobal(want)
		if claimed == 0 {
			full = want > 0
			break
		}
		s.mu.Unlock()

		// Disk read without the shard lock (Saturated and noteExec must
		// not wait out an I/O): st.reloading keeps this color's reads
		// exclusive. landed tells whether any append beat the read.
		landed := a.spilled.Load()
		var err error
		buf, err = a.store.Reload(uint64(color), int(claimed), buf[:0])
		n := int64(len(buf))
		if n < claimed {
			a.queued.Add(n - claimed) // release the unused claims
		}

		s.mu.Lock()
		if n == 0 {
			if err != nil {
				// The disk tail is unreadable (I/O error or store closed
				// mid-shutdown). The records cannot be recovered: account
				// them as lost so Drain does not wait forever, and surface
				// the failure in SpillErrors.
				a.spillErrs.Add(1)
				if a.r.pending.Add(-st.disk) == 0 && a.r.drainWaiters.Load() > 0 {
					a.r.drained.open()
				}
				st.disk = 0
			} else if a.spilled.Load() != landed {
				// Something landed since the read, maybe ours, and its
				// poster found us reloading and left it to us: read again.
				continue
			}
			// Else an admitted event holds st.disk while its store write
			// is still in flight; its poster re-triggers the reload
			// itself once the record lands (appendRecord).
			break
		}
		st.disk -= n
		st.mem += n // the matching global slots were claimed above
		s.mu.Unlock()

		// Enqueue with reloading still set: posts of this color keep
		// routing behind the tail until this batch is in the queues.
		a.reloaded.Add(n)
		a.r.traceAux(obs.KindReload, 0, uint64(color), uint32(clampUint32(n)))
		var lone idSource
		ids := a.r.idsOn(c, len(buf), &lone)
		for i := range buf {
			a.r.enqueue(a.r.eventFromRecord(c, ids, &buf[i]))
		}

		// Go around while the color sits at its low-water mark with a
		// tail left.
		s.mu.Lock()
		if st.mem > a.lowWater {
			break
		}
	}
	st.reloading = false
	if st.mem == 0 {
		if st.disk > 0 {
			// No execution of this color will come to re-trigger.
			a.markStarvedLocked(st, color)
		} else {
			delete(s.colors, color)
		}
	}
	s.mu.Unlock()
	// Close the race with a completion that freed headroom between the
	// failed claim and the starved mark (atomics are sequentially
	// consistent: either it saw the mark, or we see its decrement here).
	if full && a.starvedN.Load() > 0 && a.headroom() {
		a.reloadStarved(c)
	}
}

// appendRecord moves one admitted-to-disk event onto its color's spill
// tail. admit reserved the disk slot under the shard lock; the store
// write happens outside it (the shard lock is on the Saturated/noteExec
// fast paths; holding it across an I/O would stall the epoll reactors
// and every worker sharing the shard) — a reload racing the in-flight
// write sees st.disk > 0 with the store still short, comes up empty, and
// defers back to us: the section after the append re-triggers the
// reload, so a record landing on a color whose memory already drained is
// never stranded. On an error the record never landed and the slot is
// still the caller's to give back. c is the core whose worker is
// calling, nil when the caller is no worker.
func (a *admission) appendRecord(c *rcore, color equeue.Color, rec spillq.Record) error {
	if err := a.store.Append(uint64(color), []spillq.Record{rec}); err != nil {
		return err
	}
	a.spilled.Add(1)
	s := a.shard(color)
	s.mu.Lock()
	st := s.state(color)
	a.depthHist.Observe(&obs.SpillDepthBounds, st.disk)
	a.r.traceAuxFlow(obs.KindSpill, 0, uint64(color), uint32(clampUint32(st.disk)), rec.TraceID, rec.SpanID, rec.ParentSpan)
	var doReload bool
	if st.mem == 0 && !st.reloading {
		if a.headroom() {
			st.reloading = true
			doReload = true
		} else {
			a.markStarvedLocked(st, color)
		}
	}
	s.mu.Unlock()
	if doReload {
		a.reload(c, color)
	}
	return nil
}

// spill moves a stamped, disk-routed event onto its color's spill tail.
// ev stays the caller's — a stack value for a post, which therefore takes
// nothing from the pool — and only its fields are read. An unencodable
// payload or a store failure falls back to an in-memory delivery of a
// copy (counted in SpillErrors): overshooting the bound beats losing the
// event. c is the core whose worker is posting, nil when the poster is no
// worker.
func (r *Runtime) spill(c *rcore, ev *equeue.Event) {
	a := r.adm
	// Counted before the append: a reload may run the event before
	// appendRecord returns.
	r.pending.Add(1)
	if tag, payload, ok := encodeSpillPayload(ev.Data); ok {
		// The record carries the span minted at post time to disk, so the
		// reloaded event is the SAME hop, not a new one, and melytrace
		// sees one span spanning the disk round-trip. The latency-sample
		// stamp stays behind (see eventFromRecord).
		err := a.appendRecord(c, ev.Color, spillq.Record{
			Handler:    int32(ev.Handler),
			Color:      uint64(ev.Color),
			Cost:       ev.Cost,
			Penalty:    ev.Penalty,
			Tag:        tag,
			Payload:    payload,
			TraceID:    ev.TraceID,
			SpanID:     ev.SpanID,
			ParentSpan: ev.ParentSpan,
		})
		if err == nil {
			return
		}
	}
	a.spillErrs.Add(1)
	a.forceMemory(ev.Color)
	mem := r.newEvent(c)
	*mem = *ev
	r.enqueue(mem)
}

// eventFromRecord rebuilds a pooled event from a reloaded record. The
// latency sampler re-stamps here: a reloaded event's queue delay is
// measured from its reload, not its original post — the disk dwell is
// observable separately (SpilledEvents/SpilledNow), and folding it in
// would let one spill burst dominate the delay histogram for good.
func (r *Runtime) eventFromRecord(c *rcore, ids *idSource, rec *spillq.Record) *equeue.Event {
	ev := r.newEvent(c)
	*ev = equeue.Event{
		Handler:    equeue.HandlerID(rec.Handler),
		Color:      equeue.Color(rec.Color),
		Cost:       rec.Cost,
		Penalty:    rec.Penalty,
		Data:       decodeSpillPayload(rec.Tag, rec.Payload),
		TraceID:    rec.TraceID,
		SpanID:     rec.SpanID,
		ParentSpan: rec.ParentSpan,
	}
	if r.sampleTick(ids) {
		ev.PostNanos = r.now()
	}
	return ev
}

// Spill payload encoding: the compact tagged binary format for
// equeue.Event.Data. Only self-contained value kinds round-trip
// through disk; pointerful payloads cannot (a spilled pointer would
// dangle across the disk boundary in spirit — the memory it points to
// is exactly what spilling is supposed to release). Events of a
// spilling color with unencodable payloads are delivered in memory and
// counted in Stats.SpillErrors.
const (
	spillTagNil = iota
	spillTagBytes
	spillTagString
	spillTagInt64
	spillTagInt
	spillTagUint64
	spillTagBool
	spillTagFloat64
)

// encodeSpillPayload serializes a supported payload value.
func encodeSpillPayload(data any) (tag uint8, b []byte, ok bool) {
	switch v := data.(type) {
	case nil:
		return spillTagNil, nil, true
	case []byte:
		return spillTagBytes, v, true
	case string:
		return spillTagString, []byte(v), true
	case int64:
		return spillTagInt64, binary.LittleEndian.AppendUint64(nil, uint64(v)), true
	case int:
		return spillTagInt, binary.LittleEndian.AppendUint64(nil, uint64(v)), true
	case uint64:
		return spillTagUint64, binary.LittleEndian.AppendUint64(nil, v), true
	case bool:
		if v {
			return spillTagBool, []byte{1}, true
		}
		return spillTagBool, []byte{0}, true
	case float64:
		return spillTagFloat64, binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)), true
	default:
		return 0, nil, false
	}
}

// decodeSpillPayload is encodeSpillPayload's inverse.
func decodeSpillPayload(tag uint8, b []byte) any {
	switch tag {
	case spillTagBytes:
		return b
	case spillTagString:
		return string(b)
	case spillTagInt64:
		return int64(binary.LittleEndian.Uint64(b))
	case spillTagInt:
		return int(binary.LittleEndian.Uint64(b))
	case spillTagUint64:
		return binary.LittleEndian.Uint64(b)
	case spillTagBool:
		return b[0] != 0
	case spillTagFloat64:
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	default:
		return nil
	}
}
