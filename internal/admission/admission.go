// Package admission is the overload layer of a bounded event queue:
// queue-bound accounting, the Reject/Block/Spill decision, and the
// protocol that moves a saturated colour's tail to a spillq store and
// back in FIFO order with zero loss. It has two hosts: the runtime
// (package mely, under real concurrency) and the simulator's overload
// workload (internal/scenario, in virtual time).
package admission

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/melyruntime/mely/internal/equeue"
	"github.com/melyruntime/mely/internal/spillq"
)

// ErrOverloaded is what an external post gets at a bound under Reject.
var ErrOverloaded = errors.New("mely: queue bound exceeded (overloaded)")

// ErrStopped is what admission returns once the host has stopped.
var ErrStopped = errors.New("mely: runtime stopped")

// Policy selects what admission does once a queue bound is hit: the
// runtime's OverloadPolicy, value for value (Reject fails external posts
// with ErrOverloaded, Block makes them wait, Spill routes a saturated
// colour's tail to disk, internal posts too).
type Policy int

const (
	Reject Policy = iota
	Block
	Spill
)

// Route is an admission decision: Memory holds a slot against the
// bounds, and the caller must enqueue the event; Disk holds a slot of
// its colour's disk tail, and the caller must Append it or, failing
// that, ForceMemory it.
type Route int

const (
	Memory Route = iota
	Disk
)

// Host is what a layer needs from the system it serves. C is the caller
// a reloaded batch is delivered on behalf of (the runtime's worker core,
// the simulator's handler context), handed through unchanged.
type Host[C any] interface {
	// Stopped reports a shutdown: Admit fails with ErrStopped.
	Stopped() bool
	// Deliver enqueues a reloaded batch of color's records, oldest
	// first; the colour reads as spilling until it returns, so no newer
	// post overtakes them. recs is reused after the call.
	Deliver(c C, color equeue.Color, recs []spillq.Record)
	// Lost writes off n spilled records that could not be read back.
	Lost(n int64)
}

// Config is a layer's policy, bounds (in-memory events of all colours,
// and of one; zero is no bound) and store (Spill only).
type Config struct {
	Policy                Policy
	MaxTotal, MaxPerColor int64
	Store                 *spillq.Store
}

// shardCount stripes the per-colour state (power of two).
const shardCount = 64

// reloadBatchRecords caps one reload iteration: enough to amortize the
// segment read, small enough that a reload cannot blow through the
// global bound before re-checking headroom.
const reloadBatchRecords = 256

type shard struct {
	mu     sync.Mutex
	colors map[equeue.Color]*colorState
}

// colorState is one colour's admission state, guarded by its shard's
// mutex; an entry exists while the colour holds a reservation.
type colorState struct {
	mem int64 // in-memory queued events
	// disk counts spilled events not yet reloaded, each from the moment
	// Admit routes it to disk (its record lands later, in Append) until
	// a reload brings it back or ForceMemory takes it to memory.
	disk int64
	// landing counts the disk slots whose Append has not returned: their
	// records may not be on the store yet, and they are their posters'
	// to land or take to memory, never a failed reload's to write off.
	landing   int64
	reloading bool // one caller at a time drains the disk tail
	starved   bool // queued for starved pickup (see kickLocked)
}

// spilling reports whether the colour's tail lives on disk: every new post
// of the colour routes to disk until the backlog has fully reloaded AND
// been delivered, which is what keeps per-colour FIFO across the spill
// boundary.
func (st *colorState) spilling() bool { return st.disk > 0 || st.reloading }

// Layer is one bounded queue's admission layer, safe for concurrent use.
type Layer[C any] struct {
	host        Host[C]
	policy      Policy
	maxTotal    int64
	maxPerColor int64
	// lowWater is the reload threshold: a spilling colour whose memory
	// drains to it pulls its next batch back. Half the per-colour bound.
	lowWater int64
	store    *spillq.Store

	queued atomic.Int64 // the in-memory gauge
	shards [shardCount]shard

	// Starved colours wait here for global headroom.
	starvedMu sync.Mutex
	starvedQ  []equeue.Color
	starvedN  atomic.Int32

	// Block waiters subscribe to block; completions open it.
	block        Gate
	blockWaiters atomic.Int32

	spilled, reloaded, rejected, blocked, errs atomic.Int64

	// afterRead, when set, runs between a reload's store read (of got
	// records) and its re-lock: the window an append in flight lands in
	// (tests only).
	afterRead func(color equeue.Color, got int)
}

// New builds a layer for host.
func New[C any](host Host[C], cfg Config) *Layer[C] {
	l := &Layer[C]{
		host:        host,
		policy:      cfg.Policy,
		maxTotal:    cfg.MaxTotal,
		maxPerColor: cfg.MaxPerColor,
		store:       cfg.Store,
	}
	colorCap := l.maxPerColor
	if colorCap <= 0 || (l.maxTotal > 0 && l.maxTotal < colorCap) {
		colorCap = l.maxTotal
	}
	l.lowWater = max(colorCap/2, 1)
	for i := range l.shards {
		l.shards[i].colors = make(map[equeue.Color]*colorState)
	}
	return l
}

// Stats is a snapshot of a layer's counters: the in-memory events now,
// the records landed on the store and brought back, the external posts
// refused under Reject and held under Block, and the errors (ForceMemory
// fallbacks and unreadable disk tails).
type Stats struct {
	Queued, Spilled, Reloaded, Rejected, Blocked, Errors int64
}

// Stats returns the layer's counters.
func (l *Layer[C]) Stats() Stats {
	return Stats{
		Queued:   l.queued.Load(),
		Spilled:  l.spilled.Load(),
		Reloaded: l.reloaded.Load(),
		Rejected: l.rejected.Load(),
		Blocked:  l.blocked.Load(),
		Errors:   l.errs.Load(),
	}
}

// Store returns the spill store (nil unless Spill).
func (l *Layer[C]) Store() *spillq.Store { return l.store }

// SetStore swaps the spill store for a recovered reopening of it: a
// simulated crash at the spill boundary. Not safe beside other calls.
func (l *Layer[C]) SetStore(s *spillq.Store) { l.store = s }

// CheckEmpty reports what the layer still holds — colour state, memory
// slots, starved colours, records on the store — nil when nothing: after
// a final drain every reservation Admit handed out was given back.
func (l *Layer[C]) CheckEmpty() error {
	var errs []error
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		for color, st := range s.colors {
			errs = append(errs, fmt.Errorf("color %d keeps admission state: %+v", color, *st))
		}
		s.mu.Unlock()
	}
	if q := l.queued.Load(); q != 0 {
		errs = append(errs, fmt.Errorf("%d in-memory slots held", q))
	}
	l.starvedMu.Lock()
	if len(l.starvedQ) != 0 {
		errs = append(errs, fmt.Errorf("starved colors %v", l.starvedQ))
	}
	l.starvedMu.Unlock()
	if l.store != nil && l.store.TotalDepth() != 0 {
		errs = append(errs, fmt.Errorf("%d records on the store", l.store.TotalDepth()))
	}
	return errors.Join(errs...)
}

// Wake releases every Block waiter to re-check (a stop ends their wait).
func (l *Layer[C]) Wake() { l.block.Open() }

func (l *Layer[C]) shard(c equeue.Color) *shard {
	// The same mix the colour table uses, over different bits.
	x := uint64(c)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 29
	return &l.shards[x&(shardCount-1)]
}

// headroom reports whether the global bound has room for one more event.
func (l *Layer[C]) headroom() bool {
	return l.maxTotal <= 0 || l.queued.Load() < l.maxTotal
}

// state returns color's state, created on first use. Caller holds s.mu.
func (s *shard) state(color equeue.Color) *colorState {
	st := s.colors[color]
	if st == nil {
		st = &colorState{}
		s.colors[color] = st
	}
	return st
}

// Saturated reports whether one more external post of color would hit a
// bound: the global one, the colour's own, or — the colour spilling —
// its disk tail.
func (l *Layer[C]) Saturated(color equeue.Color) bool {
	if l.maxTotal > 0 && l.queued.Load() >= l.maxTotal {
		return true
	}
	s := l.shard(color)
	s.mu.Lock()
	st := s.colors[color]
	sat := st != nil && (st.spilling() || (l.maxPerColor > 0 && st.mem >= l.maxPerColor))
	s.mu.Unlock()
	return sat
}

// Admit decides one event about to be posted and reserves its slot
// either way (see Route). Reject refuses and Block holds up external
// posts only; internal continuations are admitted past the bound rather
// than wedge the host. ctx, nil for none, bounds a Block wait.
func (l *Layer[C]) Admit(ctx context.Context, color equeue.Color, external bool) (Route, error) {
	countedBlock := false
	for {
		if l.host.Stopped() {
			return 0, ErrStopped
		}
		s := l.shard(color)
		s.mu.Lock()
		st := s.colors[color]
		overColor := l.maxPerColor > 0 && st != nil && st.mem >= l.maxPerColor
		if l.policy == Spill && st != nil && (overColor || st.spilling()) {
			st.disk++
			st.landing++
			s.mu.Unlock()
			return Disk, nil
		}
		if overColor && external {
			// Reject/Block at the per-colour bound (no global slot was
			// consumed).
			s.mu.Unlock()
			err := l.refuse(ctx, &countedBlock, func() bool {
				if !l.headroom() {
					return false
				}
				s.mu.Lock()
				st := s.colors[color]
				ok := st == nil || st.mem < l.maxPerColor
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
		if l.claimGlobal(1) == 0 {
			if l.policy == Spill {
				st := s.state(color)
				st.disk++
				st.landing++
				s.mu.Unlock()
				return Disk, nil
			}
			if external {
				s.mu.Unlock()
				if err := l.refuse(ctx, &countedBlock, l.headroom); err != nil {
					return 0, err
				}
				continue
			}
			// Internal continuation under Reject/Block: admitted past
			// the bound rather than wedging a worker.
			l.queued.Add(1)
		}
		s.state(color).mem++
		s.mu.Unlock()
		return Memory, nil
	}
}

// refuse is what an external post gets at a bound: ErrOverloaded under
// Reject; under Block a wait for check to pass, counted once per post
// (*counted), after which nil means "re-try admission".
func (l *Layer[C]) refuse(ctx context.Context, counted *bool, check func() bool) error {
	if l.policy == Reject {
		l.rejected.Add(1)
		return ErrOverloaded
	}
	if !*counted {
		l.blocked.Add(1)
		*counted = true
	}
	return l.waitBelow(ctx, check)
}

// claimGlobal claims up to want in-memory slots against MaxTotal,
// strictly (CAS), returning how many were claimed.
func (l *Layer[C]) claimGlobal(want int64) int64 {
	if want <= 0 {
		return 0
	}
	for {
		q := l.queued.Load()
		n := want
		if l.maxTotal > 0 {
			n = min(n, l.maxTotal-q)
		}
		if n <= 0 {
			return 0
		}
		if l.queued.CompareAndSwap(q, q+n) {
			return n
		}
	}
}

// ForceMemory takes a disk-routed event's slot to memory past the bound,
// counted as an error: the event cannot reach the disk, and losing it
// would be worse. Giving the disk slot back keeps the colour from
// reading as spilling, and so saturated, with no reload ever to end it.
func (l *Layer[C]) ForceMemory(color equeue.Color) {
	l.errs.Add(1)
	l.queued.Add(1)
	s := l.shard(color)
	s.mu.Lock()
	st := s.state(color)
	st.disk--
	st.landing--
	st.mem++
	s.mu.Unlock()
}

// waitBelow blocks until check passes, the host stops, or ctx ends.
// A nil return means "re-try admission", not "admitted".
func (l *Layer[C]) waitBelow(ctx context.Context, check func() bool) error {
	l.blockWaiters.Add(1)
	defer l.blockWaiters.Add(-1)
	ch := l.block.Subscribe()
	// Re-check after subscribing: a completion between the caller's
	// bound check and the subscription has already closed ch or is
	// observable here — either way the wake cannot be missed.
	if check() || l.host.Stopped() {
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

// Executed accounts one event of color leaving memory: the gauges drop,
// Block waiters wake, a spilling colour at its low-water mark reloads,
// and once there is headroom one starved colour is picked up.
func (l *Layer[C]) Executed(c C, color equeue.Color) {
	l.queued.Add(-1)
	var doReload bool
	s := l.shard(color)
	s.mu.Lock()
	if st := s.colors[color]; st != nil {
		st.mem--
		switch {
		case !st.reloading && st.disk > 0 && st.mem <= l.lowWater:
			doReload = l.kickLocked(st, color)
		case !st.spilling() && st.mem == 0:
			delete(s.colors, color) // the maps track the working set
		}
	}
	s.mu.Unlock()
	// Only now, with both gauges lowered: a waiter at the per-colour bound
	// woken ahead of st.mem-- finds the colour still full and sleeps on a
	// fresh subscription, which — if this was the last completion —
	// nothing would ever open.
	if l.blockWaiters.Load() > 0 {
		l.block.Open()
	}
	if doReload {
		l.reload(c, color)
	}
	if l.starvedN.Load() > 0 && l.headroom() {
		l.reloadStarved(c)
	}
}

// kickLocked starts color's reload if the global bound has headroom —
// true obliges the caller to run it once the shard lock is released —
// and otherwise, the colour's memory empty, parks it for starved pickup
// by whichever completion frees headroom: no execution of the colour
// will come to trigger its reload. Caller holds the shard lock.
func (l *Layer[C]) kickLocked(st *colorState, color equeue.Color) bool {
	if l.headroom() {
		st.reloading = true
		return true
	}
	if st.mem == 0 {
		l.markStarvedLocked(st, color)
	}
	return false
}

// markStarvedLocked queues st for starved pickup. Caller holds the lock.
func (l *Layer[C]) markStarvedLocked(st *colorState, color equeue.Color) {
	if st.starved {
		return
	}
	st.starved = true
	l.starvedMu.Lock()
	l.starvedQ = append(l.starvedQ, color)
	l.starvedN.Store(int32(len(l.starvedQ)))
	l.starvedMu.Unlock()
}

// reloadStarved picks one starved colour and reloads it. It runs on
// completions once there is headroom, and some completion must free it.
// Entries are dropped lazily: one whose colour was reloaded another way
// since is skipped for the next — a pickup spent on it could be the last
// completion, stranding a colour queued behind it.
func (l *Layer[C]) reloadStarved(c C) {
	for {
		l.starvedMu.Lock()
		if len(l.starvedQ) == 0 {
			l.starvedMu.Unlock()
			return
		}
		color := l.starvedQ[0]
		l.starvedQ = l.starvedQ[1:]
		l.starvedN.Store(int32(len(l.starvedQ)))
		l.starvedMu.Unlock()

		s := l.shard(color)
		s.mu.Lock()
		st := s.colors[color]
		if st == nil || !st.starved {
			s.mu.Unlock()
			continue
		}
		st.starved = false
		if st.reloading || st.disk == 0 {
			s.mu.Unlock()
			continue
		}
		st.reloading = true
		s.mu.Unlock()
		l.reload(c, color)
		return
	}
}

// reload drains one colour's disk tail back into memory in
// headroom-bounded batches, in FIFO order, through the host's Deliver.
// The caller has set st.reloading (which pins the entry); reload clears
// it at its one exit, after its last Deliver, so a concurrent post cannot
// slip into memory ahead of older spilled events. Reads run outside the
// shard lock: reloading keeps them exclusive, and since Admit reserves
// st.disk before the record lands, a read can come up short, never
// inconsistent.
func (l *Layer[C]) reload(c C, color equeue.Color) {
	var buf []spillq.Record
	full := false // the global bound had no slot to reload into
	s := l.shard(color)
	s.mu.Lock()
	st := s.colors[color]
	for st.disk > 0 {
		want := min(int64(reloadBatchRecords), st.disk)
		if l.maxPerColor > 0 {
			// Nothing, if the colour refilled (posters raced the reload):
			// its next completion re-triggers.
			want = min(want, l.maxPerColor-st.mem)
		}
		// Claim the global slots CAS-strictly before touching the store,
		// so concurrent reloads and posters cannot jointly push memory
		// past the bound; unused claims are released after the read.
		claimed := l.claimGlobal(want)
		if claimed == 0 {
			full = want > 0
			break
		}
		s.mu.Unlock()

		// landed tells whether any append beat the read.
		landed := l.spilled.Load()
		var err error
		buf, err = l.store.Reload(uint64(color), int(claimed), buf[:0])
		if l.afterRead != nil {
			l.afterRead(color, len(buf))
		}
		n := int64(len(buf))
		if n < claimed {
			l.queued.Add(n - claimed) // release the unused claims
		}

		s.mu.Lock()
		if n == 0 {
			if err != nil {
				// Unreadable (I/O error, or the store closed at shutdown):
				// the host writes off what landed. The slots still
				// landing stay counted: each poster lands its record or
				// takes the slot to memory. (An Append between its store
				// write and its re-lock still counts as landing, though
				// this reload may have read its record: the difference
				// can be negative.)
				l.errs.Add(1)
				if lost := st.disk - st.landing; lost > 0 {
					l.host.Lost(lost)
					st.disk = st.landing
				}
			} else if l.spilled.Load() != landed {
				// Something landed since the read, maybe ours, and its
				// poster found us reloading and left it to us: read again.
				continue
			}
			// Else an append is in flight; it reloads once it lands.
			break
		}
		st.disk -= n
		st.mem += n // the matching global slots were claimed above
		s.mu.Unlock()

		l.reloaded.Add(n)
		l.host.Deliver(c, color, buf)

		// Go around while the colour sits at its low-water mark.
		s.mu.Lock()
		if st.mem > l.lowWater {
			break
		}
	}
	st.reloading = false
	if st.mem == 0 {
		if st.disk > 0 {
			l.markStarvedLocked(st, color) // no execution will re-trigger
		} else {
			delete(s.colors, color)
		}
	}
	s.mu.Unlock()
	// Close the race with a completion that freed headroom between the
	// failed claim and the starved mark (atomics are sequentially
	// consistent: either it saw the mark, or we see its decrement here).
	if full && l.starvedN.Load() > 0 && l.headroom() {
		l.reloadStarved(c)
	}
}

// Append writes a disk-routed event's record to its colour's tail and
// returns the tail's depth as it landed. The write runs outside the shard
// lock, so a reload racing it comes up short and leaves the record to
// the landed rule here: a record landing on a colour with nothing in
// memory (and no reload running) starts its reload, so it is never
// stranded. On an error nothing landed, and the caller gives the slot
// back (ForceMemory).
func (l *Layer[C]) Append(c C, color equeue.Color, rec spillq.Record) (depth int64, err error) {
	if err := l.store.Append(uint64(color), []spillq.Record{rec}); err != nil {
		return 0, err
	}
	l.spilled.Add(1)
	s := l.shard(color)
	s.mu.Lock()
	st := s.state(color)
	st.landing--
	depth = st.disk
	doReload := st.mem == 0 && !st.reloading && l.kickLocked(st, color)
	s.mu.Unlock()
	if doReload {
		l.reload(c, color)
	}
	return depth, nil
}

// Recovered adopts n records of color a recovered store holds (a
// restart): the colour starts out spilling, so new posts queue behind
// the backlog, and its reload starts at once.
func (l *Layer[C]) Recovered(c C, color equeue.Color, n int64) {
	s := l.shard(color)
	s.mu.Lock()
	st := s.state(color)
	st.disk += n
	st.reloading = true
	s.mu.Unlock()
	l.reload(c, color)
}

// Gate is a close-a-channel broadcast: a waiter subscribes, re-checks
// its condition and only then sleeps, so an Open after the subscription
// cannot be missed; Open releases every subscriber.
type Gate struct {
	mu sync.Mutex
	ch chan struct{}
}

// Subscribe returns the channel the next Open closes.
func (g *Gate) Subscribe() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ch == nil {
		g.ch = make(chan struct{})
	}
	return g.ch
}

// Open releases every subscriber.
func (g *Gate) Open() {
	g.mu.Lock()
	if g.ch != nil {
		close(g.ch)
		g.ch = nil
	}
	g.mu.Unlock()
}
