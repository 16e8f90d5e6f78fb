package equeue

import (
	"sync"
	"sync/atomic"
)

// ColorTable maps each live color to the core that currently owns it
// (and, for the Mely layout, to its live ColorQueue). The paper uses a
// statically allocated 64K-entry array (section IV-A); with a 64-bit
// color space the table is instead sharded: a fixed power-of-two number
// of lock-striped shards, each holding owner and queue maps for the
// colors hashing into it. A color absent from its shard is in the
// default state — owned by its hash core, with no live queue — so the
// shards only ever hold the working set (stolen colors plus colors with
// pending events), not the keyspace.
//
// Ownership protocol (unchanged from the static table): a color's owner
// defaults to Hash(color) and changes only when a steal migrates the
// color. Producers read the owner, then acquire that core's lock and
// re-check; if a concurrent steal moved the color they retry. Owner
// entries are guarded by the shard lock so the unlocked-by-the-core
// first read is well-defined in the real runtime; queue pointers are
// additionally only installed or cleared under the owning core's lock.
type ColorTable struct {
	ncores uint64
	// place overrides the initial core placement when non-nil. The
	// default is the 64-bit mix hash; the simulator installs the paper's
	// modulo placement instead (the tables it regenerates depend on the
	// exact Libasync-smp placement over the 64K color space).
	place func(Color) int
	// deviated counts owner entries across all shards plus the colors in
	// transit (BeginMigrationBatch to EndMigration). When zero, every
	// color is at its hash home and settled there — the runtime's
	// condition for splicing a batch unfiled onto its hash core. A color
	// stolen back to its home erases its owner entry before it is
	// adopted: only the transit count keeps it from reading as settled
	// in that window.
	deviated atomic.Int64
	shards   [numShards]tableShard
}

// numShards is the fixed shard count. Power of two so the shard index is
// a mask; 256 stripes keep cross-core Post traffic from serializing on
// one lock while staying small enough to embed in the table.
const numShards = 256

type tableShard struct {
	mu     sync.Mutex
	owner  map[Color]int32
	queues map[Color]*ColorQueue
	// deviated counts owner entries (colors away from their hash home),
	// updated under mu but readable without it: when zero, Owner
	// answers from the hash alone and skips the stripe lock entirely —
	// the common case, since steals are rare relative to posts.
	deviated atomic.Int32
}

// NewColorTable returns a table for ncores cores with every color owned
// by its hash core.
func NewColorTable(ncores int) *ColorTable {
	t := &ColorTable{ncores: uint64(ncores)}
	for i := range t.shards {
		t.shards[i].owner = make(map[Color]int32)
		t.shards[i].queues = make(map[Color]*ColorQueue)
	}
	return t
}

// mix64 is a 64-bit finalizer (the SplitMix64 / MurmurHash3 fmix64
// constants): every input bit diffuses into every output bit, so
// sequential colors — connection ids, loop counters — spread uniformly
// over both the cores and the shards.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Hash is the initial color placement: by default a mixed hash of the
// color onto the cores (the Libasync-smp role of "hash of the color",
// with a mix that survives 64-bit sequential color allocation), unless
// SetPlacement installed another scheme.
func (t *ColorTable) Hash(c Color) int {
	if t.place != nil {
		return t.place(c)
	}
	return int(mix64(uint64(c)) % t.ncores)
}

// SetPlacement overrides the initial placement function. It must be
// called before the table is shared between goroutines (construction
// time) and must return a core in [0, NumCores). The real runtime keeps
// the default mix hash; the discrete-event simulator installs the
// paper's color%ncores placement so the regenerated tables and figures
// keep the workload shapes the paper engineered around that placement.
func (t *ColorTable) SetPlacement(fn func(Color) int) { t.place = fn }

// ShardOf reports the shard index color c is striped into. Exposed so
// stress tests can construct shard-colliding color sets.
func (t *ColorTable) ShardOf(c Color) int {
	return int(mix64(uint64(c)) >> 32 & (numShards - 1))
}

func (t *ColorTable) shard(c Color) *tableShard {
	return &t.shards[mix64(uint64(c))>>32&(numShards-1)]
}

// Owner returns the core currently owning color c, skipping the stripe
// lock when c's shard holds no deviated colors. The answer is advisory
// under concurrency: every delivery path re-checks ownership under the
// owning core's lock, so an owner made stale by a concurrent steal or a
// lease's end only costs a retry.
func (t *ColorTable) Owner(c Color) int {
	s := t.shard(c)
	if s.deviated.Load() == 0 {
		return t.Hash(c)
	}
	s.mu.Lock()
	o, ok := s.owner[c]
	s.mu.Unlock()
	if ok {
		return int(o)
	}
	return t.Hash(c)
}

// SetOwner records that core now owns color c. Called under the lock of
// the core the color is moving to or from (steal or explicit placement).
// Setting a color back to its hash core erases the entry: the default
// state is implicit, which keeps the shards bounded by the number of
// colors currently away from home.
func (t *ColorTable) SetOwner(c Color, core int) {
	s := t.shard(c)
	s.mu.Lock()
	t.setOwnerLocked(s, c, core)
	s.mu.Unlock()
}

// setOwnerLocked is the owner/deviation bookkeeping shared by SetOwner
// and BeginMigrationBatch. Callers hold s.mu.
func (t *ColorTable) setOwnerLocked(s *tableShard, c Color, core int) {
	if core == t.Hash(c) {
		if _, ok := s.owner[c]; ok {
			delete(s.owner, c)
			s.deviated.Add(-1)
			t.deviated.Add(-1)
		}
	} else {
		if _, ok := s.owner[c]; !ok {
			s.deviated.Add(1)
			t.deviated.Add(1)
		}
		s.owner[c] = int32(core)
	}
}

// AnyDeviated reports whether any color anywhere is currently owned
// away from its hash home or in transit between cores. False means Owner
// == Hash for every color and no steal is mid-way, which the runtime
// reads under a core's lock before it splices a batch there unfiled.
// With leases ending when their colors drain, that is the state between
// steals, not only before the first.
func (t *ColorTable) AnyDeviated() bool { return t.deviated.Load() != 0 }

// BeginMigrationBatch publishes a steal: for every color the thief
// becomes the owner and marker replaces the (just detached) queue entry,
// atomically with respect to every table reader — publishing the two in
// separate steps would let a poster observe owner=thief while the
// detached ColorQueue is still tabled, push into it and link it on the
// thief before Adopt, which panics. Colors striped into the same shard
// are published under ONE stripe acquisition, the table-side
// amortization of batch stealing. The batch as a whole is not atomic,
// which is fine: each color's queue was already detached under the
// victim's lock, so a poster observing color i migrated and color j not
// yet simply retries j against the victim until its turn lands. Every
// color counts in transit, and so in AnyDeviated, until the thief's
// EndMigration. Called under the victim's core lock.
func (t *ColorTable) BeginMigrationBatch(colors []Color, thief int, marker *ColorQueue) {
	// In transit first: a color going home erases its owner entry below,
	// and the count must not touch zero in between.
	t.deviated.Add(int64(len(colors)))
	// One pass per distinct stripe: the first color of a stripe
	// publishes every later color sharing it. A 256-bit stamp marks
	// handled stripes, keeping the dedup O(1) per color — this runs
	// inside the victim-lock critical section.
	var seen [numShards / 64]uint64
	for i, c := range colors {
		sh := uint(t.ShardOf(c))
		if seen[sh/64]&(1<<(sh%64)) != 0 {
			continue
		}
		seen[sh/64] |= 1 << (sh % 64)
		s := &t.shards[sh]
		s.mu.Lock()
		t.setOwnerLocked(s, c, thief)
		s.queues[c] = marker
		for j := i + 1; j < len(colors); j++ {
			if t.shard(colors[j]) == s {
				t.setOwnerLocked(s, colors[j], thief)
				s.queues[colors[j]] = marker
			}
		}
		s.mu.Unlock()
	}
}

// EndMigration is the thief's adoption of c, one color of a
// BeginMigrationBatch given the same marker: cq becomes its queue (nil
// erases the entry, as SetQueue does) and c leaves transit. Every
// delivery refuses a marked color, so the slot still holds marker; it
// panics if it does not. Called under the thief's core lock.
func (t *ColorTable) EndMigration(c Color, cq, marker *ColorQueue) {
	s := t.shard(c)
	s.mu.Lock()
	if s.queues[c] != marker {
		s.mu.Unlock()
		panic("equeue: a queue was tabled over a color in transit")
	}
	if cq == nil {
		delete(s.queues, c)
	} else {
		s.queues[c] = cq
	}
	s.mu.Unlock()
	t.deviated.Add(-1)
}

// OwnerAndQueue returns the current owner and live queue of c in one
// stripe acquisition — the batch-delivery re-check, which would
// otherwise pay two stripe hops per color. The queue result follows
// Queue's locking contract (interpret under the owning core's lock).
func (t *ColorTable) OwnerAndQueue(c Color) (int, *ColorQueue) {
	s := t.shard(c)
	s.mu.Lock()
	o, ok := s.owner[c]
	cq := s.queues[c]
	s.mu.Unlock()
	if ok {
		return int(o), cq
	}
	return t.Hash(c), cq
}

// DeliverHome is the one-hop home-core delivery check: under a single
// stripe acquisition it verifies color c still lives on its hash home
// (no deviated owner entry) and, when the color has no live queue,
// installs fresh as its queue. ok is false when a steal moved the
// color (nothing is installed); otherwise cq is the queue to push to —
// fresh (installed=true), the existing queue, or the caller's
// in-transit marker. fresh may be nil for layouts without per-color
// queues. Callers hold the home core's lock, per SetQueue's contract.
func (t *ColorTable) DeliverHome(c Color, fresh *ColorQueue) (cq *ColorQueue, installed, ok bool) {
	s := t.shard(c)
	s.mu.Lock()
	if _, deviated := s.owner[c]; deviated {
		// An owner entry always names a core other than the hash home
		// (SetOwner erases home entries), so its presence alone means
		// the color was stolen away.
		s.mu.Unlock()
		return nil, false, false
	}
	cq = s.queues[c]
	if cq == nil && fresh != nil {
		s.queues[c] = fresh
		cq = fresh
		installed = true
	}
	s.mu.Unlock()
	return cq, installed, true
}

// ClearQueue erases c's queue entry if it still is cq — the drained-
// color cleanup, compare-and-clear in one stripe acquisition. Callers
// hold the owning core's lock.
func (t *ColorTable) ClearQueue(c Color, cq *ColorQueue) {
	s := t.shard(c)
	s.mu.Lock()
	if s.queues[c] == cq {
		delete(s.queues, c)
	}
	s.mu.Unlock()
}

// Queue returns the live ColorQueue of c, or nil. Callers must hold the
// owning core's lock to interpret the result (the pointed-to queue is
// guarded by that lock, not by the shard).
func (t *ColorTable) Queue(c Color) *ColorQueue {
	s := t.shard(c)
	s.mu.Lock()
	cq := s.queues[c]
	s.mu.Unlock()
	return cq
}

// SetQueue records the live ColorQueue of c (nil when the color drains,
// erasing the entry). Callers must hold the owning core's lock.
func (t *ColorTable) SetQueue(c Color, cq *ColorQueue) {
	s := t.shard(c)
	s.mu.Lock()
	if cq == nil {
		delete(s.queues, c)
	} else {
		s.queues[c] = cq
	}
	s.mu.Unlock()
}

// NumCores reports the core count the table was built for.
func (t *ColorTable) NumCores() int { return int(t.ncores) }

// NumShards reports the fixed shard count of the stripe.
func (t *ColorTable) NumShards() int { return numShards }
