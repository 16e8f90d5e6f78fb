package mely

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"github.com/melyruntime/mely/internal/equeue"
	"github.com/melyruntime/mely/internal/policy"
	"github.com/melyruntime/mely/internal/topology"
)

// TestStealVictimRankingIncludesSpillBacklog: stealOnce ranks victims by
// effective depth — the unlocked qlen mirror plus the diskLen spill
// mirror — so a victim whose fat colors were spilled to disk outranks a
// victim with slightly more in-memory trivia. This drives the ranking
// exactly as stealOnce does (same mirrors, same VictimOrder call).
func TestStealVictimRankingIncludesSpillBacklog(t *testing.T) {
	fill := func(id int, color equeue.Color, n int) (*rcore, *equeue.ColorQueue) {
		c := &rcore{id: id, Core: equeue.NewCore(false, 1000, 0)}
		cq := c.Mely().NewColorQueue(color)
		for i := 0; i < n; i++ {
			c.Mely().Push(cq, &equeue.Event{Color: color, Cost: 10})
		}
		c.qlen.Store(int32(c.Mely().Len()))
		c.syncDiskLen()
		return c, cq
	}
	// Core 1: five events in memory. Core 2: one in memory, 100 on disk.
	a, _ := fill(1, 11, 5)
	b, bq := fill(2, 22, 1)
	b.Mely().SetSpillBacklog(bq, 100, 10_000)
	b.syncDiskLen()

	thief := &rcore{id: 0, lenBuf: make([]int, 3), victimBuf: make([]int, 0, 3)}
	cores := []*rcore{thief, a, b}
	rank := func() []int {
		for i, v := range cores {
			thief.lenBuf[i] = int(v.qlen.Load()) + int(v.diskLen.Load())
		}
		return policy.LibasyncWS().VictimOrder(thief.id, thief.lenBuf, topology.Uniform(3), thief.victimBuf)
	}

	if order := rank(); order[0] != 2 {
		t.Fatalf("victim order = %v, want the spill-heavy core 2 first", order)
	}

	// Clearing the backlog flips the ranking back to the memory-heavy
	// victim — the mirror must not leave residue behind.
	b.Mely().SetSpillBacklog(bq, 0, 0)
	b.syncDiskLen()
	if order := rank(); order[0] != 1 {
		t.Fatalf("victim order after clear = %v, want core 1 first", order)
	}
}

// TestSpillBacklogMirrorPublishes: a real overload run must publish a
// positive diskLen on some core while the burst is spilling (the wiring
// from syncSpillMirror through the queue aggregate to the atomic), and
// every mirror must read zero again once the runtime fully drains.
func TestSpillBacklogMirrorPublishes(t *testing.T) {
	r := newRuntime(t, Config{
		Cores:           2,
		MaxQueuedEvents: 16,
		OverloadPolicy:  OverloadSpill,
	})
	defer r.Close()

	var executed atomic.Int64
	h := r.Register("work", func(ctx *Ctx) {
		executed.Add(1)
		time.Sleep(20 * time.Microsecond)
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}

	const total = 2000
	var sawDisk int32
	for i := 0; i < total; i++ {
		if err := r.Post(h, Color(7), i); err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
		for _, c := range r.cores {
			if d := c.diskLen.Load(); d > sawDisk {
				sawDisk = d
			}
		}
	}
	if r.Stats().SpilledEvents == 0 {
		t.Fatal("the burst must actually have spilled (producer too slow?)")
	}
	if sawDisk == 0 {
		t.Fatal("diskLen mirror never went positive during a spilling burst")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := executed.Load(); got != total {
		t.Fatalf("executed %d of %d", got, total)
	}
	for i, c := range r.cores {
		if d := c.diskLen.Load(); d != 0 {
			t.Fatalf("core %d diskLen = %d after full drain, want 0", i, d)
		}
	}
	t.Logf("peak diskLen mirror = %d (spilled %d)", sawDisk, r.Stats().SpilledEvents)
}
