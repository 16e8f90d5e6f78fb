package obs

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ringWriters is the writer count of the concurrent ring tests; a
// record's sequence number is its writer's counter times ringWriters
// plus the writer's index, so the writer is recoverable from any record.
const ringWriters = 4

// appendSeq appends the record every field of which derives from seq.
func appendSeq(r *Ring, seq uint64) {
	r.AppendFlow(KindExec, int64(seq), int64(seq)+1, seq*3, uint32(seq), ^seq, seq<<1, seq+7)
}

// seqOf returns the sequence number ev was built from, or false when its
// fields do not all derive from one: a record no writer wrote.
func seqOf(ev Event) (uint64, bool) {
	seq := uint64(ev.Ts)
	ok := ev.Kind == KindExec && ev.Dur == int64(seq)+1 && ev.Arg == seq*3 && ev.N == uint32(seq) &&
		ev.Trace == ^seq && ev.Span == seq<<1 && ev.Parent == seq+7
	return seq, ok
}

// TestRingConcurrentAppendSnapshot: while four writers append, every
// snapshot holds only whole records, at most Cap of them, and each
// writer's records in the order it wrote them — a snapshot is a window
// of the append order, never a slot read ahead of its writer.
func TestRingConcurrentAppendSnapshot(t *testing.T) {
	r := NewRing(256)
	var wg sync.WaitGroup
	var stop atomic.Bool
	for w := uint64(0); w < ringWriters; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			for i := uint64(1); !stop.Load(); i++ {
				appendSeq(r, i*ringWriters+w)
			}
		}(w)
	}
	var evs []Event
	for round := 0; round < 2000 && !t.Failed(); round++ {
		evs = r.Snapshot(evs[:0])
		if len(evs) > r.Cap() {
			t.Errorf("snapshot holds %d records, ring holds %d", len(evs), r.Cap())
		}
		var last [ringWriters]uint64
		for i, ev := range evs {
			seq, ok := seqOf(ev)
			if !ok {
				t.Errorf("evs[%d] mixes two records: %+v", i, ev)
				break
			}
			w := seq % ringWriters
			if seq <= last[w] {
				t.Errorf("evs[%d] (of %d): writer %d's record %d follows its record %d",
					i, len(evs), w, seq/ringWriters, last[w]/ringWriters)
				break
			}
			last[w] = seq
		}
	}
	stop.Store(true)
	wg.Wait()
}

// appendsIn counts what one writer appends to r in d.
func appendsIn(r *Ring, d time.Duration) (n uint64) {
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 64; i++ {
			n++
			appendSeq(r, n)
		}
	}
	return n
}

// TestRingSnapshotDoesNotStallWriter: a worker appending beside a
// goroutine that does nothing but dump a large ring keeps a share of its
// pace — the reader's re-locking, a chunk at a time, does not starve it.
// It is a starvation check, not a bound on one hold: the count over a
// window cannot see how long each hold was.
func TestRingSnapshotDoesNotStallWriter(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("one P: the writer's pace beside a reader is the Go scheduler's time slice, not the ring's hold time")
	}
	const window = 200 * time.Millisecond
	r := NewRing(1 << 16)
	for i := 0; i < r.Cap(); i++ { // one lap, so the control window pays no first-touch page faults
		appendSeq(r, uint64(i))
	}
	alone := appendsIn(r, window)

	var stop atomic.Bool
	done := make(chan int)
	go func() {
		evs, snaps := make([]Event, 0, r.Cap()), 0
		for ; !stop.Load(); snaps++ {
			evs = r.Snapshot(evs[:0])
		}
		done <- snaps
	}()
	contended := appendsIn(r, window)
	stop.Store(true)
	snaps := <-done
	t.Logf("appends in %v: %d alone, %d beside %d snapshots", window, alone, contended, snaps)
	if contended < alone/20 {
		t.Errorf("writer appended %d records beside a snapshot loop, %d alone: a snapshot starves it", contended, alone)
	}
}

// TestRingSnapshotNoAlloc: the chunk a snapshot copies out under the
// lock lives on the stack, so a dump into a buffer that fits costs no
// allocation.
func TestRingSnapshotNoAlloc(t *testing.T) {
	r := NewRing(256)
	for i := uint64(1); i <= 1000; i++ {
		appendSeq(r, i)
	}
	evs := make([]Event, 0, r.Cap())
	if n := testing.AllocsPerRun(100, func() { evs = r.Snapshot(evs[:0]) }); n != 0 {
		t.Errorf("Snapshot into a buffer of Cap records allocates %.1f times, want 0", n)
	}
}

func BenchmarkRingAppend(b *testing.B) {
	r := NewRing(1 << 12)
	for i := 0; i < b.N; i++ {
		appendSeq(r, uint64(i))
	}
}

// BenchmarkRingAppendWhileSnapshot is BenchmarkRingAppend beside a
// goroutine dumping the ring in a loop: the price of a live
// /debug/trace to the worker being read.
func BenchmarkRingAppendWhileSnapshot(b *testing.B) {
	r := NewRing(1 << 12)
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for evs := make([]Event, 0, r.Cap()); !stop.Load(); {
			evs = r.Snapshot(evs[:0])
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		appendSeq(r, uint64(i))
	}
	b.StopTimer()
	stop.Store(true)
	<-done
}
