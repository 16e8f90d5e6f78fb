package admission

import (
	"testing"

	"github.com/melyruntime/mely/internal/equeue"
	"github.com/melyruntime/mely/internal/spillq"
)

// lossHost counts what the layer writes off.
type lossHost struct {
	nopHost
	lost int64
}

func (h *lossHost) Lost(n int64) { h.lost += n }

// TestReadErrorSparesAppendsInFlight: a reload that cannot read its
// colour's tail writes off the records that landed, and no more. A disk
// slot whose Append has not returned is still its poster's, who lands
// the record or, failing that, takes the slot to memory (ForceMemory).
// Writing that slot off too would count the event lost and then run it,
// and its ForceMemory would leave the colour's disk count at -1.
func TestReadErrorSparesAppendsInFlight(t *testing.T) {
	store, err := spillq.Open(t.TempDir(), spillq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	host := &lossHost{}
	l := New[int](host, Config{Policy: Spill, MaxPerColor: 1, Store: store})
	const color = equeue.Color(3)
	for i, want := range []Route{Memory, Disk, Disk} {
		if route, err := l.Admit(nil, color, true); err != nil || route != want {
			t.Fatalf("admit %d = %v, %v; want route %v", i, route, err, want)
		}
	}
	rec := spillq.Record{Color: uint64(color)}
	if _, err := l.Append(0, color, rec); err != nil { // the first disk slot lands
		t.Fatal(err)
	}
	store.Close() // every read and append from here on fails
	l.Executed(0, color)
	if host.lost != 1 {
		t.Fatalf("the failed reload wrote off %d records, want 1: the second disk slot's Append is still in flight", host.lost)
	}
	if _, err := l.Append(0, color, rec); err == nil {
		t.Fatal("an append to a closed store succeeded")
	}
	l.ForceMemory(color)
	s := l.shard(color)
	s.mu.Lock()
	st := *s.colors[color]
	s.mu.Unlock()
	if st.mem != 1 || st.disk != 0 {
		t.Fatalf("after ForceMemory: %+v, want mem 1 and disk 0", st)
	}
	l.Executed(0, color)
	s.mu.Lock()
	left := s.colors[color]
	s.mu.Unlock()
	if left != nil || l.Stats().Queued != 0 {
		t.Fatalf("the forced event ran and the colour keeps %+v, %d queued", left, l.Stats().Queued)
	}
}
