package admission

import (
	"testing"
	"time"

	"github.com/melyruntime/mely/internal/equeue"
	"github.com/melyruntime/mely/internal/spillq"
)

// nopHost is a host that never stops and delivers nowhere.
type nopHost struct{}

func (nopHost) Stopped() bool                              { return false }
func (nopHost) Deliver(int, equeue.Color, []spillq.Record) {}
func (nopHost) Lost(int64)                                 {}

// TestOverloadBlockWakeFollowsDecrement: a completion wakes Block-policy
// waiters only after it has lowered the colour's own count. A waiter at
// the per-colour bound woken ahead of st.mem-- finds the colour still
// full, subscribes afresh and sleeps — and if that completion was the
// last one, nothing ever opens the new channel: the post hangs until
// the host stops. The test stands where that waiter's re-check would,
// holding the colour's shard lock, so Executed's decrement cannot have
// happened while it is held.
func TestOverloadBlockWakeFollowsDecrement(t *testing.T) {
	l := New[int](nopHost{}, Config{Policy: Block, MaxPerColor: 1})
	const color = 7
	if route, err := l.Admit(nil, color, true); err != nil || route != Memory {
		t.Fatalf("admit = %v, %v; want the color at its bound in memory", route, err)
	}
	s := l.shard(color)
	s.mu.Lock()
	l.blockWaiters.Add(1)
	defer l.blockWaiters.Add(-1)
	woken := l.block.Subscribe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		l.Executed(0, color)
	}()
	select {
	case <-woken:
		s.mu.Unlock()
		t.Fatal("waiters woken before the color's count dropped: a waiter at the per-color bound re-checks, finds it full and sleeps for good")
	case <-time.After(50 * time.Millisecond):
	}
	s.mu.Unlock()
	select {
	case <-woken:
	case <-time.After(5 * time.Second):
		t.Fatal("the completion never woke the waiters")
	}
	s.mu.Lock()
	if st := s.colors[color]; st != nil && st.mem != 0 {
		t.Errorf("woken with st.mem = %d, want the color below its bound", st.mem)
	}
	s.mu.Unlock()
	<-done
}
