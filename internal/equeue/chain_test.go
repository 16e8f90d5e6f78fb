package equeue

import (
	"fmt"
	"testing"
)

// TestChainFIFO: Push, Splice and Pop keep arrival order, Front/Next walk
// the chain in that order without changing it, and a popped event leaves
// with clean links, ready for a queue.
func TestChainFIFO(t *testing.T) {
	evs := make([]Event, 7)
	for i := range evs {
		evs[i].Cost = int64(i)
	}
	walk := func(ch *Chain) string {
		var s []int64
		for e := ch.Front(); e != nil; e = ch.Next(e) {
			s = append(s, e.Cost)
		}
		return fmt.Sprint(s)
	}
	var a, b, empty Chain
	if a.Pop() != nil || a.Front() != nil {
		t.Fatal("a zero Chain is not empty")
	}
	a.Push(&evs[0])
	a.Push(&evs[1])
	for i := 2; i < 5; i++ {
		b.Push(&evs[i])
	}
	a.Splice(&empty)
	a.Splice(&b)
	if b.Front() != nil {
		t.Fatal("Splice left its source non-empty")
	}
	b.Splice(&a) // into an empty chain
	b.Push(&evs[5])
	if got := walk(&b); got != "[0 1 2 3 4 5]" {
		t.Fatalf("walk = %s, want [0 1 2 3 4 5]", got)
	}
	var popped []int64
	for i := 0; i < 3; i++ {
		e := b.Pop()
		if e.next != nil || e.prev != nil {
			t.Fatalf("popped event %d keeps a link", e.Cost)
		}
		popped = append(popped, e.Cost)
	}
	b.Push(&evs[6])
	for e := b.Pop(); e != nil; e = b.Pop() {
		popped = append(popped, e.Cost)
	}
	if got := fmt.Sprint(popped); got != "[0 1 2 3 4 5 6]" {
		t.Fatalf("popped %s, want [0 1 2 3 4 5 6]", got)
	}
	if b.Front() != nil {
		t.Fatal("chain not empty after popping everything")
	}
}
