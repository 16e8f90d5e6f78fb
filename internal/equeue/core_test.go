package equeue

import "testing"

// coreFixture is a Core with its color table, the way a platform holds
// the two.
type coreFixture struct {
	Core
	table *ColorTable
}

func newCoreFixture(list bool, table *ColorTable) *coreFixture {
	return &coreFixture{Core: NewCore(list, 100, 0), table: table}
}

func (f *coreFixture) push(c Color, cost int64) {
	f.Push(f.QueueFor(f.table, c), &Event{Color: c, Cost: cost})
}

// TestCoreDetachAdoptRoundTrip drives the one steal transaction both
// platforms share through both layouts: what Detach takes from a victim
// and Adopt links into a thief keeps its per-color order, is marked
// stolen and leaves both cores' counts consistent.
func TestCoreDetachAdoptRoundTrip(t *testing.T) {
	for _, layout := range []struct {
		name string
		list bool
	}{{"list", true}, {"mely", false}} {
		for _, worthy := range []bool{false, true} {
			if layout.list && worthy {
				continue // time-left needs the StealingQueue
			}
			name := layout.name + "/base"
			if worthy {
				name = layout.name + "/timeleft"
			}
			t.Run(name, func(t *testing.T) {
				table := NewColorTable(2)
				victim, thief := newCoreFixture(layout.list, table), newCoreFixture(layout.list, table)
				// Colors 1..4, three interleaved events each, costs rising
				// per color so that order is checkable; all worthy (> 100).
				for i := int64(0); i < 3; i++ {
					for c := Color(1); c <= 4; c++ {
						victim.push(c, 1000*int64(c)+i)
					}
				}
				victim.SetRunning(1)

				var set StealSet
				w := victim.Detach(worthy, 2, &set)
				if len(set.Colors) != 2 {
					t.Fatalf("detached %v, want two colors", set.Colors)
				}
				moved := map[Color]bool{}
				for _, c := range set.Colors {
					if c == 1 {
						t.Fatal("the running color was taken")
					}
					moved[c] = true
				}
				switch {
				case layout.list:
					// Choose walks all 12 links; colors 2 and 3 (queue order)
					// end at the 11th.
					if w != (StealWork{Scanned: 12 + 11}) {
						t.Errorf("work = %+v, want 23 links scanned", w)
					}
				case worthy:
					if w != (StealWork{Inspected: 2, Unlinked: 2}) {
						t.Errorf("work = %+v, want one lookup and one unlink per color", w)
					}
				default:
					// The running color is inspected and skipped.
					if w != (StealWork{Inspected: 3, Unlinked: 2}) {
						t.Errorf("work = %+v, want 3 inspected, 2 unlinked", w)
					}
				}
				if victim.Len() != 6 || victim.DistinctColors() != 2 {
					t.Errorf("victim keeps %d events of %d colors, want 6 of 2", victim.Len(), victim.DistinctColors())
				}

				wantLinked := 2
				if layout.list {
					wantLinked = 0 // no per-color queues to link
				}
				if linked := thief.Adopt(&set); linked != wantLinked {
					t.Errorf("linked = %d, want %d", linked, wantLinked)
				}
				for i, c := range set.Colors {
					table.SetQueue(c, set.Queue(i))
				}
				if thief.Len() != 6 || thief.DistinctColors() != 2 {
					t.Errorf("thief holds %d events of %d colors, want 6 of 2", thief.Len(), thief.DistinctColors())
				}
				for c := range moved {
					if !thief.ColorLive(c, table.Queue(c)) || victim.ColorLive(c, nil) {
						t.Errorf("color %d must be live on the thief only", c)
					}
				}

				next := map[Color]int64{}
				for e, _ := thief.PopNext(); e != nil; e, _ = thief.PopNext() {
					if !moved[e.Color] || !e.Stolen {
						t.Fatalf("thief ran color %d (stolen=%v)", e.Color, e.Stolen)
					}
					if want := 1000*int64(e.Color) + next[e.Color]; e.Cost != want {
						t.Fatalf("color %d out of order: cost %d, want %d", e.Color, e.Cost, want)
					}
					next[e.Color]++
				}
				for e, _ := victim.PopNext(); e != nil; e, _ = victim.PopNext() {
					if moved[e.Color] || e.Stolen {
						t.Fatalf("victim ran color %d (stolen=%v)", e.Color, e.Stolen)
					}
				}

				// A victim that fails the budget's floor gives nothing and
				// leaves the set empty for the caller to test.
				victim.StopRunning(table, 0)
				victim.push(9, 5000)
				if victim.Detach(worthy, 4, &set); len(set.Colors) != 0 {
					t.Errorf("took %v, the last color of an idle victim", set.Colors)
				}
			})
		}
	}
}

// TestCoreStopRunningEndsLease is the lease rule on both layouts: a color
// that stops running away from its hash home keeps its owner entry while
// events of it are left on the core, and loses it once none are; a color
// at home, or a core running nothing, leaves the table alone.
func TestCoreStopRunningEndsLease(t *testing.T) {
	for _, list := range []bool{true, false} {
		table := NewColorTable(2)
		f := newCoreFixture(list, table)
		var c Color = 1
		for table.Hash(c) != 1 {
			c++
		}
		table.SetOwner(c, 0) // leased to core 0
		f.push(c, 10)
		f.push(c, 20)

		if _, _, ok := f.StopRunning(table, 0); ok {
			t.Fatalf("list=%v: a core running nothing ended a lease", list)
		}
		e, emptied := f.PopNext()
		f.SetRunning(e.Color)
		if _, _, ok := f.StopRunning(table, 0); ok || table.Owner(c) != 0 {
			t.Fatalf("list=%v: lease ended with an event of %d left", list, c)
		}
		e, emptied = f.PopNext()
		if emptied != nil {
			table.SetQueue(c, nil)
		}
		f.SetRunning(e.Color)
		color, home, ok := f.StopRunning(table, 0)
		if !ok || color != c || home != 1 || table.Owner(c) != 1 || table.AnyDeviated() {
			t.Fatalf("list=%v: drained lease: (%d, %d, %v), owner %d", list, color, home, ok, table.Owner(c))
		}
		if _, ok := f.RunningColor(); ok {
			t.Fatalf("list=%v: still running after StopRunning", list)
		}

		// At home nothing changes, drained or not.
		f.SetRunning(c)
		if _, _, ok := f.StopRunning(table, 1); ok {
			t.Fatalf("list=%v: a color at home ended a lease", list)
		}
	}
}
