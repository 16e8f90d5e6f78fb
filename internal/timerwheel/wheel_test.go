package timerwheel

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/melyruntime/mely/internal/equeue"
)

// tick is a coarse test granularity so deadline arithmetic stays in
// small integers.
const tick = time.Millisecond

func ms(n int64) int64 { return n * int64(time.Millisecond) }

func advanceAll(w *Wheel, now int64) []*Entry {
	return w.Advance(now, nil)
}

func TestExpiryOrderAndExactness(t *testing.T) {
	w := New(tick, 3)
	var armed []*Entry
	for i := int64(1); i <= 200; i++ {
		e := NewEntry(equeue.Color(i%7), 0, i, ms(i), 0)
		w.Add(e)
		armed = append(armed, e)
	}
	if w.Len() != 200 {
		t.Fatalf("Len = %d, want 200", w.Len())
	}
	fired := map[*Entry]int64{}
	for now := int64(0); now <= ms(250); now += ms(1) {
		for _, e := range advanceAll(w, now) {
			if _, dup := fired[e]; dup {
				t.Fatalf("entry fired twice")
			}
			if now < e.When {
				t.Fatalf("entry fired %dns early", e.When-now)
			}
			if now-e.When > ms(1) {
				t.Fatalf("entry fired %dns late (deadline %d, now %d)", now-e.When, e.When, now)
			}
			fired[e] = now
		}
	}
	if len(fired) != len(armed) {
		t.Fatalf("fired %d of %d", len(fired), len(armed))
	}
	if w.Len() != 0 {
		t.Fatalf("wheel not empty after full expiry: %d", w.Len())
	}
}

func TestBeyondHorizonCascades(t *testing.T) {
	w := New(tick, 2) // horizon: 64^2 = 4096 ticks
	e := NewEntry(1, 0, nil, ms(10_000), 0)
	w.Add(e)
	if got := advanceAll(w, ms(9_999)); len(got) != 0 {
		t.Fatalf("fired %d entries before the deadline", len(got))
	}
	got := advanceAll(w, ms(10_000))
	if len(got) != 1 || got[0] != e {
		t.Fatalf("want the one beyond-horizon entry at its deadline, got %d", len(got))
	}
}

func TestBigJumpAfterIdle(t *testing.T) {
	w := New(tick, 3)
	far := NewEntry(1, 0, nil, ms(50_000), 0)
	w.Add(far)
	// One giant idle advance must land exactly on the entry.
	got := advanceAll(w, ms(60_000))
	if len(got) != 1 {
		t.Fatalf("want 1 fired after idle jump, got %d", len(got))
	}
}

func TestOverdueInsertFiresImmediately(t *testing.T) {
	w := New(tick, 3)
	advanceAll(w, ms(100))
	e := NewEntry(1, 0, nil, ms(50), 0) // already past
	w.Add(e)
	if nd := w.NextDue(); nd > ms(100) {
		t.Fatalf("NextDue %d not immediate for overdue entry", nd)
	}
	if got := advanceAll(w, ms(100)); len(got) != 1 {
		t.Fatalf("overdue entry not harvested, got %d", len(got))
	}
}

func TestCancelExactOnce(t *testing.T) {
	w := New(tick, 3)
	e := NewEntry(1, 0, nil, ms(5), 0)
	w.Add(e)
	if !e.Cancel() {
		t.Fatal("first Cancel of an armed entry must win")
	}
	if e.Cancel() {
		t.Fatal("second Cancel must report already-canceled")
	}
	if got := advanceAll(w, ms(10)); len(got) != 0 {
		t.Fatalf("canceled entry harvested")
	}
	if w.Len() != 0 {
		t.Fatalf("canceled entry still linked")
	}

	f := NewEntry(1, 0, nil, ms(20), 0)
	w.Add(f)
	if got := advanceAll(w, ms(20)); len(got) != 1 {
		t.Fatalf("entry not harvested")
	}
	if f.Cancel() {
		t.Fatal("Cancel after harvest must lose for a one-shot")
	}
	f.FinishFire()
	if f.State() != StateFired {
		t.Fatalf("state = %d, want fired", f.State())
	}
}

func TestCancelRacingAdvance(t *testing.T) {
	const n = 4000
	w := New(tick, 3)
	entries := make([]*Entry, n)
	for i := range entries {
		entries[i] = NewEntry(equeue.Color(i), 0, nil, ms(int64(i%8)), 0)
		w.Add(entries[i])
	}
	var (
		wg       sync.WaitGroup
		canceled int64
		mu       sync.Mutex
		fired    = map[*Entry]bool{}
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for now := int64(0); now <= ms(10); now += ms(1) {
			for _, e := range advanceAll(w, now) {
				mu.Lock()
				fired[e] = true
				mu.Unlock()
				e.FinishFire()
			}
		}
	}()
	go func() {
		defer wg.Done()
		for _, e := range entries {
			if e.Cancel() {
				mu.Lock()
				canceled++
				mu.Unlock()
			}
		}
	}()
	wg.Wait()
	if int(canceled)+len(fired) != n {
		t.Fatalf("canceled %d + fired %d != %d (lost or doubled an entry)", canceled, len(fired), n)
	}
	for _, e := range entries {
		if e.Cancel() && fired[e] {
			t.Fatal("entry both fired and cancel-averted")
		}
	}
}

// TestRescheduleRacingAdvance moves deadlines back and forth under a
// concurrent harvest: every entry fires exactly once, at the deadline of
// its last successful Reschedule and never before it.
func TestRescheduleRacingAdvance(t *testing.T) {
	const n = 4000
	w := New(tick, 3)
	entries := make([]*Entry, n)
	last := make([]int64, n) // deadline in force, written by the rescheduler only
	for i := range entries {
		last[i] = ms(int64(i % 8))
		entries[i] = NewEntry(equeue.Color(i), 0, i, last[i], 0)
		w.Add(entries[i])
	}
	var (
		wg      sync.WaitGroup
		clock   atomic.Int64
		firedAt = make([]int64, n)
		fires   = make([]int, n)
	)
	harvest := func(now int64) {
		for _, e := range advanceAll(w, now) {
			i := e.Data.(int)
			firedAt[i] = now
			fires[i]++
			e.FinishFire()
		}
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for now := int64(0); now <= ms(40); now += ms(1) {
			clock.Store(now)
			harvest(now)
		}
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for round := 0; round < 3; round++ {
			for i, e := range entries {
				when := clock.Load() + ms(int64(rng.Intn(12))) - ms(2)
				if ok, _ := e.Reschedule(when); ok {
					last[i] = when
				}
			}
		}
	}()
	wg.Wait()
	harvest(ms(1000))
	for i, e := range entries {
		if fires[i] != 1 {
			t.Fatalf("entry %d fired %d times", i, fires[i])
		}
		if e.When != last[i] || firedAt[i] < last[i] {
			t.Fatalf("entry %d fired at %d with deadline %d; last successful Reschedule set %d",
				i, firedAt[i], e.When, last[i])
		}
	}
}

func TestReschedule(t *testing.T) {
	w := New(tick, 3)
	e := NewEntry(1, 0, nil, ms(100), 0)
	if ok, _ := e.Reschedule(ms(5)); ok {
		t.Fatal("Reschedule of an entry on no wheel must fail")
	}
	w.Add(e)
	if ok, earlier := e.Reschedule(ms(5)); !ok || !earlier {
		t.Fatalf("Reschedule to an earlier deadline = %v, %v, want true, true", ok, earlier)
	}
	got := advanceAll(w, ms(5))
	if len(got) != 1 {
		t.Fatalf("rescheduled entry not harvested at the new deadline")
	}
	if ok, _ := e.Reschedule(ms(50)); ok {
		t.Fatal("Reschedule of a firing entry must fail")
	}
	e.FinishFire()
	if ok, _ := e.Reschedule(ms(50)); ok {
		t.Fatal("Reschedule of a fired entry must fail")
	}

	// Rescheduling later must not leave a ghost at the old deadline, and
	// is no reason to wake the owner.
	l := NewEntry(2, 0, nil, ms(10), 0)
	w.Add(l)
	if ok, earlier := l.Reschedule(ms(200)); !ok || earlier {
		t.Fatalf("Reschedule to a later deadline = %v, %v, want true, false", ok, earlier)
	}
	if got := advanceAll(w, ms(150)); len(got) != 0 {
		t.Fatalf("entry fired at its abandoned deadline")
	}
	if got := advanceAll(w, ms(200)); len(got) != 1 {
		t.Fatalf("entry missing at its moved deadline")
	}
}

func TestNextDueConservative(t *testing.T) {
	w := New(tick, 3)
	if w.NextDue() != int64(math.MaxInt64) {
		t.Fatal("empty wheel must report no deadline")
	}
	deadlines := []int64{ms(3), ms(70), ms(5000), ms(300_000)}
	for _, d := range deadlines {
		w.Add(NewEntry(1, 0, nil, d, 0))
	}
	sort.Slice(deadlines, func(i, j int) bool { return deadlines[i] < deadlines[j] })
	now := int64(0)
	for i := 0; i < len(deadlines); {
		nd := w.NextDue()
		if nd > deadlines[i] {
			t.Fatalf("NextDue %d later than true earliest %d", nd, deadlines[i])
		}
		if nd > now {
			now = nd
		} else {
			now += ms(1)
		}
		for range w.Advance(now, nil) {
			i++
		}
	}
	if w.NextDue() != int64(math.MaxInt64) {
		t.Fatal("drained wheel must report no deadline")
	}
}

// TestRandomizedAgainstModel drives random arm/cancel/reschedule/advance
// traffic against a flat reference model and cross-checks every firing.
func TestRandomizedAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	w := New(tick, 3)
	type ref struct {
		e        *Entry
		deadline int64
		dead     bool
	}
	var (
		live []*ref
		now  int64
	)
	fired := map[*Entry]int64{}
	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // arm
			d := now + ms(int64(rng.Intn(3000))) + rng.Int63n(int64(tick))
			if rng.Intn(20) == 0 {
				d = now + ms(int64(rng.Intn(300_000))) // occasionally far out
			}
			e := NewEntry(equeue.Color(rng.Intn(5)), 0, nil, d, 0)
			w.Add(e)
			live = append(live, &ref{e: e, deadline: d})
		case op < 5 && len(live) > 0: // cancel
			r := live[rng.Intn(len(live))]
			if !r.dead && r.e.Cancel() {
				r.dead = true
			}
		case op < 6 && len(live) > 0: // reschedule
			r := live[rng.Intn(len(live))]
			d := now + ms(int64(rng.Intn(3000)))
			if !r.dead {
				if ok, _ := r.e.Reschedule(d); ok {
					r.deadline = d
				}
			}
		default: // advance
			now += ms(int64(rng.Intn(200)))
			for _, e := range w.Advance(now, nil) {
				if _, dup := fired[e]; dup {
					t.Fatalf("step %d: double fire", step)
				}
				fired[e] = now
				e.FinishFire()
			}
		}
	}
	now += ms(400_000)
	for _, e := range w.Advance(now, nil) {
		fired[e] = now
		e.FinishFire()
	}
	for i, r := range live {
		at, ok := fired[r.e]
		if r.dead {
			if ok {
				t.Fatalf("entry %d fired after a successful cancel", i)
			}
			continue
		}
		if !ok {
			t.Fatalf("entry %d (deadline %d, now %d) never fired", i, r.deadline, now)
		}
		if at < r.deadline {
			t.Fatalf("entry %d fired %dns early", i, r.deadline-at)
		}
	}
	if w.Len() != 0 {
		t.Fatalf("wheel retains %d entries after full drain", w.Len())
	}
}

func TestPeriodicRearmLoop(t *testing.T) {
	w := New(tick, 3)
	e := NewEntry(1, 0, nil, ms(10), ms(10))
	w.Add(e)
	fires := 0
	for now := int64(0); now <= ms(100); now += ms(1) {
		for _, got := range w.Advance(now, nil) {
			fires++
			if !got.Rearm(got.When + got.Period) {
				t.Fatal("rearm of a firing periodic entry must succeed")
			}
			w.Add(got)
		}
	}
	if fires != 10 {
		t.Fatalf("periodic fired %d times in 100ms at 10ms, want 10", fires)
	}
	if !e.Cancel() {
		t.Fatal("cancel of the armed periodic must win")
	}
	if got := w.Advance(ms(200), nil); len(got) != 0 {
		t.Fatal("canceled periodic fired again")
	}
}

// TestAddRacesRearm: a periodic entry is re-armed and re-added by
// whoever fired it while the wheel it lands on belongs to another
// worker, which may fire it again — and rewrite its deadline — the
// moment Add releases the wheel lock. Add must be done with the entry by
// then. Meaningful under -race, where a late read of When is reported.
func TestAddRacesRearm(t *testing.T) {
	w := New(tick, 3)
	rearmed := make(chan *Entry, 1)
	adder := make(chan struct{})
	go func() {
		defer close(adder)
		for e := range rearmed {
			w.Add(e)
		}
	}()
	rearmed <- NewEntry(1, 0, nil, ms(1), ms(1))
	var buf []*Entry
	for now, fires := ms(1), 0; fires < 5000; now += ms(1) {
		buf = w.Advance(now, buf[:0])
		for _, e := range buf {
			fires++
			if !e.Rearm(now + e.Period) {
				t.Fatal("rearm of a firing periodic entry must succeed")
			}
			rearmed <- e
		}
	}
	close(rearmed)
	<-adder
}

func TestOneLevelWheelNeverFiresEarly(t *testing.T) {
	// A one-level wheel has no higher level to park beyond-horizon
	// deadlines in: every slot turn must re-check the true deadline
	// instead of firing whatever cascaded into it.
	w := New(tick, 1) // horizon: 64 ticks
	e := NewEntry(1, 0, nil, ms(10_000), 0)
	w.Add(e)
	for now := int64(0); now < ms(10_000); now += ms(97) {
		if got := w.Advance(now, nil); len(got) != 0 {
			t.Fatalf("beyond-horizon entry fired %dns early", e.When-now)
		}
	}
	if got := w.Advance(ms(10_000), nil); len(got) != 1 {
		t.Fatalf("entry missing at its deadline, got %d", len(got))
	}
}

func TestAdvanceAfterLongGapIsCheap(t *testing.T) {
	// Arming after (or across) a long quiet period must not walk the
	// whole gap tick by tick: the empty-level jump goes boundary to
	// boundary, so a month-long gap costs a handful of cascade hops.
	w := New(tick, DefaultLevels)
	const month = 30 * 24 * int64(time.Hour)
	e := NewEntry(1, 0, nil, month+ms(5), 0)
	w.Add(e)
	start := time.Now()
	if got := w.Advance(month, nil); len(got) != 0 {
		t.Fatal("fired before the deadline")
	}
	if got := w.Advance(month+ms(5), nil); len(got) != 1 {
		t.Fatal("entry missing at its deadline")
	}
	// The real bound is structural (a few thousand boundary hops, not
	// ~40M ticks); the generous wall-clock ceiling just catches a
	// regression to tick-walking, which takes seconds.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("advancing across a month took %v", elapsed)
	}
}
