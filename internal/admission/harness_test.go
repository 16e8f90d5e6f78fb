package admission

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/melyruntime/mely/internal/equeue"
	"github.com/melyruntime/mely/internal/spillq"
)

// harnessSeeds is the fixed seed set of TestLayerProperties; a seed that
// once failed is appended here.
var harnessSeeds = func() []int64 {
	s := make([]int64, 0, 160)
	for i := int64(1); i <= 160; i++ {
		s = append(s, i)
	}
	return s
}()

const (
	harnessSteps  = 300
	harnessRounds = 6
)

// item is one posted event: its colour's sequence number, and whether it
// reached memory through ForceMemory (exempt from the FIFO order).
type item struct {
	seq    int
	forced bool
}

// harness drives one Layer by seeded random steps against a real spillq
// store, single-threaded, and is the layer's host. It models what the
// layer cannot see — which events sit in memory, which appends are in
// flight — and checks the layer's books against that model and the store
// after every step.
type harness struct {
	t      *testing.T
	seed   int64
	rng    *rand.Rand
	cfg    Config
	colors int // colours posted to (recovered ones aside)
	l      *Layer[int]
	store  *spillq.Store
	log    []string

	caller int // the caller id of the step in progress

	mem     map[equeue.Color][]item // in memory, oldest first
	memN    int64
	forcedN map[equeue.Color]int64 // forced items in memory
	flight  map[equeue.Color][]int // admitted to disk, not landed, oldest first
	flightN int
	next    map[equeue.Color]int    // next sequence number
	lastIn  map[equeue.Color]int    // last unforced sequence that reached memory
	ran     map[equeue.Color][]bool // which sequences executed
	fresh   equeue.Color            // next never-used colour (Recovered)
	used    map[equeue.Color]bool
	lost    int64
	failed  bool
}

func (h *harness) Stopped() bool { return false }

func (h *harness) Deliver(c int, color equeue.Color, recs []spillq.Record) {
	if c != h.caller {
		h.fail("Deliver got caller %d, the step's is %d", c, h.caller)
	}
	for _, rec := range recs {
		if equeue.Color(rec.Color) != color {
			h.fail("Deliver of color %d got a record of color %d", color, rec.Color)
		}
		h.enter(color, item{seq: int(binary.LittleEndian.Uint64(rec.Payload))})
	}
}

func (h *harness) Lost(n int64) { h.lost += n }

func (h *harness) fail(format string, args ...any) {
	if h.failed {
		return
	}
	h.failed = true
	start := max(len(h.log)-25, 0)
	h.t.Errorf("seed %d (policy %d, MaxTotal %d, MaxPerColor %d): %s\nlast steps:\n  %s",
		h.seed, h.cfg.Policy, h.cfg.MaxTotal, h.cfg.MaxPerColor, fmt.Sprintf(format, args...),
		strings.Join(h.log[start:], "\n  "))
}

func (h *harness) record(color equeue.Color, seq int) spillq.Record {
	return spillq.Record{Color: uint64(color), Payload: binary.LittleEndian.AppendUint64(nil, uint64(seq))}
}

// enter puts an event into memory: unforced ones must arrive in their
// colour's posting order.
func (h *harness) enter(color equeue.Color, it item) {
	if !it.forced {
		if last, ok := h.lastIn[color]; ok && it.seq <= last {
			h.fail("color %d: seq %d reached memory after %d (FIFO broken)", color, it.seq, last)
		}
		h.lastIn[color] = it.seq
	} else {
		h.forcedN[color]++
	}
	h.mem[color] = append(h.mem[color], it)
	h.memN++
}

func (h *harness) post(color equeue.Color) int {
	seq := h.next[color]
	h.next[color]++
	h.ran[color] = append(h.ran[color], false)
	h.used[color] = true
	return seq
}

func (h *harness) admit() {
	color := equeue.Color(h.rng.Intn(h.colors))
	external := h.rng.Intn(2) == 0
	var ctx context.Context
	if h.cfg.Policy == Block && external {
		// A Block wait would hang this goroutine: a cancelled context
		// turns "would wait" into an answer.
		c, cancel := context.WithCancel(context.Background())
		cancel()
		ctx = c
	}
	route, err := h.l.Admit(ctx, color, external)
	h.log = append(h.log, fmt.Sprintf("admit color %d external=%v -> route %d err %v", color, external, route, err))
	if err != nil {
		want := ErrOverloaded
		if h.cfg.Policy == Block {
			want = context.Canceled
		}
		if !external || h.cfg.Policy == Spill || !errors.Is(err, want) {
			h.fail("admit of color %d (external %v) failed: %v", color, external, err)
		}
		return
	}
	seq := h.post(color)
	if route == Disk {
		if h.cfg.Policy != Spill {
			h.fail("routed to disk under policy %d", h.cfg.Policy)
		}
		h.flight[color] = append(h.flight[color], seq)
		h.flightN++
		return
	}
	h.enter(color, item{seq: seq})
}

func (h *harness) execute(color equeue.Color) {
	q := h.mem[color]
	it := q[0]
	h.mem[color] = q[1:]
	h.memN--
	if it.forced {
		h.forcedN[color]--
	}
	if h.ran[color][it.seq] {
		h.fail("color %d: seq %d executed twice", color, it.seq)
	}
	h.ran[color][it.seq] = true
	h.log = append(h.log, fmt.Sprintf("execute color %d seq %d", color, it.seq))
	h.l.Executed(h.caller, color)
}

// land lands color's oldest append in flight (per-poster order: one
// poster's appends of a colour land in the order it posted them).
func (h *harness) land(color equeue.Color) {
	seq := h.flight[color][0]
	h.flight[color] = h.flight[color][1:]
	h.flightN--
	h.log = append(h.log, fmt.Sprintf("land color %d seq %d", color, seq))
	depth, err := h.l.Append(h.caller, color, h.record(color, seq))
	if err != nil {
		h.fail("append: %v", err)
	}
	if depth < 1 {
		h.fail("color %d: landed at depth %d", color, depth)
	}
}

// force takes one append in flight to memory, as a poster whose store
// write failed does.
func (h *harness) force(color equeue.Color) {
	q := h.flight[color]
	i := h.rng.Intn(len(q))
	seq := q[i]
	h.flight[color] = slices.Delete(q, i, i+1)
	h.flightN--
	h.log = append(h.log, fmt.Sprintf("force color %d seq %d", color, seq))
	h.l.ForceMemory(color)
	h.enter(color, item{seq: seq, forced: true})
}

// recovered gives a never-used colour a backlog already on the store, as
// a restart's recovery does.
func (h *harness) recovered() {
	color := h.fresh
	h.fresh++
	n := 1 + h.rng.Intn(4)
	recs := make([]spillq.Record, n)
	for i := range recs {
		recs[i] = h.record(color, h.post(color))
	}
	if err := h.store.Append(uint64(color), recs); err != nil {
		h.fail("recovery append: %v", err)
	}
	h.log = append(h.log, fmt.Sprintf("recovered color %d n %d", color, n))
	h.l.Recovered(h.caller, color, int64(n))
}

// armLanding makes the next reload of a colour with an append in flight
// land that append between its store read and its re-lock — when that
// read came up empty, half the time: the landing its reload must not
// miss.
func (h *harness) armLanding() {
	emptyOnly := h.rng.Intn(2) == 0
	h.log = append(h.log, fmt.Sprintf("arm a landing inside the next reload (empty reads only: %v)", emptyOnly))
	h.l.afterRead = func(color equeue.Color, got int) {
		if len(h.flight[color]) == 0 || (emptyOnly && got > 0) {
			return
		}
		h.l.afterRead = nil
		h.log = append(h.log, fmt.Sprintf("  inside the reload of color %d, after reading %d:", color, got))
		h.land(color)
	}
}

// pick draws one of the colours whose queue in m is not empty.
func pick[T any](rng *rand.Rand, m map[equeue.Color][]T) (equeue.Color, bool) {
	var cs []equeue.Color
	for c, q := range m {
		if len(q) > 0 {
			cs = append(cs, c)
		}
	}
	if len(cs) == 0 {
		return 0, false
	}
	slices.Sort(cs)
	return cs[rng.Intn(len(cs))], true
}

// check holds the layer's books against the model and the store.
func (h *harness) check() {
	var sumMem int64
	states := make(map[equeue.Color]colorState)
	for i := range h.l.shards {
		for c, st := range h.l.shards[i].colors {
			states[c] = *st
			sumMem += st.mem
		}
	}
	gauge := h.l.queued.Load()
	// The gauge is the sum of the colours' memory, and the model's.
	if gauge != sumMem || gauge != h.memN {
		h.fail("gauge %d, sum of mem %d, model holds %d in memory", gauge, sumMem, h.memN)
	}
	queued := make(map[equeue.Color]int)
	for _, c := range h.l.starvedQ {
		queued[c]++
	}
	if int(h.l.starvedN.Load()) != len(h.l.starvedQ) {
		h.fail("starvedN %d, queue %v", h.l.starvedN.Load(), h.l.starvedQ)
	}
	for c := range h.used {
		st := states[c]
		flight := int64(len(h.flight[c]))
		// Each colour's disk is the store's depth plus its appends in
		// flight, and its memory the model's.
		var depth int64
		if h.store != nil {
			depth = int64(h.store.Depth(uint64(c)))
		}
		if st.disk != depth+flight || st.landing != flight {
			h.fail("color %d: disk %d, landing %d, store depth %d + %d in flight", c, st.disk, st.landing, depth, flight)
		}
		if st.mem != int64(len(h.mem[c])) {
			h.fail("color %d: mem %d, model holds %d", c, st.mem, len(h.mem[c]))
		}
		// A disk tail with nothing in memory is being reloaded, waits as
		// starved, or has an append in flight whose landing reloads it.
		// A starved one needs a pickup to come: a completion, or a
		// landing whose reload brings completions.
		if st.disk > 0 && st.mem == 0 && !st.reloading && flight == 0 {
			switch {
			case !st.starved:
				h.fail("color %d stranded: disk %d, nothing in memory, not reloading, not starved, nothing in flight", c, st.disk)
			case gauge == 0 && h.flightN == 0:
				h.fail("color %d starved with nothing in memory and nothing in flight to pick it up (starved queue %v)", c, h.l.starvedQ)
			}
		}
		// The starved queue may keep a colour that left it in spirit (its
		// entry is checked when popped), but a starved colour is in it.
		if st.starved && queued[c] == 0 {
			h.fail("color %d: starved but not queued", c)
		}
		if h.cfg.Policy == Spill && h.cfg.MaxPerColor > 0 && st.mem > h.cfg.MaxPerColor+h.forcedN[c] {
			h.fail("color %d: mem %d over its bound %d", c, st.mem, h.cfg.MaxPerColor)
		}
	}
	var forced int64
	for _, n := range h.forcedN {
		forced += n
	}
	if h.cfg.Policy == Spill && h.cfg.MaxTotal > 0 && gauge > h.cfg.MaxTotal+forced {
		h.fail("gauge %d over the bound %d (%d forced)", gauge, h.cfg.MaxTotal, forced)
	}
	if h.lost != 0 {
		h.fail("%d records written off without an I/O error", h.lost)
	}
}

// drain lands every append and runs every event — memory first, half
// the time, so that it runs empty while appends are still in flight — and
// a landing may fall into a reload's read window.
func (h *harness) drain(step int) {
	memFirst := h.rng.Intn(2) == 0
	for ; !h.failed && (h.memN > 0 || h.flightN > 0); step++ {
		h.caller = step
		if h.l.afterRead == nil && h.rng.Intn(2) == 0 {
			h.armLanding()
		}
		if c, ok := pick(h.rng, h.flight); ok && (h.memN == 0 || (!memFirst && h.rng.Intn(2) == 0)) {
			h.land(c)
		} else if c, ok := pick(h.rng, h.mem); ok {
			h.execute(c)
		}
		h.check()
	}
	h.l.afterRead = nil
}

func runHarness(t *testing.T, seed int64) bool {
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{Policy: Policy(rng.Intn(3))}
	for cfg.MaxTotal == 0 && cfg.MaxPerColor == 0 {
		if rng.Intn(3) > 0 {
			cfg.MaxTotal = int64(1 + rng.Intn(8))
		}
		if rng.Intn(2) > 0 {
			cfg.MaxPerColor = int64(1 + rng.Intn(4))
		}
	}
	h := &harness{
		t: t, seed: seed, rng: rng, cfg: cfg, colors: 1 + rng.Intn(4),
		mem: make(map[equeue.Color][]item), forcedN: make(map[equeue.Color]int64),
		flight: make(map[equeue.Color][]int), next: make(map[equeue.Color]int),
		lastIn: make(map[equeue.Color]int), ran: make(map[equeue.Color][]bool),
		used: make(map[equeue.Color]bool), fresh: 1000,
	}
	if cfg.Policy == Spill {
		store, err := spillq.Open(t.TempDir(), spillq.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		h.store, cfg.Store = store, store
	}
	h.l = New[int](h, cfg)
	// Rounds of random steps, each ended by a drain: memory running
	// empty is when a colour nobody will pick up is stranded for good.
	step := 0
	for round := 0; round < harnessRounds && !h.failed; round++ {
		for end := step + harnessSteps/harnessRounds; step < end && !h.failed; step++ {
			h.caller = step
			switch r := rng.Intn(100); {
			case r < 40:
				h.admit()
			case r < 70:
				if c, ok := pick(rng, h.mem); ok {
					h.execute(c)
				}
			case r < 85:
				if c, ok := pick(rng, h.flight); ok {
					h.land(c)
				}
			case r < 90:
				if c, ok := pick(rng, h.flight); ok {
					h.force(c)
				}
			case r < 95:
				if cfg.Policy == Spill {
					h.recovered()
				}
			default:
				h.armLanding()
			}
			h.check()
		}
		h.drain(step)
		if !h.failed {
			if err := h.l.CheckEmpty(); err != nil {
				h.fail("after a drain: %v", err)
			}
		}
	}
	if h.failed {
		return false
	}
	for c, ran := range h.ran {
		for seq, ok := range ran {
			if !ok {
				h.fail("color %d: seq %d never ran", c, seq)
			}
		}
	}
	return !h.failed
}

// TestLayerProperties is the layer's seeded property harness: random
// sequences of admissions (external and internal, under Reject, Block
// and Spill, with per-colour and global bounds), executions, appends held
// in flight and landed — some inside a reload's read window —,
// ForceMemory fallbacks and recovered backlogs, against a real store.
// After every step: the gauge is the sum of the colours' memory; each
// colour's disk is the store's depth plus its appends in flight; no disk
// tail is stranded; starved colours have a pickup to come; memory is
// entered in per-colour FIFO order. After every drain (each seed runs
// rounds of steps, each ended by one) the layer holds nothing, and at the
// end every event ran once.
func TestLayerProperties(t *testing.T) {
	for _, seed := range harnessSeeds {
		if !runHarness(t, seed) {
			return
		}
	}
}
