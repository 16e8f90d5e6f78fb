package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"github.com/melyruntime/mely"
	"github.com/melyruntime/mely/internal/equeue"
)

// The three in-process event workloads share one generator: a wave of
// waveSize slots over nColors colours, slot i coloured i%nColors, posted
// by PostBatch in chunkSize-event chunks by one producer that blocks in
// Runtime.Drain while the wave drains. Payloads are pre-boxed slot
// indexes, so the generator allocates nothing in steady state and the
// payload survives a spill round-trip through disk.
const chunkSize = 64

type eventsKind int

const (
	kindChain eventsKind = iota
	kindUnbalanced
	kindSpill
)

// Handler bodies: spin(n) runs n dependent iterations (~0.65 ns each on
// this machine), so shortSpin is a ~0.1 µs handler and longSpin ~1 ms.
const (
	shortSpin    = 150
	longSpin     = 1_500_000
	longsPerWave = 20 // 0.5 % of 4096, at seeded positions
)

// perCore is handler-side state of one worker, padded against false
// sharing. Handlers find theirs by Ctx.CoreID.
type perCore struct {
	done      int64 // final-stage executions
	violation int64 // order/duplicate violations and failed continuation posts
	sink      uint64
	_         [64]byte
}

type eventsWL struct {
	kind     eventsKind
	cfg      runCfg
	waveSize int
	nColors  int
	stages   int // handler executions per root

	rt      *mely.Runtime
	rng     *rand.Rand
	colors  []mely.Color
	boxed   []any
	batch   []mely.BatchEvent
	hShort  mely.Handler
	hLong   mely.Handler
	longPos []int

	// next[stage][colour] is the per-colour sequence number the stage
	// expects next. Only handlers of that colour touch an entry, so the
	// runtime's own colour serialization is what keeps it race-free —
	// which is the guarantee under test.
	next      [][]int64
	chunkPost []int64        // ns since t0: when chunk j's PostBatch was called
	chunkRet  []atomic.Int64 // traced pass: when it returned (0 until then); handlers read it concurrently
	chunkSpan []uint64
	slotPost  []int64 // traced pass, sampled slots: last post-return time
	slotSpan  []uint64
	t0        time.Time
	core      []perCore
	lat       []latBuf
	waves     int64
	spillDir  string
}

func newEventsWL(kind eventsKind, cfg runCfg) *eventsWL {
	w := &eventsWL{kind: kind, cfg: cfg, waveSize: 4096, nColors: 1024, stages: 1}
	switch kind {
	case kindChain:
		w.stages = 3
	case kindSpill:
		w.waveSize, w.nColors = 32768, 64
	}
	return w
}

func (w *eventsWL) runtime() *mely.Runtime { return w.rt }

func (w *eventsWL) setup() error {
	w.rng = rand.New(rand.NewSource(w.cfg.seed))
	mc := w.cfg.melyConfig()
	if w.kind == kindSpill {
		dir, err := os.MkdirTemp("", "perf-spill-")
		if err != nil {
			return err
		}
		w.spillDir = dir
		mc.MaxQueuedEvents, mc.OverloadPolicy, mc.SpillDir = 4096, mely.OverloadSpill, dir
	}
	rt, err := mely.New(mc)
	if err != nil {
		return err
	}
	w.rt = rt
	w.pickColors()
	w.t0 = time.Now()
	w.core = make([]perCore, cores)
	w.lat = newLatBufs(cores)
	w.next = make([][]int64, w.stages)
	for i := range w.next {
		w.next[i] = make([]int64, w.nColors)
	}
	nChunks := w.waveSize / chunkSize
	w.chunkPost = make([]int64, nChunks)
	w.chunkRet = make([]atomic.Int64, nChunks)
	w.chunkSpan = make([]uint64, nChunks)
	if w.cfg.tr != nil {
		w.slotPost = make([]int64, w.waveSize)
		w.slotSpan = make([]uint64, w.waveSize)
	}
	w.boxed = make([]any, w.waveSize)
	for i := range w.boxed {
		w.boxed[i] = int64(i)
	}
	w.register()
	w.batch = make([]mely.BatchEvent, w.waveSize)
	for i := range w.batch {
		w.batch[i] = mely.BatchEvent{Handler: w.hShort, Color: w.colors[i%w.nColors], Data: w.boxed[i]}
	}
	return rt.Start()
}

// pickColors draws seeded colours with the placement the workload
// needs: events_chain spreads them evenly over the cores,
// events_unbalanced homes every one on core 0. The runtime places
// colours with the same table hash.
func (w *eventsWL) pickColors() {
	hash := equeue.NewColorTable(cores).Hash
	perHome := make([]int, cores)
	for len(w.colors) < w.nColors {
		c := w.rng.Uint64() | 2 // never the reserved colours 0 and 1
		home := hash(equeue.Color(c))
		switch w.kind {
		case kindChain:
			if perHome[home] >= w.nColors/cores {
				continue
			}
		case kindUnbalanced:
			if home != 0 {
				continue
			}
		}
		perHome[home]++
		w.colors = append(w.colors, mely.Color(c))
	}
}

func (w *eventsWL) register() {
	switch w.kind {
	case kindChain:
		var h2, h3 mely.Handler
		h3 = w.rt.Register("chain.stage3", func(ctx *mely.Ctx) { w.stage(ctx, 2, mely.Handler{}) })
		h2 = w.rt.Register("chain.stage2", func(ctx *mely.Ctx) { w.stage(ctx, 1, h3) })
		w.hShort = w.rt.Register("chain.stage1", func(ctx *mely.Ctx) { w.stage(ctx, 0, h2) })
	case kindUnbalanced:
		// Distinct handlers, so the per-handler execution-time EWMA the
		// time-left heuristic steals by is truthful for both.
		w.hShort = w.rt.Register("unbalanced.short", func(ctx *mely.Ctx) { w.spinHandler(ctx, shortSpin) })
		w.hLong = w.rt.Register("unbalanced.long", func(ctx *mely.Ctx) { w.spinHandler(ctx, longSpin) })
	case kindSpill:
		w.hShort = w.rt.Register("spill.work", func(ctx *mely.Ctx) { w.spinHandler(ctx, shortSpin) })
	}
}

// sampled reports whether slot i carries a latency sample: one slot per
// chunk, at a position that rotates so every colour gets sampled.
func sampled(i int) bool { return i&(chunkSize-1) == (i/chunkSize)&(chunkSize-1) }

// check verifies per-colour FIFO and exactly-once at one stage: slot i
// is its colour's (i/nColors)-th event of the wave, and waves do not
// overlap, so the stage must see its colour's slots in that order.
func (w *eventsWL) check(pc *perCore, stage, i int) {
	perColor := int64(w.waveSize / w.nColors)
	n := &w.next[stage][i%w.nColors]
	if *n%perColor != int64(i/w.nColors) {
		pc.violation++
	}
	*n++
}

// stage is the events_chain handler: no-op body, then the continuation.
func (w *eventsWL) stage(ctx *mely.Ctx, stage int, next mely.Handler) {
	i := int(ctx.Data().(int64))
	pc := &w.core[ctx.CoreID()]
	var entry int64
	tr := w.cfg.tr
	if tr != nil && sampled(i) {
		entry = tr.now()
	}
	w.check(pc, stage, i)
	var postStart, postEnd int64
	if stage < w.stages-1 {
		if entry != 0 {
			postStart = tr.now()
		}
		if err := ctx.Post(next, ctx.Color(), ctx.Data()); err != nil {
			pc.violation++
		}
		if entry != 0 {
			postEnd = tr.now()
		}
	} else {
		pc.done++
		if sampled(i) {
			w.lat[ctx.CoreID()].add(time.Since(w.t0).Nanoseconds() - w.chunkPost[i/chunkSize])
		}
	}
	if entry != 0 {
		w.traceHandler(ctx.CoreID(), i, stage == 0, entry, postStart, postEnd)
	}
}

// spinHandler is the events_unbalanced and spill_overload handler.
func (w *eventsWL) spinHandler(ctx *mely.Ctx, n int) {
	i := int(ctx.Data().(int64))
	pc := &w.core[ctx.CoreID()]
	var entry int64
	tr := w.cfg.tr
	if tr != nil && sampled(i) {
		entry = tr.now()
	}
	w.check(pc, 0, i)
	pc.sink += spin(n)
	pc.done++
	if sampled(i) {
		w.lat[ctx.CoreID()].add(time.Since(w.t0).Nanoseconds() - w.chunkPost[i/chunkSize])
	}
	if entry != 0 {
		w.traceHandler(ctx.CoreID(), i, true, entry, 0, 0)
	}
}

func spin(n int) uint64 {
	x := uint64(n)
	for i := 0; i < n; i++ {
		x = x*3 + uint64(i)
	}
	return x
}

// traceHandler records a sampled slot's spans in the traced pass:
// mely.queue_wait (post return → handler entry), handler.exec, and the
// continuation's mely.post. A root's post is its chunk's PostBatch; if
// the handler ran before that call returned, the wait is zero.
func (w *eventsWL) traceHandler(core, i int, root bool, entry, postStart, postEnd int64) {
	b := w.cfg.tr.core(core)
	end := w.cfg.tr.now()
	parent, posted := w.slotSpan[i], w.slotPost[i]
	if root {
		parent, posted = w.chunkSpan[i/chunkSize], w.chunkRet[i/chunkSize].Load()
		if posted == 0 || posted > entry {
			posted = entry
		}
	}
	b.add(spQueueWait, parent, uint64(i), posted, entry)
	exec := b.add(spExec, parent, uint64(i), entry, end)
	if postEnd != 0 {
		w.slotSpan[i] = b.add(spPost, exec, uint64(i), postStart, postEnd)
		w.slotPost[i] = postEnd
	}
}

func (w *eventsWL) run(d time.Duration) counts { return runWaves(d, w.wave) }

// wave posts one wave and blocks until the runtime has drained it.
func (w *eventsWL) wave() counts {
	if w.kind == kindUnbalanced {
		for _, p := range w.longPos {
			w.batch[p].Handler = w.hShort
		}
		w.longPos = w.longPos[:0]
		for len(w.longPos) < longsPerWave {
			p := w.rng.Intn(w.waveSize)
			if w.batch[p].Handler == w.hShort {
				w.batch[p].Handler = w.hLong
				w.longPos = append(w.longPos, p)
			}
		}
	}
	tr := w.cfg.tr
	var waveStart int64
	var waveSpan uint64
	if tr != nil {
		waveStart = tr.now()
		waveSpan = tr.client(0).newID()
		for j := range w.chunkRet {
			w.chunkRet[j].Store(0)
		}
	}
	var c counts
	want := w.doneTotal() + int64(w.waveSize)
	for j := 0; j*chunkSize < w.waveSize; j++ {
		chunk := w.batch[j*chunkSize : (j+1)*chunkSize]
		start := time.Since(w.t0).Nanoseconds()
		w.chunkPost[j] = start
		var ts int64
		if tr != nil {
			w.chunkSpan[j] = tr.client(0).newID()
			ts = tr.now()
		}
		err := w.rt.PostBatch(chunk)
		if tr != nil {
			te := tr.now()
			w.chunkRet[j].Store(te)
			tr.client(0).put(w.chunkSpan[j], spPostBatch, waveSpan, uint64(j), ts, te)
		}
		c.attempted += int64(len(chunk) * w.stages)
		if err != nil {
			c.failed += int64(len(chunk) * w.stages)
		}
	}
	if err := w.rt.Drain(context.Background()); err != nil {
		c.failed = c.attempted
	}
	if tr != nil {
		tr.client(0).put(waveSpan, spWave, 0, uint64(w.waves), waveStart, tr.now())
	}
	w.waves++
	// Nothing lost, nothing run twice: the final stage ran exactly once
	// per root of this wave.
	if got := w.doneTotal(); got != want {
		c.failed += abs(want - got)
	}
	c.ops = c.attempted - c.failed
	if c.ops < 0 {
		c.ops = 0
	}
	return c
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func (w *eventsWL) doneTotal() int64 {
	var n int64
	for i := range w.core {
		n += w.core[i].done
	}
	return n
}

func (w *eventsWL) drainSamples(dst []int64) []int64 { return drainLat(w.lat, dst) }

func (w *eventsWL) layerMetrics(metrics, int64, time.Duration) {}

func (w *eventsWL) finish(st mely.Stats) []string {
	var out []string
	var viol int64
	for i := range w.core {
		viol += w.core[i].violation
	}
	if viol > 0 {
		out = append(out, fmt.Sprintf("%d per-colour order violations or failed continuation posts", viol))
	}
	perColor := int64(w.waveSize/w.nColors) * w.waves
	for s := range w.next {
		for c, n := range w.next[s] {
			if n != perColor {
				out = append(out, fmt.Sprintf("stage %d colour %d ran %d events, want %d", s+1, c, n, perColor))
				break
			}
		}
	}
	if w.kind == kindSpill {
		if st.SpilledEvents == 0 || st.SpilledEvents != st.ReloadedEvents || st.SpillErrors != 0 {
			out = append(out, fmt.Sprintf("spill accounting: spilled=%d reloaded=%d errors=%d",
				st.SpilledEvents, st.ReloadedEvents, st.SpillErrors))
		}
	}
	return out
}

func (w *eventsWL) teardown() {
	if w.rt != nil {
		w.rt.Stop()
	}
	if w.spillDir != "" {
		_ = os.RemoveAll(w.spillDir) // a private temp directory; nothing to report if it is already gone
	}
}
