package scenario

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"os"

	"github.com/melyruntime/mely/internal/admission"
	"github.com/melyruntime/mely/internal/equeue"
	"github.com/melyruntime/mely/internal/metrics"
	"github.com/melyruntime/mely/internal/sim"
	"github.com/melyruntime/mely/internal/spillq"
)

// The overload workload runs the runtime's bounded-queue spill protocol
// (internal/admission, mely.OverloadSpill's layer) on the deterministic
// simulated platform: an open-loop producer posts work at twice the
// whole machine's service rate, a MaxQueuedEvents-style bound caps the
// in-memory queues, and the overflow spills — through the real
// internal/spillq segment store, on real disk — reloading in FIFO order
// as colours drain below the low-water mark. The workload is the layer's
// host: it produces, executes and audits, and the layer decides. The
// measurement asserts the subsystem's contract, not just its throughput:
// zero event loss, per-color FIFO across the disk boundary, the
// in-memory bound never exceeded, and a full drain after the burst. All
// work colors hash to core 0 (the Libasync placement skew). (The
// spill-disk-latency fault charges extra cycles per append and per
// reload batch — a deterministic model of a slow spill disk.)
const (
	spillAppendCycles  = 300    // charged per spilled record (batched append)
	reloadBatchCycles  = 2_000  // fixed cost per reload batch
	reloadRecCycles    = 150    // plus per reloaded record
	spillRestartCycles = 25_000 // fixed cost of a crash + recovery reopen
	overloadQuickDiv   = 4      // burst-length divisor under -quick
)

// DefaultOverloadParams returns the overload workload's defaults: a
// 1024-event bound, 8 skewed colors, and a 100-tick burst of 160
// events per 100k-cycle tick (2x the 8-core service rate).
func DefaultOverloadParams() OverloadParams {
	return OverloadParams{
		Bound:    1024,
		Colors:   8,
		Tick:     100_000,
		PerTick:  160,
		Ticks:    100,
		WorkCost: 10_000,
		ProdCost: 5_000,
	}
}

func (s *Spec) overloadParams() OverloadParams {
	var o OverloadParams
	if s.Sim.Overload != nil {
		o = *s.Sim.Overload
	}
	d := DefaultOverloadParams()
	return OverloadParams{
		Bound:    cmp.Or(o.Bound, d.Bound),
		Colors:   cmp.Or(o.Colors, d.Colors),
		Tick:     cmp.Or(o.Tick, d.Tick),
		PerTick:  cmp.Or(o.PerTick, d.PerTick),
		Ticks:    cmp.Or(o.Ticks, d.Ticks),
		WorkCost: cmp.Or(o.WorkCost, d.WorkCost),
		ProdCost: cmp.Or(o.ProdCost, d.ProdCost),
	}
}

// overloadState is the overload workload: the admission layer's host in
// virtual time (single-threaded, so the layer's locks never contend) and
// the audit of what the layer promises.
type overloadState struct {
	layer     *admission.Layer[*sim.Ctx]
	faults    *simFaults
	last      map[equeue.Color]int // last executed sequence per color (FIFO check)
	maxInMem  int64
	produced  int
	consumed  int
	restarted bool
	recovered int // records the post-crash recovery rebuilt
	err       error
}

func (st *overloadState) Stopped() bool { return false }

// Deliver charges a reload batch and posts its records back as work.
func (st *overloadState) Deliver(ctx *sim.Ctx, color equeue.Color, recs []spillq.Record) {
	ctx.Charge(reloadBatchCycles + st.faults.spillExtra + int64(len(recs))*reloadRecCycles)
	st.noteInMem()
	for _, rec := range recs {
		seq := int(binary.LittleEndian.Uint64(rec.Payload))
		ctx.Post(sim.Ev{Handler: equeue.HandlerID(rec.Handler), Color: color, Cost: rec.Cost, Data: seq})
	}
}

func (st *overloadState) Lost(n int64) { st.fail("reload lost %d records", n) }

// noteInMem tracks the in-memory peak the bound SLO checks.
func (st *overloadState) noteInMem() {
	st.maxInMem = max(st.maxInMem, st.layer.Stats().Queued)
}

func (st *overloadState) fail(format string, args ...any) {
	if st.err == nil {
		st.err = fmt.Errorf(format, args...)
	}
}

// overloadStoreOptions picks the store configuration for a run: plain
// ephemeral segments normally; SyncAlways + recovery when the
// spill-crash-restart fault is armed, since a crashed store can only be
// audited if every append was durable when it died.
func overloadStoreOptions(faults simFaults) spillq.Options {
	if faults.restartAt > 0 {
		return spillq.Options{Sync: spillq.SyncAlways, Recover: true}
	}
	return spillq.Options{}
}

// crashRestart models a process crash at the spill boundary: the live
// store is abandoned exactly as a killed process would leave it — no
// Close, no final sync beyond what SyncAlways already forced — and a
// fresh store recovers the directory: every record the old one holds
// must come back, per color, before the run continues on the new one.
func (st *overloadState) crashRestart(ctx *sim.Ctx, colors []equeue.Color) {
	st.restarted = true
	old := st.layer.Store()
	opts := overloadStoreOptions(*st.faults)
	opts.OnRecover = func(spillq.Record) { st.recovered++ }
	fresh, err := spillq.Open(old.Dir(), opts)
	if err != nil {
		st.fail("crash-restart reopen: %v", err)
		return
	}
	st.layer.SetStore(fresh)
	for _, c := range colors {
		if got, want := fresh.Depth(uint64(c)), old.Depth(uint64(c)); got != want {
			st.fail("crash-restart: color %d recovered depth %d, the crashed store held %d", c, got, want)
		}
	}
	if int64(st.recovered) != old.TotalDepth() {
		st.fail("crash-restart: recovered %d records, the crashed store held %d", st.recovered, old.TotalDepth())
	}
	ctx.Charge(spillRestartCycles)
}

// buildOverload wires the skewed open-loop producer to the admission
// layer over the spill store.
func buildOverload(p OverloadParams, r *simRun, store *spillq.Store) (*sim.Engine, *overloadState, error) {
	faults := &r.faults
	ticks := p.Ticks
	if r.opt.Quick {
		ticks = p.Ticks / overloadQuickDiv
	}
	ncores := r.opt.Topology.NumCores()
	eng, err := r.engine()
	if err != nil {
		return nil, nil, err
	}
	st := &overloadState{faults: faults, last: make(map[equeue.Color]int)}
	st.layer = admission.New[*sim.Ctx](st, admission.Config{
		Policy:   admission.Spill,
		MaxTotal: int64(p.Bound),
		Store:    store,
	})

	var work, produce equeue.HandlerID

	// workColor skews the load: half the events land on one color, the
	// rest round-robin — and every color is ≡ 0 (mod ncores), homing on
	// core 0 under the simulator's paper placement.
	workColor := func(seq int) equeue.Color {
		slot := 0
		if seq%2 == 1 {
			slot = 1 + (seq/2)%(p.Colors-1)
		}
		return equeue.Color((slot + 1) * ncores)
	}
	colors := make([]equeue.Color, p.Colors)
	for i := range colors {
		colors[i] = equeue.Color((i + 1) * ncores)
	}

	postOne := func(ctx *sim.Ctx, seq int) {
		c := workColor(seq)
		st.produced++
		route, err := st.layer.Admit(nil, c, false)
		if err != nil {
			st.fail("admit: %v", err)
			return
		}
		if route == admission.Memory {
			st.noteInMem()
			ctx.Post(sim.Ev{Handler: work, Color: c, Cost: p.WorkCost, Data: seq})
			return
		}
		rec := spillq.Record{
			Handler: int32(work),
			Color:   uint64(c),
			Cost:    p.WorkCost,
			Penalty: 1,
			Tag:     1,
			Payload: binary.LittleEndian.AppendUint64(nil, uint64(seq)),
		}
		ctx.Charge(spillAppendCycles + faults.spillExtra)
		if _, err := st.layer.Append(ctx, c, rec); err != nil {
			st.fail("spill append: %v", err)
			return
		}
		if faults.restartAt > 0 && !st.restarted && st.layer.Stats().Spilled >= int64(faults.restartAt) {
			st.crashRestart(ctx, colors)
		}
	}

	work = eng.Register("overload-work", func(ctx *sim.Ctx, ev *equeue.Event) {
		faults.slowHandler(ctx)
		c := ev.Color
		// FIFO across the spill boundary: each color's sequence numbers
		// (strictly increasing per color at posting time) must arrive in
		// posting order — memory head before disk tail.
		last, ok := st.last[c]
		if seq := ev.Data.(int); ok && seq <= last {
			st.fail("color %d executed seq %d after %d (FIFO broken)", c, seq, last)
		} else {
			st.last[c] = seq
		}
		st.consumed++
		st.layer.Executed(ctx, c)
	}, sim.HandlerOpts{})

	ticksDone := 0
	seq := 0
	produce = eng.Register("overload-produce", func(ctx *sim.Ctx, ev *equeue.Event) {
		for i := 0; i < p.PerTick; i++ {
			postOne(ctx, seq)
			seq++
		}
		ticksDone++
		if ticksDone < ticks {
			ctx.PostAfter(p.Tick, sim.Ev{Handler: produce, Color: ev.Color, Cost: p.ProdCost})
		}
	}, sim.HandlerOpts{DefaultCost: p.ProdCost})

	eng.Seed(func(ctx *sim.Ctx) {
		// The producer homes on core 1 (color ≡ 1 mod ncores), away
		// from the work colors' core-0 pileup: an open-loop source must
		// not wait its turn in the queue rotation it is flooding, or
		// the offered load self-throttles below the bound.
		ctx.Post(sim.Ev{Handler: produce, Color: equeue.Color((p.Colors+1)*ncores + 1), Cost: p.ProdCost})
	})
	return eng, st, nil
}

// measureOverload runs the overload scenario, then drives the engine to
// full quiescence and enforces the subsystem's contract. The returned
// metrics cover the standard measurement window; the assertions cover
// the whole run.
func measureOverload(r *simRun) (*metrics.Run, *overloadState, error) {
	p := r.spec.overloadParams()
	dir, err := os.MkdirTemp("", "melybench-overload-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	store, err := spillq.Open(dir, overloadStoreOptions(r.faults))
	if err != nil {
		return nil, nil, err
	}

	eng, st, err := buildOverload(p, r, store)
	if err != nil {
		store.Close()
		return nil, nil, err
	}
	// Close whatever store the run ends on: a crash-restart fault swaps
	// the layer's store mid-run, abandoning the original (the crash), so
	// closing the captured handle would touch a recovered-out-from-under
	// store.
	defer func() { st.layer.Store().Close() }()
	run := sim.Measure(eng, r.warm, r.win)

	// Drain to completion: the producer has a finite burst, so the
	// engine quiesces once every spilled event has reloaded and
	// executed. The gate scenarios always declare the drain phase; it
	// is spelled out in the spec rather than implied.
	if r.drain {
		const drainHorizon = int64(1) << 40
		eng.RunUntil(drainHorizon)
	}

	if st.err != nil {
		return nil, nil, fmt.Errorf("overload invariant: %w", st.err)
	}
	ls := st.layer.Stats()
	if r.drain {
		if st.consumed != st.produced {
			return nil, nil, fmt.Errorf("overload lost events: produced %d, consumed %d (spilled %d, reloaded %d)",
				st.produced, st.consumed, ls.Spilled, ls.Reloaded)
		}
		if ls.Reloaded != ls.Spilled {
			return nil, nil, fmt.Errorf("overload spill imbalance: spilled %d, reloaded %d", ls.Spilled, ls.Reloaded)
		}
		if ls.Spilled == 0 {
			return nil, nil, fmt.Errorf("overload never spilled: the producer no longer exceeds the bound")
		}
		if err := st.layer.CheckEmpty(); err != nil {
			return nil, nil, fmt.Errorf("overload did not drain: %w", err)
		}
	}
	if st.maxInMem > int64(p.Bound) {
		return nil, nil, fmt.Errorf("overload bound violated: %d in memory, bound %d", st.maxInMem, p.Bound)
	}
	if r.faults.restartAt > 0 && !st.restarted {
		return nil, nil, fmt.Errorf("overload crash-restart never fired: only %d records spilled, fault armed at %d",
			ls.Spilled, r.faults.restartAt)
	}
	run.Payload["overload_produced"] = float64(st.produced)
	run.Payload["overload_spilled"] = float64(ls.Spilled)
	run.Payload["overload_reloaded"] = float64(ls.Reloaded)
	run.Payload["overload_max_inmem"] = float64(st.maxInMem)
	if st.restarted {
		run.Payload["overload_recovered"] = float64(st.recovered)
	}
	return run, st, nil
}
