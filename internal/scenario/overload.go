package scenario

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"os"

	"github.com/melyruntime/mely/internal/equeue"
	"github.com/melyruntime/mely/internal/metrics"
	"github.com/melyruntime/mely/internal/sim"
	"github.com/melyruntime/mely/internal/spillq"
)

// The overload workload reproduces the bounded-queue spill protocol of
// the real runtime (mely.OverloadSpill) on the deterministic simulated
// platform: an open-loop producer posts work at twice the whole
// machine's service rate, a MaxQueuedEvents-style bound caps the
// in-memory queues, and the overflow spills — through the real
// internal/spillq segment store, on real disk — reloading in FIFO
// order as the queues drain below the low-water mark. The measurement
// asserts the subsystem's contract, not just its throughput: zero
// event loss, per-color FIFO across the disk boundary, the in-memory
// bound never exceeded, and a full drain after the burst. All work
// colors hash to core 0 (the Libasync placement skew), so workstealing
// configurations additionally exercise "spilled colors stay stealable".
// (The spill-disk-latency fault charges extra cycles per append and per
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
		Bound:     1024,
		LowWater:  512,
		ReloadMax: 256,
		Colors:    8,
		Tick:      100_000,
		PerTick:   160,
		Ticks:     100,
		WorkCost:  10_000,
		ProdCost:  5_000,
	}
}

func (s *Spec) overloadParams() OverloadParams {
	var o OverloadParams
	if s.Sim.Overload != nil {
		o = *s.Sim.Overload
	}
	d := DefaultOverloadParams()
	p := OverloadParams{
		Bound:     cmp.Or(o.Bound, d.Bound),
		ReloadMax: cmp.Or(o.ReloadMax, d.ReloadMax),
		Colors:    cmp.Or(o.Colors, d.Colors),
		Tick:      cmp.Or(o.Tick, d.Tick),
		PerTick:   cmp.Or(o.PerTick, d.PerTick),
		Ticks:     cmp.Or(o.Ticks, d.Ticks),
		WorkCost:  cmp.Or(o.WorkCost, d.WorkCost),
		ProdCost:  cmp.Or(o.ProdCost, d.ProdCost),
	}
	p.LowWater = cmp.Or(o.LowWater, p.Bound/2)
	return p
}

// overloadColorState is one color's modeled admission state.
type overloadColorState struct {
	mem      int // in-memory events of this color
	disk     int // spilled records not yet reloaded
	last     int // last executed sequence (FIFO check); -1 initially
	spilling bool
	starved  bool
}

// overloadState is the modeled admission layer (the workload-level
// mirror of mely's admission struct, single-threaded in virtual time).
type overloadState struct {
	store     *spillq.Store
	colors    map[equeue.Color]*overloadColorState
	starved   []equeue.Color
	inMem     int
	maxInMem  int
	produced  int
	consumed  int
	spilled   int
	reloaded  int
	restartAt int // spill-crash-restart fault: crash at this spill count
	restarted bool
	recovered int // records the post-crash recovery rebuilt
	err       error
}

func (st *overloadState) color(c equeue.Color) *overloadColorState {
	cs := st.colors[c]
	if cs == nil {
		cs = &overloadColorState{last: -1}
		st.colors[c] = cs
	}
	return cs
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
// fresh store recovers the directory. The model then audits recovery
// against its own accounting: every record it believes is on disk must
// come back, per color, before the run continues on the new store.
func (st *overloadState) crashRestart(ctx *sim.Ctx) {
	st.restarted = true
	opts := overloadStoreOptions(simFaults{restartAt: st.restartAt})
	opts.OnRecover = func(spillq.Record) { st.recovered++ }
	fresh, err := spillq.Open(st.store.Dir(), opts)
	if err != nil {
		st.fail("crash-restart reopen: %v", err)
		return
	}
	st.store = fresh
	wantDisk := 0
	for c, cs := range st.colors {
		wantDisk += cs.disk
		if got := fresh.Depth(uint64(c)); got != cs.disk {
			st.fail("crash-restart: color %d recovered depth %d, model expects %d", c, got, cs.disk)
		}
	}
	if st.recovered != wantDisk {
		st.fail("crash-restart: recovered %d records, model expects %d on disk", st.recovered, wantDisk)
	}
	ctx.Charge(spillRestartCycles)
}

// buildOverload wires the skewed open-loop producer, the bounded
// admission model, and the spill store.
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
	st := &overloadState{
		store:     store,
		colors:    make(map[equeue.Color]*overloadColorState),
		restartAt: faults.restartAt,
	}

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

	var seqBuf [8]byte
	spillOne := func(ctx *sim.Ctx, c equeue.Color, seq int) {
		cs := st.color(c)
		cs.spilling = true
		binary.LittleEndian.PutUint64(seqBuf[:], uint64(seq))
		rec := spillq.Record{
			Handler: int32(work),
			Color:   uint64(c),
			Cost:    p.WorkCost,
			Penalty: 1,
			Tag:     1,
			Payload: append([]byte(nil), seqBuf[:]...),
		}
		if err := st.store.Append(uint64(c), []spillq.Record{rec}); err != nil {
			st.fail("spill append: %v", err)
			return
		}
		cs.disk++
		st.spilled++
		ctx.Charge(spillAppendCycles + faults.spillExtra)
		if st.restartAt > 0 && !st.restarted && st.spilled >= st.restartAt {
			st.crashRestart(ctx)
			if st.err != nil {
				return
			}
		}
		if cs.mem == 0 && !cs.starved {
			// Nothing of this color in memory: no execution will ever
			// trigger its reload, so queue it for starved pickup.
			cs.starved = true
			st.starved = append(st.starved, c)
		}
	}

	postOne := func(ctx *sim.Ctx, seq int) {
		c := workColor(seq)
		cs := st.color(c)
		st.produced++
		if cs.spilling || st.inMem >= p.Bound {
			spillOne(ctx, c, seq)
			return
		}
		cs.mem++
		st.inMem++
		if st.inMem > st.maxInMem {
			st.maxInMem = st.inMem
		}
		ctx.Post(sim.Ev{Handler: work, Color: c, Cost: p.WorkCost, Data: seq})
	}

	reloadColor := func(ctx *sim.Ctx, c equeue.Color) {
		cs := st.color(c)
		for cs.disk > 0 {
			max := p.Bound - st.inMem
			if max <= 0 {
				if cs.mem == 0 && !cs.starved {
					cs.starved = true
					st.starved = append(st.starved, c)
				}
				return
			}
			if max > p.ReloadMax {
				max = p.ReloadMax
			}
			recs, err := st.store.Reload(uint64(c), max, nil)
			if err != nil {
				st.fail("reload: %v", err)
				return
			}
			if len(recs) == 0 {
				st.fail("reload returned nothing with disk=%d for color %d", cs.disk, c)
				return
			}
			ctx.Charge(reloadBatchCycles + faults.spillExtra + int64(len(recs))*reloadRecCycles)
			for _, rec := range recs {
				seq := int(binary.LittleEndian.Uint64(rec.Payload))
				cs.mem++
				st.inMem++
				if st.inMem > st.maxInMem {
					st.maxInMem = st.inMem
				}
				ctx.Post(sim.Ev{Handler: equeue.HandlerID(rec.Handler), Color: c, Cost: rec.Cost, Data: seq})
			}
			cs.disk -= len(recs)
			st.reloaded += len(recs)
			if st.inMem > p.LowWater {
				break
			}
		}
		if cs.disk == 0 {
			cs.spilling = false
		}
	}

	work = eng.Register("overload-work", func(ctx *sim.Ctx, ev *equeue.Event) {
		faults.slowHandler(ctx)
		c := ev.Color
		cs := st.color(c)
		// FIFO across the spill boundary: each color's sequence numbers
		// (strictly increasing per color at posting time) must arrive in
		// posting order — memory head before disk tail.
		if seq := ev.Data.(int); seq <= cs.last {
			st.fail("color %d executed seq %d after %d (FIFO broken)", c, seq, cs.last)
		} else {
			cs.last = seq
		}
		cs.mem--
		st.inMem--
		st.consumed++
		if cs.spilling && cs.disk > 0 && st.inMem <= p.LowWater {
			reloadColor(ctx, c)
		} else if cs.spilling && cs.disk == 0 {
			cs.spilling = false
		}
		if cs.spilling && cs.disk > 0 && cs.mem == 0 && !cs.starved {
			// Memory empty above the low-water mark: nothing of this
			// color will execute again, so only starved pickup (below,
			// on other colors' completions) can revive its disk tail.
			cs.starved = true
			st.starved = append(st.starved, c)
		}
		// Starved pickup: any completion with headroom revives a color
		// whose whole backlog lives on disk.
		for len(st.starved) > 0 && st.inMem < p.Bound {
			sc := st.starved[0]
			st.starved = st.starved[1:]
			scs := st.color(sc)
			scs.starved = false
			if scs.disk > 0 {
				reloadColor(ctx, sc)
			}
		}
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
	// st.store mid-run, abandoning the original (the crash), so closing
	// the captured handle would touch a recovered-out-from-under store.
	defer func() { st.store.Close() }()
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
	if r.drain {
		if st.consumed != st.produced {
			return nil, nil, fmt.Errorf("overload lost events: produced %d, consumed %d (spilled %d, reloaded %d)",
				st.produced, st.consumed, st.spilled, st.reloaded)
		}
		if st.reloaded != st.spilled {
			return nil, nil, fmt.Errorf("overload spill imbalance: spilled %d, reloaded %d", st.spilled, st.reloaded)
		}
		if st.spilled == 0 {
			return nil, nil, fmt.Errorf("overload never spilled: the producer no longer exceeds the bound")
		}
		if st.inMem != 0 || st.store.TotalDepth() != 0 {
			return nil, nil, fmt.Errorf("overload did not drain: inMem=%d disk=%d", st.inMem, st.store.TotalDepth())
		}
	}
	if st.maxInMem > p.Bound {
		return nil, nil, fmt.Errorf("overload bound violated: %d in memory, bound %d", st.maxInMem, p.Bound)
	}
	if st.restartAt > 0 && !st.restarted {
		return nil, nil, fmt.Errorf("overload crash-restart never fired: only %d records spilled, fault armed at %d",
			st.spilled, st.restartAt)
	}
	run.Payload["overload_produced"] = float64(st.produced)
	run.Payload["overload_spilled"] = float64(st.spilled)
	run.Payload["overload_reloaded"] = float64(st.reloaded)
	run.Payload["overload_max_inmem"] = float64(st.maxInMem)
	if st.restarted {
		run.Payload["overload_recovered"] = float64(st.recovered)
	}
	return run, st, nil
}
