package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"github.com/melyruntime/mely"
)

// timers_churn: one producer arms a wave of one-shot PostAfter timers,
// cancels every other one at once (the idle-reaper shape: most timers
// armed by a server are cancelled, not fired), and blocks until the rest
// have fired. The wave is large enough that arming, not the 16 ms
// deadline horizon, bounds throughput.
const (
	timerWave    = 65536
	timerColors  = 1024
	timerMinWait = time.Millisecond
	timerSpread  = 15 * time.Millisecond
	timerSample  = 64 // one firing in timerSample records its lag
)

// Timer slot states. Exactly one of "fired" and "Cancel returned true"
// may happen to a slot; the CAS on its state is how both sides check.
const (
	slotArmed int32 = iota
	slotFired
	slotCancelled
)

type timersWL struct {
	cfg    runCfg
	rt     *mely.Runtime
	h      mely.Handler
	colors []mely.Color
	boxed  []any
	wait   []time.Duration // seeded, per slot
	// deadline[i] is the earliest the runtime may fire slot i: the
	// clock read just before PostAfter plus the requested wait.
	deadline []int64
	state    []atomic.Int32
	t0       time.Time

	fired  atomic.Int64 // firings of the current wave
	target atomic.Int64 // firings the producer waits for; -1 while arming
	drain  chan struct{}

	core  []perCore
	lat   []latBuf
	waves int64
}

func newTimersWL(cfg runCfg) *timersWL { return &timersWL{cfg: cfg} }

func (w *timersWL) runtime() *mely.Runtime { return w.rt }

func (w *timersWL) setup() error {
	rng := rand.New(rand.NewSource(w.cfg.seed))
	rt, err := mely.New(w.cfg.melyConfig())
	if err != nil {
		return err
	}
	w.rt = rt
	w.colors = make([]mely.Color, timerColors)
	for i := range w.colors {
		w.colors[i] = mely.Color(rng.Uint64() | 2)
	}
	w.boxed = make([]any, timerWave)
	w.wait = make([]time.Duration, timerWave)
	for i := range w.boxed {
		w.boxed[i] = int64(i)
		w.wait[i] = timerMinWait + time.Duration(rng.Int63n(int64(timerSpread)))
	}
	w.deadline = make([]int64, timerWave)
	w.state = make([]atomic.Int32, timerWave)
	w.drain = make(chan struct{}, 1)
	w.core = make([]perCore, cores)
	w.lat = newLatBufs(cores)
	w.t0 = time.Now()
	w.h = rt.Register("timers.fire", w.fire)
	return rt.Start()
}

func (w *timersWL) fire(ctx *mely.Ctx) {
	now := time.Since(w.t0).Nanoseconds()
	i := int(ctx.Data().(int64))
	pc := &w.core[ctx.CoreID()]
	lag := now - w.deadline[i]
	// Guards: never before the deadline, never twice, never after
	// Cancel returned true.
	if lag < 0 || !w.state[i].CompareAndSwap(slotArmed, slotFired) {
		pc.violation++
	}
	if i%timerSample == 0 {
		w.lat[ctx.CoreID()].add(lag)
		if tr := w.cfg.tr; tr != nil {
			b := tr.core(ctx.CoreID())
			entry := tr.now()
			b.add(spQueueWait, 0, uint64(i), entry-lag, entry)
			b.add(spExec, 0, uint64(i), entry, tr.now())
		}
	}
	if w.fired.Add(1) == w.target.Load() {
		select {
		case w.drain <- struct{}{}:
		default:
		}
	}
}

func (w *timersWL) run(d time.Duration) counts { return runWaves(d, w.wave) }

func (w *timersWL) wave() counts {
	var c counts
	w.fired.Store(0)
	w.target.Store(-1)
	select {
	case <-w.drain: // a token left by a wave that needed no wait
	default:
	}
	for i := range w.state {
		w.state[i].Store(slotArmed)
	}
	tr := w.cfg.tr
	var waveStart int64
	var waveSpan uint64
	if tr != nil {
		waveStart, waveSpan = tr.now(), tr.client(0).newID()
	}
	var cancelled int64
	for i := 0; i < timerWave; i++ {
		c.attempted++
		traced := tr != nil && i%timerSample < 2 // an armed-only and an armed-and-cancelled slot per timerSample
		var ts int64
		if traced {
			ts = tr.now()
		}
		w.deadline[i] = time.Since(w.t0).Nanoseconds() + w.wait[i].Nanoseconds()
		t, err := w.rt.PostAfter(w.h, w.colors[i%timerColors], w.wait[i], w.boxed[i])
		if err != nil {
			c.failed++
			w.state[i].Store(slotFired) // never armed: nothing to wait for
			continue
		}
		if traced {
			tr.client(0).add(spTimerArm, waveSpan, uint64(i), ts, tr.now())
		}
		if i%2 == 0 {
			continue
		}
		var cs int64
		if traced {
			cs = tr.now()
		}
		ok := t.Cancel()
		if traced {
			tr.client(0).add(spTimerCancel, waveSpan, uint64(i), cs, tr.now())
		}
		if ok {
			cancelled++
			if !w.state[i].CompareAndSwap(slotArmed, slotCancelled) {
				c.failed++ // it fired, yet Cancel claimed to have averted the firing
			}
		}
	}
	// Fired + cancelled = armed: wait for every timer Cancel did not
	// avert. The handler that brings fired up to target signals; if that
	// happened before target was published, the check below sees it.
	want := c.attempted - c.failed - cancelled
	w.target.Store(want)
	if w.fired.Load() != want {
		select {
		case <-w.drain:
		case <-time.After(5 * time.Second):
			c.failed += want - w.fired.Load() // lost timers
		}
	}
	if tr != nil {
		tr.client(0).put(waveSpan, spWave, 0, uint64(w.waves), waveStart, tr.now())
	}
	w.waves++
	c.ops = c.attempted - c.failed
	return c
}

func (w *timersWL) drainSamples(dst []int64) []int64 { return drainLat(w.lat, dst) }

func (w *timersWL) layerMetrics(metrics, int64, time.Duration) {}

func (w *timersWL) finish(st mely.Stats) []string {
	var out []string
	var viol int64
	for i := range w.core {
		viol += w.core[i].violation
	}
	if viol > 0 {
		out = append(out, fmt.Sprintf("%d timers fired early, twice, or after Cancel returned true", viol))
	}
	for i := range w.state {
		if w.state[i].Load() == slotArmed {
			out = append(out, fmt.Sprintf("slot %d neither fired nor was cancelled", i))
			break
		}
	}
	tot := st.Total()
	if armed := w.waves * timerWave; tot.TimersFired+st.TimersCanceled != armed {
		out = append(out, fmt.Sprintf("runtime counted fired %d + cancelled %d, armed %d", tot.TimersFired, st.TimersCanceled, armed))
	}
	return out
}

func (w *timersWL) teardown() {
	if w.rt != nil {
		w.rt.Stop()
	}
}
