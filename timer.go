package mely

import (
	"fmt"
	"math"
	"time"

	"github.com/melyruntime/mely/internal/admission"
	"github.com/melyruntime/mely/internal/equeue"
	"github.com/melyruntime/mely/internal/obs"
	"github.com/melyruntime/mely/internal/timerwheel"
)

// Timer is the handle of a timer armed with PostAfter, PostAt, or
// PostEvery. Cancel and Reset are safe from any goroutine and race-safe
// against a concurrent expiry: exactly one of Cancel-returning-true and
// the firing happens.
//
// Timers are color-serialized, not color-affine: the entry lives on the
// timing wheel of the core that owned its color when it was armed, and
// stays there — a steal or a lease re-home moves the color's queue,
// never its timers. That core's worker harvests it and the fired event
// is delivered like any Post, to whoever owns the color then, so the
// expiry handler runs under the full single-color serialization
// guarantee wherever the wheel is. The price: a timer whose color was
// stolen away does not fire on the thief while the arming core sits in
// a long handler; it fires when that core next harvests (between every
// two events) and its event crosses cores.
type Timer struct {
	r *Runtime
	// e is the wheel's entry, embedded so that arming allocates once. The
	// wheel links it by address: a Timer is never copied.
	e timerwheel.Entry
}

// Cancel stops the timer. It returns true when a scheduled firing was
// averted: for a one-shot timer that is an exact-once guarantee — the
// handler will never run — while a periodic timer caught mid-expiry
// still delivers the in-flight occurrence but none after it (and
// Cancel still returns true). False means the timer had already fired
// (or was already canceled) and nothing changed.
func (t *Timer) Cancel() bool {
	if !t.e.Cancel() {
		return false
	}
	t.r.timersCanceled.Add(1)
	return true
}

// Reset reschedules a still-armed timer to fire d from now (a periodic
// timer keeps its period from the new deadline). It returns false — and
// reschedules nothing — when the timer already fired, is firing, or was
// canceled. On false, a one-shot timer is spent (or canceled): re-arm
// with a fresh PostAfter if another firing is wanted. A periodic timer
// returning false needs nothing: unless it was canceled it is mid-
// firing and re-arms itself — arming a replacement would run two
// series. This is the cheap keep-alive path: resetting an
// idle-connection timeout on every request is one O(1) wheel operation,
// no allocation, and no wake-up: only a deadline moved ahead of the
// wheel's earliest cuts its worker's park short.
func (t *Timer) Reset(d time.Duration) bool {
	if d < 0 {
		d = 0
	}
	ok, earlier := t.e.Reschedule(t.r.now() + d.Nanoseconds())
	if w := t.e.CurrentWheel(); earlier && w != nil { // no wheel: firing already
		t.r.cores[w.Owner].unpark()
	}
	return ok
}

// Fired reports whether a one-shot timer has delivered its event (it
// keeps reporting false for canceled timers and for periodic timers,
// which never retire).
func (t *Timer) Fired() bool { return t.e.State() == timerwheel.StateFired }

// PostAfter arms a one-shot timer: after at least d, handler h is
// posted with the given color and data, exactly as if Post had been
// called at the deadline — same serialization, same lease routing, same
// Stats accounting — with firing resolution bounded by the wheels'
// 1ms tick. It is the runtime-native replacement for
// time.AfterFunc + Post: no goroutine per timer, no allocation per
// firing, and the expiry handler is color-serialized with every other
// event of that color. After shutdown it fails with ErrStopped.
func (r *Runtime) PostAfter(h Handler, color Color, d time.Duration, data any) (*Timer, error) {
	return r.postTimer(h, color, r.afterDeadline(d), 0, data, 0, 0)
}

// PostAt arms a one-shot timer for an absolute wall-clock deadline
// (clamped to now when already past).
func (r *Runtime) PostAt(h Handler, color Color, at time.Time, data any) (*Timer, error) {
	return r.postTimer(h, color, r.afterDeadline(time.Until(at)), 0, data, 0, 0)
}

// PostEvery arms a periodic timer firing every interval (first firing
// one interval from now). Occurrences missed while the system is
// saturated or suspended are skipped, not bursted: the next deadline
// after a late firing is pulled forward to now+every. The interval must
// be positive.
func (r *Runtime) PostEvery(h Handler, color Color, every time.Duration, data any) (*Timer, error) {
	if every <= 0 {
		return nil, fmt.Errorf("mely: non-positive PostEvery interval %v", every)
	}
	return r.postTimer(h, color, r.afterDeadline(every), every.Nanoseconds(), data, 0, 0)
}

// PostAfter arms a one-shot timer from inside a handler (see
// Runtime.PostAfter). The fired event inherits the arming event's
// causal lineage: with tracing on, the firing appears as a child hop of
// this handler's span rather than founding a new trace.
func (ctx *Ctx) PostAfter(h Handler, color Color, d time.Duration, data any) (*Timer, error) {
	return ctx.r.postTimer(h, color, ctx.r.afterDeadline(d), 0, data, ctx.ev.TraceID, ctx.ev.SpanID)
}

// now is the runtime's monotonic timer clock: nanoseconds since the
// runtime was built. One epoch for every core's wheel, so a periodic
// timer re-armed on another wheel keeps its deadlines.
func (r *Runtime) now() int64 { return time.Since(r.epoch).Nanoseconds() }

func (r *Runtime) afterDeadline(d time.Duration) int64 {
	if d < 0 {
		d = 0
	}
	return r.now() + d.Nanoseconds()
}

func (r *Runtime) postTimer(h Handler, color Color, when, period int64, data any, ptrace, pspan uint64) (*Timer, error) {
	if r.stopped.Load() {
		return nil, ErrStopped
	}
	entry, err := lookupHandler(*r.handlers.Load(), h)
	if err != nil {
		return nil, err
	}
	t := &Timer{r: r}
	t.e.Init(equeue.Color(color), int32(entry.id), data, when, period)
	t.e.TraceID, t.e.SpanID = ptrace, pspan
	r.armTimer(&t.e)
	return t, nil
}

// armTimer links an entry onto the wheel of its color's current owner,
// where it stays until it fires: fireTimer resolves ownership again. A
// periodic timer re-arms through here, so it follows its color lazily.
func (r *Runtime) armTimer(e *timerwheel.Entry) {
	c := r.cores[r.table.Owner(e.Color)]
	if c.wheel.Add(e) {
		// The wheel's earliest deadline moved up; a parked owner is
		// sleeping against the old bound.
		c.unpark()
	}
}

// harvestTimers expires the core's due timers and posts their events.
// It is the worker-loop hook: one atomic load when nothing is due.
// It reports how many timers fired.
func (r *Runtime) harvestTimers(c *rcore) int {
	nd := c.wheel.NextDue()
	if nd == math.MaxInt64 {
		return 0 // no timers anywhere: skip even the clock read
	}
	now := r.now()
	if nd > now {
		return 0
	}
	c.timerBuf = c.wheel.Advance(now, c.timerBuf[:0])
	for _, e := range c.timerBuf {
		r.fireTimer(c, e, now)
	}
	fired := len(c.timerBuf)
	for i := range c.timerBuf {
		c.timerBuf[i] = nil // release payload references promptly
	}
	return fired
}

// fireTimer turns one harvested entry into a posted event, delivered
// through the normal ownership lease path (enqueue) so the expiry
// handler is serialized with every other event of its color. Periodic
// entries re-arm on the color's current owner.
func (r *Runtime) fireTimer(c *rcore, e *timerwheel.Entry, now int64) {
	lag := now - e.When
	c.stats.timersFired.Add(1)
	c.stats.timerLagHist.Observe(&obs.TimerLagBounds, lag)

	// The handler id was validated at arm time and handlers never
	// unregister. The fired event inherits the arming span's lineage
	// (zeros when armed outside a handler, making the firing a trace
	// root).
	hs := *r.handlers.Load()
	ev := r.newEvent(c)
	r.stamp(ev, &c.ids, &hs[e.Handler], Color(e.Color), e.Data, e.TraceID, e.SpanID)
	if c.ring != nil {
		// The firing instant carries the fired event's ids: melytrace
		// treats it as the hop's enqueue timestamp for exact queue-delay
		// measurement.
		c.ring.AppendFlow(obs.KindTimerFire, now, lag, uint64(e.Color), 1, ev.TraceID, ev.SpanID, ev.ParentSpan)
	}
	// Timer firings are internal continuations: never rejected or
	// blocked, but a spilling color's FIFO discipline still routes the
	// event to the disk tail.
	if route, _ := r.routeFor(nil, ev.Color, false); route == admission.Disk {
		r.spill(c, ev)
		*ev = equeue.Event{}
		r.recycleEvent(c, ev)
	} else {
		r.pending.Add(1)
		r.enqueue(ev)
	}

	if e.Period > 0 {
		next := e.When + e.Period
		if next <= now {
			next = now + e.Period // skip missed occurrences, don't burst
		}
		if e.Rearm(next) {
			r.armTimer(e)
		}
	} else {
		e.FinishFire()
	}
}

// timerParkBound folds the wheel's next deadline into a park duration:
// sleep no longer than the next local expiry. Returns 0 when a timer is
// already due (don't park at all).
func (r *Runtime) timerParkBound(c *rcore, d time.Duration) time.Duration {
	nd := c.wheel.NextDue()
	if nd == math.MaxInt64 {
		return d
	}
	until := nd - r.now()
	if until <= 0 {
		return 0
	}
	if time.Duration(until) < d {
		return time.Duration(until)
	}
	return d
}
