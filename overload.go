package mely

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"strings"

	"github.com/melyruntime/mely/internal/admission"
	"github.com/melyruntime/mely/internal/equeue"
	"github.com/melyruntime/mely/internal/obs"
	"github.com/melyruntime/mely/internal/spillq"
)

// ErrOverloaded is returned by Post, PostContext, and PostBatch when a
// configured queue bound (Config.MaxQueuedEvents /
// Config.MaxQueuedPerColor) is exceeded under OverloadReject. Test with
// errors.Is; producers typically shed the request (respond 503, drop
// the sample) rather than retry immediately — the bound exists because
// the runtime is already behind.
var ErrOverloaded = admission.ErrOverloaded

// OverloadPolicy selects what posting does once a queue bound is hit.
// It only matters when Config.MaxQueuedEvents or MaxQueuedPerColor is
// set; without bounds queues grow without limit (the pre-overload
// behavior).
//
// The decision table:
//
//	policy          external Post            handler/timer posts
//	--------------  -----------------------  ----------------------
//	OverloadReject  ErrOverloaded            admitted (never fail)
//	OverloadBlock   waits (ctx-cancelable)   admitted (never block)
//	OverloadSpill   tail spills to disk      tail spills to disk
//
// External posts are Post/PostContext/PostBatch from outside a
// handler; posts from handler context (Ctx.Post and friends) and timer
// firings are internal continuations — failing or blocking them would
// deadlock the workers, so under Reject and Block they are always
// admitted (the bound is then enforced at the edge, which is where
// load enters). OverloadSpill applies to every post: a saturated
// color's tail moves to disk segments (internal/spillq) and reloads in
// FIFO order as the color drains below its low-water mark, so memory
// stays bounded no matter who posts.
type OverloadPolicy int

const (
	// OverloadReject fails external posts with ErrOverloaded once a
	// bound is hit (the default when bounds are configured).
	OverloadReject OverloadPolicy = iota
	// OverloadBlock makes external posts wait until the queues drain
	// below the bound; PostContext waits are cancelable. Runtime stop
	// releases every waiter with ErrStopped.
	OverloadBlock
	// OverloadSpill moves saturated colors' queue tails to disk
	// (Config.SpillDir) and reloads them as the colors drain: posting
	// never fails and in-memory queues stay within the bound.
	OverloadSpill
)

func (p OverloadPolicy) String() string {
	switch p {
	case OverloadReject:
		return "reject"
	case OverloadBlock:
		return "block"
	case OverloadSpill:
		return "spill"
	default:
		return fmt.Sprintf("OverloadPolicy(%d)", int(p))
	}
}

// ParseOverloadPolicy parses an overload policy name
// (reject|block|spill, as String prints them; "" is OverloadReject).
func ParseOverloadPolicy(s string) (OverloadPolicy, error) {
	for p := OverloadReject; p <= OverloadSpill; p++ {
		if s == "" || strings.EqualFold(s, p.String()) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("mely: unknown overload policy %q (reject|block|spill)", s)
}

// SpillSyncPolicy selects when spilled records reach stable storage
// (Config.SpillSync): the loss-on-crash vs append-throughput dial of
// the spill store. Irrelevant without Config.SpillRecover in the sense
// that a non-recovering runtime deletes its segments anyway — but the
// syncs still happen as configured, so measure with the policy you
// deploy.
type SpillSyncPolicy int

// The values are the store's (spillq.SyncPolicy).
const (
	// SpillSyncNone (the default) syncs only when a segment fills and
	// seals: a crash can lose each spilling color's open tail, up to
	// one segment (256 KiB) of records per color.
	SpillSyncNone = SpillSyncPolicy(spillq.SyncNone)
	// SpillSyncInterval additionally syncs the open tail at most once
	// per 100 ms: a crash loses at most one interval's appends per
	// color.
	SpillSyncInterval = SpillSyncPolicy(spillq.SyncInterval)
	// SpillSyncAlways syncs every spilled batch before the append
	// returns: zero loss window — a record accepted onto disk survives
	// any crash — at a large throughput cost (one msync per append;
	// see BenchmarkSpillAppend and the README's tuning table).
	SpillSyncAlways = SpillSyncPolicy(spillq.SyncAlways)
)

func (p SpillSyncPolicy) String() string { return spillq.SyncPolicy(p).String() }

// ParseSpillSyncPolicy parses a spill sync policy name
// (none|interval|always, as String prints them; "" is SpillSyncNone).
func ParseSpillSyncPolicy(s string) (SpillSyncPolicy, error) {
	for p := SpillSyncNone; p <= SpillSyncAlways; p++ {
		if s == "" || strings.EqualFold(s, p.String()) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("mely: unknown spill sync policy %q (none|interval|always)", s)
}

// PostContext is Post with cancellation: under OverloadBlock a bounded
// runtime makes posters wait for queue space, and ctx bounds that wait.
// Under every other configuration it behaves exactly like Post.
func (r *Runtime) PostContext(ctx context.Context, h Handler, color Color, data any) error {
	return r.post(ctx, nil, h, color, data, true)
}

// PostEdge posts an event that is never rejected or blocked by an
// overload bound (a spilling color's disk-tail discipline still
// applies). It is the posting surface for edge components that
// implement their own backpressure: the contract is that the caller
// consults Saturated before producing more work for a color and pauses
// its source — netpoll pauses a saturated connection's read readiness —
// so its posts are the already-harvested remainder that failing or
// blocking would only lose or deadlock. Everything else should use
// Post, which the bounds actually govern.
func (r *Runtime) PostEdge(h Handler, color Color, data any) error {
	return r.post(nil, nil, h, color, data, false)
}

// PostBatchEdge is PostEdge's batch form (see PostBatch for the
// delivery semantics).
func (r *Runtime) PostBatchEdge(batch []BatchEvent) error {
	return r.postBatch(batch, nil, false)
}

// Bounded reports whether the runtime enforces overload bounds
// (Config.MaxQueuedEvents / MaxQueuedPerColor). Edge components use it
// to decide whether the Saturated-and-pause protocol is worth checking
// per unit of harvested work.
func (r *Runtime) Bounded() bool { return r.adm != nil }

// Saturated reports whether posting one more external event under
// color would currently hit a configured bound (always false on an
// unbounded runtime). Edge components use it for backpressure:
// netpoll pauses a connection's read readiness while its data color is
// saturated and resumes when the color drains, pushing the overload
// into the peer's TCP window instead of the runtime's memory.
func (r *Runtime) Saturated(color Color) bool {
	return r.adm != nil && r.adm.Saturated(equeue.Color(color))
}

// overload is a bounded runtime's admission layer (internal/admission,
// which the simulator's overload workload hosts as well) with what only
// the runtime keeps beside it: ownership of the store's directory and
// the spill-depth histogram.
type overload struct {
	*admission.Layer[*rcore]
	ownDir    bool
	depthHist obs.Counts
}

// newAdmission builds the overload layer for a bounded Config (it is
// not constructed at all when no bound is set). For OverloadSpill it
// opens the spill store, defaulting SpillDir to a fresh private temp
// directory; an explicit SpillDir is used as-is (one runtime per
// directory) and survives as a directory across runs — only the
// runtime's segment files are cleaned up.
func newAdmission(r *Runtime, cfg Config) (*overload, error) {
	a := &overload{}
	lc := admission.Config{
		Policy:      admission.Policy(cfg.OverloadPolicy),
		MaxTotal:    int64(cfg.MaxQueuedEvents),
		MaxPerColor: int64(cfg.MaxQueuedPerColor),
	}
	// Recovery: the store replays surviving record headers during Open
	// (per-color FIFO order); count them per color here, then adopt each
	// backlog below — after the layer is wired — so the colors start out
	// spilling with the right disk depth, and reloading begins at once.
	var backlogs map[equeue.Color]int64
	if cfg.OverloadPolicy == OverloadSpill {
		dir := cfg.SpillDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "mely-spill-")
			if err != nil {
				return nil, fmt.Errorf("mely: spill dir: %w", err)
			}
			dir = tmp
			a.ownDir = true
		}
		// Segment size and sync interval are the store's defaults
		// (256 KiB, 100 ms).
		opts := spillq.Options{
			Sync:    spillq.SyncPolicy(cfg.SpillSync),
			Recover: cfg.SpillRecover,
		}
		if cfg.SpillRecover {
			backlogs = make(map[equeue.Color]int64)
			opts.OnRecover = func(rec spillq.Record) { backlogs[equeue.Color(rec.Color)]++ }
		}
		store, err := spillq.Open(dir, opts)
		if err != nil {
			if a.ownDir {
				os.RemoveAll(dir)
			}
			return nil, fmt.Errorf("mely: %w", err)
		}
		lc.Store = store
	}
	a.Layer = admission.New[*rcore]((*spillHost)(r), lc)
	for color, n := range backlogs {
		// The recovered records count as pending work.
		r.pending.Add(n)
		a.Recovered(nil, color, n)
	}
	return a, nil
}

// close shuts the spill store down and releases blocked posters.
// Idempotent; called from Stop after the workers have exited.
func (a *overload) close() {
	a.Wake()
	if s := a.Store(); s != nil {
		_ = s.Close() // Stop has no error to report it through
		if a.ownDir {
			os.RemoveAll(s.Dir())
		}
	}
}

// spillHost is the Runtime as the admission layer's host
// (admission.Host): a reloaded batch becomes pooled events enqueued
// through the ownership lease path — so a reloaded tail follows its
// color wherever a steal moved it — and a lost tail leaves Drain's count.
type spillHost Runtime

func (h *spillHost) Stopped() bool { return h.stopped.Load() }

// Deliver builds the reloaded events on c, the core whose worker is
// calling (nil when the caller is no worker).
func (h *spillHost) Deliver(c *rcore, color equeue.Color, recs []spillq.Record) {
	r := (*Runtime)(h)
	r.traceAux(obs.KindReload, 0, uint64(color), uint32(clampUint32(int64(len(recs)))))
	var lone idSource
	ids := r.idsOn(c, len(recs), &lone)
	for i := range recs {
		r.enqueue(r.eventFromRecord(c, ids, &recs[i]))
	}
}

func (h *spillHost) Lost(n int64) {
	if h.pending.Add(-n) == 0 && h.drainWaiters.Load() > 0 {
		h.drained.Open()
	}
}

// spill moves a stamped, disk-routed event onto its color's spill tail.
// ev stays the caller's — a stack value for a post, which therefore takes
// nothing from the pool — and only its fields are read. An unencodable
// payload or a store failure falls back to an in-memory delivery of a
// copy (counted in SpillErrors): overshooting the bound beats losing the
// event. c is the core whose worker is posting, nil when the poster is no
// worker.
func (r *Runtime) spill(c *rcore, ev *equeue.Event) {
	a := r.adm
	// Counted before the append: a reload may run the event before
	// Append returns.
	r.pending.Add(1)
	if tag, payload, ok := encodeSpillPayload(ev.Data); ok {
		// The record carries the span minted at post time to disk, so the
		// reloaded event is the SAME hop, not a new one, and melytrace
		// sees one span spanning the disk round-trip. The latency-sample
		// stamp stays behind (see eventFromRecord).
		depth, err := a.Append(c, ev.Color, spillq.Record{
			Handler:    int32(ev.Handler),
			Color:      uint64(ev.Color),
			Cost:       ev.Cost,
			Penalty:    ev.Penalty,
			Tag:        tag,
			Payload:    payload,
			TraceID:    ev.TraceID,
			SpanID:     ev.SpanID,
			ParentSpan: ev.ParentSpan,
		})
		if err == nil {
			a.depthHist.Observe(&obs.SpillDepthBounds, depth)
			r.traceAuxFlow(obs.KindSpill, 0, uint64(ev.Color), uint32(clampUint32(depth)), ev.TraceID, ev.SpanID, ev.ParentSpan)
			return
		}
	}
	a.ForceMemory(ev.Color)
	mem := r.newEvent(c)
	*mem = *ev
	r.enqueue(mem)
}

// eventFromRecord rebuilds a pooled event from a reloaded record. The
// latency sampler re-stamps here: a reloaded event's queue delay is
// measured from its reload, not its original post — the disk dwell is
// observable separately (SpilledEvents/SpilledNow), and folding it in
// would let one spill burst dominate the delay histogram for good.
func (r *Runtime) eventFromRecord(c *rcore, ids *idSource, rec *spillq.Record) *equeue.Event {
	ev := r.newEvent(c)
	*ev = equeue.Event{
		Handler:    equeue.HandlerID(rec.Handler),
		Color:      equeue.Color(rec.Color),
		Cost:       rec.Cost,
		Penalty:    rec.Penalty,
		Data:       decodeSpillPayload(rec.Tag, rec.Payload),
		TraceID:    rec.TraceID,
		SpanID:     rec.SpanID,
		ParentSpan: rec.ParentSpan,
	}
	if r.sampleTick(ids) {
		ev.PostNanos = r.now()
	}
	return ev
}

// Spill payload encoding: the compact tagged binary format for
// equeue.Event.Data. Only self-contained value kinds round-trip
// through disk; pointerful payloads cannot (a spilled pointer would
// dangle across the disk boundary in spirit — the memory it points to
// is exactly what spilling is supposed to release). Events of a
// spilling color with unencodable payloads are delivered in memory and
// counted in Stats.SpillErrors.
const (
	spillTagNil = iota
	spillTagBytes
	spillTagString
	spillTagInt64
	spillTagInt
	spillTagUint64
	spillTagBool
	spillTagFloat64
)

// encodeSpillPayload serializes a supported payload value.
func encodeSpillPayload(data any) (tag uint8, b []byte, ok bool) {
	switch v := data.(type) {
	case nil:
		return spillTagNil, nil, true
	case []byte:
		return spillTagBytes, v, true
	case string:
		return spillTagString, []byte(v), true
	case int64:
		return spillTagInt64, binary.LittleEndian.AppendUint64(nil, uint64(v)), true
	case int:
		return spillTagInt, binary.LittleEndian.AppendUint64(nil, uint64(v)), true
	case uint64:
		return spillTagUint64, binary.LittleEndian.AppendUint64(nil, v), true
	case bool:
		if v {
			return spillTagBool, []byte{1}, true
		}
		return spillTagBool, []byte{0}, true
	case float64:
		return spillTagFloat64, binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)), true
	default:
		return 0, nil, false
	}
}

// decodeSpillPayload is encodeSpillPayload's inverse.
func decodeSpillPayload(tag uint8, b []byte) any {
	switch tag {
	case spillTagBytes:
		return b
	case spillTagString:
		return string(b)
	case spillTagInt64:
		return int64(binary.LittleEndian.Uint64(b))
	case spillTagInt:
		return int(binary.LittleEndian.Uint64(b))
	case spillTagUint64:
		return binary.LittleEndian.Uint64(b)
	case spillTagBool:
		return b[0] != 0
	case spillTagFloat64:
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	default:
		return nil
	}
}
