package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span names. Spans are recorded from this package's own files, around
// calls into public functions and at handler entry/exit; nothing inside
// the runtime is instrumented.
const (
	spWave = iota
	spRequest
	spPost
	spPostBatch
	spQueueWait
	spExec
	spTimerArm
	spTimerCancel
	spWrite
	spReadWait
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"wave", "client.request", "mely.post", "mely.postbatch", "mely.queue_wait",
	"handler.exec", "mely.timer_arm", "mely.timer_cancel", "client.write", "client.read_wait",
}

// spansPerBuf bounds one goroutine's span buffer. A full buffer drops
// further spans (counted) instead of growing: the traced pass must not
// allocate while it measures.
const spansPerBuf = 1 << 15

type span struct {
	name       uint8
	id, parent uint64
	op         uint64 // the op this span belongs to (wave number, request number, slot)
	start, end int64  // ns since tracer.t0
}

// spanBuf is one goroutine's preallocated span buffer. Ids are minted
// per buffer (buffer index in the high bits), so recording takes no
// atomic operation.
type spanBuf struct {
	spans   []span
	next    uint64
	dropped int64
	_       [64]byte
}

// newID mints a span id ahead of its span, for a root whose children
// are recorded before it ends.
func (b *spanBuf) newID() uint64 {
	b.next++
	return b.next
}

func (b *spanBuf) add(name uint8, parent, op uint64, start, end int64) uint64 {
	id := b.newID()
	b.put(id, name, parent, op, start, end)
	return id
}

func (b *spanBuf) put(id uint64, name uint8, parent, op uint64, start, end int64) {
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return
	}
	b.spans = append(b.spans, span{name: name, id: id, parent: parent, op: op, start: start, end: end})
}

// tracer holds the traced pass's buffers: index 0..1 for the producer
// or the two clients, 2.. for the worker cores (by Ctx.CoreID).
type tracer struct {
	t0   time.Time
	bufs []*spanBuf
}

const tracerClientBufs = 2

func newTracer(cores int) *tracer {
	t := &tracer{t0: time.Now()}
	for i := 0; i < tracerClientBufs+cores; i++ {
		t.bufs = append(t.bufs, &spanBuf{spans: make([]span, 0, spansPerBuf), next: uint64(i) << 48})
	}
	return t
}

// reset discards what the warm-up recorded.
func (t *tracer) reset() {
	for _, b := range t.bufs {
		b.spans, b.dropped = b.spans[:0], 0
	}
}

func (t *tracer) now() int64            { return time.Since(t.t0).Nanoseconds() }
func (t *tracer) client(i int) *spanBuf { return t.bufs[i] }
func (t *tracer) core(i int) *spanBuf   { return t.bufs[tracerClientBufs+i] }

// spanStat aggregates one span name: total is the summed duration, self
// the part of it no child span covers.
type spanStat struct {
	Count   int64   `json:"count"`
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"`
}

// summarize computes per-name totals and self times, and returns the
// durations of the mely.queue_wait spans (sorted) for the per-layer
// queue-wait percentiles.
func (t *tracer) summarize() (stats map[string]spanStat, queueWait []int64, dropped int64) {
	var all []span
	for _, b := range t.bufs {
		all = append(all, b.spans...)
		dropped += b.dropped
	}
	children := make(map[uint64][]span)
	for _, s := range all {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
		if s.name == spQueueWait {
			queueWait = append(queueWait, s.end-s.start)
		}
	}
	sort.Slice(queueWait, func(i, j int) bool { return queueWait[i] < queueWait[j] })
	var agg [numSpanNames]struct{ n, total, self int64 }
	for _, s := range all {
		a := &agg[s.name]
		a.n++
		a.total += s.end - s.start
		a.self += s.end - s.start - covered(s, children[s.id])
	}
	stats = make(map[string]spanStat)
	for i, a := range agg {
		if a.n > 0 {
			stats[spanNames[i]] = spanStat{Count: a.n, TotalUS: float64(a.total) / 1e3, SelfUS: float64(a.self) / 1e3}
		}
	}
	return stats, queueWait, dropped
}

// covered is the length of the union of the child intervals, clipped to
// the parent.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var sum int64
	hi := p.start
	for _, k := range kids {
		s, e := max(k.start, hi), min(k.end, p.end)
		if e > s {
			sum += e - s
			hi = e
		}
	}
	return sum
}

// writeChrome writes the spans as Chrome trace-event JSON (loadable in
// Perfetto or chrome://tracing): one complete event per span, tid = the
// recording buffer, args carrying the span's id, parent and op.
func (t *tracer) writeChrome(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	first := true
	for tid, b := range t.bufs {
		for _, s := range b.spans {
			if !first {
				w.WriteString(",\n")
			}
			first = false
			fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"op":%d}}`,
				spanNames[s.name], tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.id, s.parent, s.op)
		}
	}
	w.WriteString("\n]}\n")
	return w.Flush()
}
