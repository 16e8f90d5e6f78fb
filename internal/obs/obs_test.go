package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLatencyBucketBounds(t *testing.T) {
	cases := []struct {
		nanos int64
		want  int
	}{
		{0, 0}, {-5, 0}, {1, 0}, {255, 0},
		{256, 1}, {511, 1}, {512, 2},
		{1 << 20, 13}, // 1MiB ns ≈ 1ms
	}
	for _, c := range cases {
		if got := LatencyBucket(c.nanos); got != c.want {
			t.Errorf("LatencyBucket(%d) = %d, want %d", c.nanos, got, c.want)
		}
	}
	if got := LatencyBucket(math.MaxInt64); got != NumLatencyBuckets-1 {
		t.Errorf("max duration bucket = %d, want last", got)
	}
	// Every value must land below its bucket's upper bound.
	for _, n := range []int64{1, 100, 256, 1000, 1e6, 1e9, 1e12} {
		b := LatencyBucket(n)
		if n >= LatencyUpperNanos(b) {
			t.Errorf("nanos %d >= upper bound %d of its bucket %d", n, LatencyUpperNanos(b), b)
		}
		if b > 0 && n < LatencyUpperNanos(b-1) {
			t.Errorf("nanos %d below lower bound of its bucket %d", n, b)
		}
	}
}

func TestHistObserveAndQuantile(t *testing.T) {
	var h Hist
	for i := 0; i < 90; i++ {
		h.Observe(1000) // bucket for 1µs
	}
	for i := 0; i < 10; i++ {
		h.Observe(50_000_000) // 50ms
	}
	var counts [NumLatencyBuckets]int64
	sum := h.Load(&counts)
	if want := int64(90*1000 + 10*50_000_000); sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
	p50 := Quantile(&counts, 0.50)
	if p50 > 2*time.Microsecond {
		t.Errorf("p50 = %v, want ≤ 2µs", p50)
	}
	p99 := Quantile(&counts, 0.99)
	if p99 < 50*time.Millisecond || p99 > 200*time.Millisecond {
		t.Errorf("p99 = %v, want within a bucket of 50ms", p99)
	}
	var empty [NumLatencyBuckets]int64
	if q := Quantile(&empty, 0.99); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}
}

func TestRingAppendSnapshotWrap(t *testing.T) {
	r := NewRing(64)
	if r.Cap() != 64 {
		t.Fatalf("cap = %d, want 64", r.Cap())
	}
	for i := 0; i < 100; i++ {
		r.Append(KindExec, int64(i), 1, uint64(i), uint32(i))
	}
	evs := r.Snapshot(nil)
	if len(evs) != 64 {
		t.Fatalf("snapshot len = %d, want 64 (wrapped)", len(evs))
	}
	// Oldest-first: the surviving records are 36..99.
	for i, ev := range evs {
		if want := int64(36 + i); ev.Ts != want {
			t.Fatalf("evs[%d].Ts = %d, want %d", i, ev.Ts, want)
		}
	}
}

func TestWriteChromeValidJSON(t *testing.T) {
	core0 := NewRing(64)
	core0.Append(KindExec, 1000, 500, 7, 2|StolenFlag)
	core0.Append(KindSteal, 2000, 300, 1, 3)
	core0.Append(KindPost, 2500, 0, 7, 2)
	core0.Append(KindReHome, 2600, 0, 7, 0)
	core0.Append(KindTimerFire, 2700, 150, 9, 1)
	aux := NewRing(64)
	aux.Append(KindSpill, 3000, 0, 7, 42)
	aux.Append(KindReload, 3100, 0, 7, 16)
	aux.Append(KindPollWake, 3200, 0, 0, 8)

	var buf bytes.Buffer
	tracks := []Track{{"core 0", core0.Snapshot(nil)}, {"io/spill", aux.Snapshot(nil)}}
	err := WriteChrome(&buf, tracks, ChromeConfig{
		HandlerName: func(id uint32) string {
			if id == 2 {
				return "request"
			}
			return ""
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("dump is not a JSON array: %v", err)
	}
	var names []string
	for _, e := range out {
		names = append(names, e["name"].(string))
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"request", "STEAL ×3", "post request", "re-home",
		"timer", "spill", "reload ×16", "poll ×8", "thread_name"} {
		if !strings.Contains(joined, want) {
			t.Errorf("dump missing %q (have %s)", want, joined)
		}
	}
	// The stolen exec span carries its args.
	for _, e := range out {
		if e["name"] == "request" && e["ph"] == "X" {
			args := e["args"].(map[string]any)
			if args["stolen"] != true {
				t.Errorf("exec span lost stolen flag: %v", args)
			}
			if args["color"] != float64(7) {
				t.Errorf("exec span lost color: %v", args)
			}
		}
	}
}

func TestMetricsWriterFormat(t *testing.T) {
	var buf bytes.Buffer
	m := NewMetricsWriter(&buf)
	m.Family("mely_events_total", "counter", "Events executed.")
	m.Sample("mely_events_total", `core="0"`, 42)
	m.Family("mely_queue_delay_seconds", "histogram", "Sampled delay.")
	m.Histogram("mely_queue_delay_seconds", `core="0"`,
		[]float64{0.001, 0.01}, []int64{5, 3, 2}, 0.123)
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# HELP mely_events_total Events executed.",
		"# TYPE mely_events_total counter",
		`mely_events_total{core="0"} 42`,
		"# TYPE mely_queue_delay_seconds histogram",
		`mely_queue_delay_seconds_bucket{core="0",le="0.001"} 5`,
		`mely_queue_delay_seconds_bucket{core="0",le="0.01"} 8`,
		`mely_queue_delay_seconds_bucket{core="0",le="+Inf"} 10`,
		`mely_queue_delay_seconds_sum{core="0"} 0.123`,
		`mely_queue_delay_seconds_count{core="0"} 10`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestParseExpositionRoundTrip(t *testing.T) {
	text := `# HELP mely_events_total Events executed.
# TYPE mely_events_total counter
mely_events_total{core="0"} 42
mely_events_total{core="1"} 7

mely_pending_events 3
`
	samples, err := ParseExposition(text)
	if err != nil {
		t.Fatal(err)
	}
	if samples[`mely_events_total{core="0"}`] != 42 {
		t.Errorf("core 0 sample lost: %v", samples)
	}
	if samples["mely_pending_events"] != 3 {
		t.Errorf("unlabeled sample lost: %v", samples)
	}
	if _, err := ParseExposition("garbage line with no value trailing"); err == nil {
		t.Error("want error for unparsable line")
	}
}

func TestHistogramQuantileFromScrape(t *testing.T) {
	// Two cores' buckets aggregate before the quantile.
	samples := map[string]float64{
		`mely_queue_delay_seconds_bucket{core="0",le="0.001"}`: 90,
		`mely_queue_delay_seconds_bucket{core="0",le="0.1"}`:   100,
		`mely_queue_delay_seconds_bucket{core="0",le="+Inf"}`:  100,
		`mely_queue_delay_seconds_bucket{core="1",le="0.001"}`: 80,
		`mely_queue_delay_seconds_bucket{core="1",le="0.1"}`:   100,
		`mely_queue_delay_seconds_bucket{core="1",le="+Inf"}`:  100,
	}
	p50, ok := HistogramQuantile(samples, "mely_queue_delay_seconds", 0.50)
	if !ok || p50 != 0.001 {
		t.Errorf("p50 = %v (ok=%v), want 0.001", p50, ok)
	}
	p99, ok := HistogramQuantile(samples, "mely_queue_delay_seconds", 0.99)
	if !ok || p99 != 0.1 {
		t.Errorf("p99 = %v (ok=%v), want 0.1", p99, ok)
	}
	if _, ok := HistogramQuantile(samples, "no_such_histogram", 0.5); ok {
		t.Error("want ok=false for a missing histogram")
	}
}

func TestMonotonicViolations(t *testing.T) {
	before := map[string]float64{
		"mely_events_total":                            10,
		"mely_pending_events":                          5, // gauge: may move down freely
		"mely_queue_delay_seconds_bucket{le=\"+Inf\"}": 4,
		"mely_spill_errors_total":                      1,
	}
	after := map[string]float64{
		"mely_events_total":                            12,
		"mely_pending_events":                          0,
		"mely_queue_delay_seconds_bucket{le=\"+Inf\"}": 3, // decreased!
		// mely_spill_errors_total missing!
	}
	v := MonotonicViolations(before, after)
	if len(v) != 2 {
		t.Fatalf("violations = %v, want 2 entries", v)
	}
	joined := strings.Join(v, "\n")
	if !strings.Contains(joined, "decreased") || !strings.Contains(joined, "missing") {
		t.Errorf("violation text wrong: %v", v)
	}
	if MonotonicViolations(after, after) != nil {
		t.Error("identical scrapes must not violate")
	}
}

// TestHistogramQuantileEdgeCases pins the degenerate inputs a live
// scrape can produce: an empty scrape, a histogram whose buckets exist
// but hold zero samples, and a histogram with a single finite bucket.
func TestHistogramQuantileEdgeCases(t *testing.T) {
	if _, ok := HistogramQuantile(map[string]float64{}, "x", 0.5); ok {
		t.Error("empty scrape: want ok=false")
	}
	zero := map[string]float64{
		`x_bucket{le="0.001"}`: 0,
		`x_bucket{le="+Inf"}`:  0,
	}
	if _, ok := HistogramQuantile(zero, "x", 0.5); ok {
		t.Error("all-zero buckets: want ok=false (no samples)")
	}
	one := map[string]float64{`x_bucket{le="0.25"}`: 7}
	for _, q := range []float64{0, 0.5, 1} {
		got, ok := HistogramQuantile(one, "x", q)
		if !ok || got != 0.25 {
			t.Errorf("one-bucket q=%v: got %v (ok=%v), want 0.25", q, got, ok)
		}
	}
	// Only the +Inf bucket, no finite bound to report: degrades to 0
	// rather than +Inf or a panic.
	inf := map[string]float64{`x_bucket{le="+Inf"}`: 3}
	got, ok := HistogramQuantile(inf, "x", 0.99)
	if !ok || got != 0 {
		t.Errorf("+Inf-only histogram: got %v (ok=%v), want 0 ok=true", got, ok)
	}
}

// TestMonotonicViolationsDisappearingSeries: a counter series present
// in the first scrape and gone from the second (a core removed, a
// label set renamed) is a violation, while a gauge or a brand-new
// series is not.
func TestMonotonicViolationsDisappearingSeries(t *testing.T) {
	before := map[string]float64{
		`mely_events_total{core="0"}`: 4,
		`mely_events_total{core="1"}`: 9,
		"mely_run_queue_len":          3, // gauge: free to vanish
	}
	after := map[string]float64{
		`mely_events_total{core="0"}`: 5,
		// core="1" gone between scrapes
		`mely_events_total{core="2"}`: 1, // new series: fine
	}
	v := MonotonicViolations(before, after)
	if len(v) != 1 || !strings.Contains(v[0], `core="1"`) || !strings.Contains(v[0], "missing") {
		t.Fatalf("violations = %v, want exactly the disappeared core=1 counter", v)
	}
}

// TestRingSnapshotRacesWrap drives the smallest ring so hard that every
// snapshot races slot reuse mid-wrap: no record may mix the fields of two
// appends, checked here by the Ts==Arg invariant every writer maintains.
func TestRingSnapshotRacesWrap(t *testing.T) {
	r := NewRing(8) // rounds up to 64: a snapshot always overlaps a wrap
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.AppendFlow(KindExec, int64(i), 1, uint64(i), 1,
					uint64(i), uint64(i), uint64(i))
			}
		}()
	}
	for i := 0; i < 200; i++ {
		for _, ev := range r.Snapshot(nil) {
			if uint64(ev.Ts) != ev.Arg || ev.Trace != ev.Span || ev.Span != ev.Parent || uint64(ev.Ts) != ev.Trace {
				t.Fatalf("torn record survived a wrapping snapshot: %+v", ev)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestCriticalPathTies: dump timestamps are whole microseconds, so a
// leaf can end in the tick its ancestor ends in. The path then runs to
// the leaf — the descendant finished last — whatever order the dump
// lists the spans in, and equally deep spans tie toward the lower id.
func TestCriticalPathTies(t *testing.T) {
	root := &FlowSpan{Trace: 1, Span: 10, Start: 0, End: 9}
	mid := &FlowSpan{Trace: 1, Span: 11, Parent: 10, Start: 2, End: 9}
	leaf := &FlowSpan{Trace: 1, Span: 12, Parent: 11, Start: 5, End: 9}
	twin := &FlowSpan{Trace: 1, Span: 13, Parent: 11, Start: 6, End: 9}
	early := &FlowSpan{Trace: 1, Span: 14, Parent: 12, Start: 7, End: 8}
	spans := []*FlowSpan{root, mid, leaf, twin, early}
	for rot := range spans {
		idx := &FlowIndex{Spans: map[uint64]*FlowSpan{}, Traces: map[uint64][]*FlowSpan{}}
		for i := range spans {
			s := spans[(i+rot)%len(spans)]
			idx.Spans[s.Span] = s
			idx.Traces[1] = append(idx.Traces[1], s)
		}
		path := idx.CriticalPath(1)
		if len(path) != 3 || path[0] != root || path[1] != mid || path[2] != leaf {
			var ids []uint64
			for _, s := range path {
				ids = append(ids, s.Span)
			}
			t.Errorf("dump order rotated by %d: critical path %v, want [10 11 12]", rot, ids)
		}
	}
}
