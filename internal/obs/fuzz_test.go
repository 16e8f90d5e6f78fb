package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// written is one sample a seed scrape was rendered from.
type written struct {
	key string // `name` or `name{labels}`, as ParseExposition keys it
	v   float64
}

// seedScrape renders a scrape with the real MetricsWriter — counters,
// gauges and histograms with and without labels, awkward values — and
// returns it with every sample it holds.
func seedScrape(t testing.TB) (string, []written) {
	var buf bytes.Buffer
	var want []written
	m := NewMetricsWriter(&buf)
	sample := func(name, labels string, v float64) {
		m.Sample(name, labels, v)
		key := name
		if labels != "" {
			key += "{" + labels + "}"
		}
		want = append(want, written{key, v})
	}
	m.Family("mely_events_total", "counter", "Events executed, per core.")
	sample("mely_events_total", `core="0"`, 42)
	sample("mely_events_total", `core="1"`, 1e21)
	m.Family("mely_steal_cost_estimate_seconds", "gauge", "Monitored cost of one steal.")
	sample("mely_steal_cost_estimate_seconds", "", 2.5e-06)
	m.Family("mely_color_delay_mean_seconds", "gauge", "Mean sampled queue delay per tracked hot color.")
	sample("mely_color_delay_mean_seconds", `core="0",color="18446744073709551615"`, math.SmallestNonzeroFloat64)
	m.Family("mely_timer_lag_seconds", "histogram", "Timer firing lag; _sum not tracked (0).")
	counts := []int64{3, 0, 2, 0, 0, 1}
	m.Histogram("mely_timer_lag_seconds", `core="0"`, TimerLagBounds.Uppers(1e9), counts, 0)
	var cum int64
	for i, le := range []string{"0.0001", "0.001", "0.002", "0.01", "0.1", "+Inf"} {
		cum += counts[i]
		want = append(want, written{`mely_timer_lag_seconds_bucket{core="0",le="` + le + `"}`, float64(cum)})
	}
	want = append(want,
		written{`mely_timer_lag_seconds_sum{core="0"}`, 0},
		written{`mely_timer_lag_seconds_count{core="0"}`, 6})
	m.Family("mely_poll_batch_events", "histogram", "Readiness events harvested per poll wakeup.")
	m.Histogram("mely_poll_batch_events", "", PollBatchBounds.Uppers(1), []int64{0, 0, 0, 0, 0, 0}, 0)
	for _, le := range []string{"1", "4", "16", "64", "256", "+Inf"} {
		want = append(want, written{`mely_poll_batch_events_bucket{le="` + le + `"}`, 0})
	}
	want = append(want, written{"mely_poll_batch_events_sum", 0}, written{"mely_poll_batch_events_count", 0})
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.String(), want
}

// FuzzParseExposition: the scrape parser never panics; whatever it
// accepts, rendered back through the MetricsWriter, parses to the same
// samples; and the two readers built on it — HistogramQuantile and
// MonotonicViolations — hold their documented contracts on any parsed
// scrape. The seed is a real MetricsWriter scrape, checked first to
// parse back to every sample that was written.
func FuzzParseExposition(f *testing.F) {
	scrape, want := seedScrape(f)
	got, err := ParseExposition(scrape)
	if err != nil {
		f.Fatalf("the writer's own scrape does not parse: %v\n%s", err, scrape)
	}
	if len(got) != len(want) {
		f.Errorf("parsed %d samples, %d were written", len(got), len(want))
	}
	for _, w := range want {
		if v, ok := got[w.key]; !ok || v != w.v {
			f.Errorf("%s: parsed %v (present=%v), written %v", w.key, v, ok, w.v)
		}
	}
	if p99, ok := HistogramQuantile(got, "mely_timer_lag_seconds", 0.99); !ok || p99 != 0.1 {
		f.Errorf("timer-lag p99 = %v (ok=%v), want 0.1: +Inf reports the largest finite bound", p99, ok)
	}
	f.Add(scrape)
	f.Add("a 1\nb_bucket{le=\"-Inf\"} NaN\nc_bucket{le=\"+Inf\"} 0x1p-2\n# comment\n\n")
	f.Add("name{unterminated 7")
	f.Add("no value")

	f.Fuzz(func(t *testing.T, text string) {
		samples, err := ParseExposition(text)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		m := NewMetricsWriter(&buf)
		for key, v := range samples {
			m.Sample(key, "", v)
		}
		if err := m.Flush(); err != nil {
			t.Fatal(err)
		}
		again, err := ParseExposition(buf.String())
		if err != nil {
			t.Fatalf("re-rendered scrape does not parse: %v\n%q", err, buf.String())
		}
		if len(again) != len(samples) {
			t.Fatalf("re-rendered scrape has %d samples, the original %d\n%q", len(again), len(samples), buf.String())
		}
		for key, v := range samples {
			if a, ok := again[key]; !ok || (a != v && !(math.IsNaN(a) && math.IsNaN(v))) {
				t.Fatalf("%q: %v before the round trip, %v (present=%v) after", key, v, a, ok)
			}
		}
		// Each quantile walks the whole scrape: a handful of histograms
		// keeps one input linear.
		checked := map[string]bool{}
		for key := range samples {
			name, isBucket := strings.CutSuffix(seriesName(key), "_bucket")
			if !isBucket || checked[name] || len(checked) == 4 {
				continue
			}
			checked[name] = true
			for _, q := range []float64{-1, 0.5, 0.99, 2} {
				if sec, ok := HistogramQuantile(samples, name, q); ok && (math.IsNaN(sec) || math.IsInf(sec, 1)) {
					t.Fatalf("HistogramQuantile(%q, %v) = %v: never NaN, never +Inf", name, q, sec)
				}
			}
		}
		if v := MonotonicViolations(samples, samples); len(v) != 0 {
			t.Fatalf("a scrape violates monotonicity against itself: %v", v)
		}
	})
}

// seedFlowDump writes a real WriteChrome dump: a three-hop chain across
// two cores with one sampled post, a timer-rooted span, an orphan, and
// the records that carry no flow ids.
func seedFlowDump(t testing.TB) []byte {
	core0 := []Event{
		{Kind: KindPost, Ts: 900, Arg: 7, N: 2, Trace: 11, Span: 11},
		{Kind: KindExec, Ts: 1000, Dur: 500, Arg: 7, N: 2, Trace: 11, Span: 11},
		{Kind: KindExec, Ts: 1800, Dur: 100, Arg: 8, N: 3, Trace: 11, Span: 12, Parent: 11},
		{Kind: KindSteal, Ts: 2000, Dur: 300, Arg: 1, N: 3},
		{Kind: KindTimerFire, Ts: 2700, Dur: 150, Arg: 9, N: 1, Trace: 21, Span: 21},
		{Kind: KindExec, Ts: 2900, Dur: 40, Arg: 9, N: 1, Trace: 21, Span: 21},
	}
	core1 := []Event{
		{Kind: KindExec, Ts: 1950, Dur: 50, Arg: 8, N: 2 | StolenFlag, Trace: 11, Span: 13, Parent: 12},
		{Kind: KindExec, Ts: 3000, Dur: 10, Arg: 5, N: 2, Trace: 31, Span: 33, Parent: 32},
		{Kind: KindSteal, Ts: 3100, Dur: 20},
	}
	aux := []Event{
		{Kind: KindSpill, Ts: 3000, Arg: 7, N: 42, Trace: 11, Span: 14, Parent: 12},
		{Kind: KindPollWake, Ts: 3200, N: 8},
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, []Track{{"core 0", core0}, {"core 1", core1}, {"io/spill", aux}}, ChromeConfig{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzParseFlowDump: the dump parser never panics on any input, and on
// whatever it accepts the index is consistent — every span is filed
// under its trace once, an orphan is exactly a span whose parent is
// absent — and each query over it terminates within the index's size.
// The seed is a real WriteChrome dump, checked first to rebuild the
// chain that was written.
func FuzzParseFlowDump(f *testing.F) {
	dump := seedFlowDump(f)
	idx, err := ParseFlowDump(bytes.NewReader(dump))
	if err != nil {
		f.Fatalf("WriteChrome's own dump does not parse: %v\n%s", err, dump)
	}
	if len(idx.Spans) != 5 || len(idx.Traces[11]) != 3 || idx.Depth(11) != 3 || !idx.Connected(11) {
		f.Errorf("seed: %d spans, trace 11 has %d at depth %d (connected=%v); want 5, 3, 3, true",
			len(idx.Spans), len(idx.Traces[11]), idx.Depth(11), idx.Connected(11))
	}
	if s := idx.Spans[13]; s == nil || !s.Stolen || s.Core != 1 || s.Color != 8 || s.Parent != 12 {
		f.Errorf("seed: stolen hop parsed back as %+v", s)
	}
	if s := idx.Spans[11]; s == nil || s.PostTs != 0.9 || math.Abs(idx.QueueDelayMicros(s)-0.1) > 1e-9 {
		f.Errorf("seed: sampled post parsed back as %+v", s)
	}
	if len(idx.Orphans) != 1 || idx.Orphans[0].Span != 33 || idx.Connected(31) {
		f.Errorf("seed: orphans %+v, want exactly span 33", idx.Orphans)
	}
	f.Add(dump)
	f.Add([]byte(`[{"name":"a","ph":"X","ts":0,"dur":1,"tid":0,"args":{"trace":1,"span":1,"parent":2}},` +
		`{"name":"b","ph":"X","ts":1,"dur":1,"tid":0,"args":{"trace":1,"span":2,"parent":1}}]`))
	f.Add([]byte(`[{"name":"a","ph":"X","args":{"span":1e300,"trace":-1,"parent":"x"}}]`))
	f.Add([]byte(`{"not":"an array"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		idx, err := ParseFlowDump(bytes.NewReader(data))
		if err != nil {
			return
		}
		filed := 0
		for trace, spans := range idx.Traces {
			filed += len(spans)
			for _, s := range spans {
				if s.Trace != trace || idx.Spans[s.Span] != s {
					t.Fatalf("span %+v filed under trace %d", s, trace)
				}
			}
			if d := idx.Depth(trace); d < 0 || d > len(idx.Spans) {
				t.Fatalf("Depth(%d) = %d with %d spans", trace, d, len(idx.Spans))
			}
			if p := idx.CriticalPath(trace); len(p) == 0 || len(p) > len(idx.Spans) {
				t.Fatalf("CriticalPath(%d) has %d hops with %d spans", trace, len(p), len(idx.Spans))
			}
			idx.Connected(trace)
		}
		if filed != len(idx.Spans) {
			t.Fatalf("%d spans filed under traces, %d indexed", filed, len(idx.Spans))
		}
		orphans := 0
		for _, s := range idx.Spans {
			if _, ok := idx.Spans[s.Parent]; s.Parent != 0 && !ok {
				orphans++
			}
			if d := idx.QueueDelayMicros(s); d < 0 {
				t.Fatalf("span %+v queued for %vµs", s, d)
			}
		}
		if orphans != len(idx.Orphans) {
			t.Fatalf("%d spans lack their parent, %d orphans listed", orphans, len(idx.Orphans))
		}
		if b := idx.BusiestTrace(); b != 0 && len(idx.Traces[b]) == 0 {
			t.Fatalf("busiest trace %d has no spans", b)
		}
	})
}
