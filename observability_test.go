package mely

import (
	"bytes"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/melyruntime/mely/internal/obs"
)

// The four bucket switches obs.Bounds replaced, kept as the reference
// the bounds are checked against.
func refStealBatchBucket(n int64) int {
	switch {
	case n <= 1:
		return 0
	case n == 2:
		return 1
	case n <= 4:
		return 2
	case n <= 8:
		return 3
	case n <= 16:
		return 4
	default:
		return 5
	}
}

func refTimerLagBucket(lagNanos int64) int {
	switch {
	case lagNanos <= 100_000:
		return 0
	case lagNanos <= 1_000_000:
		return 1
	case lagNanos <= 2_000_000:
		return 2
	case lagNanos <= 10_000_000:
		return 3
	case lagNanos <= 100_000_000:
		return 4
	default:
		return 5
	}
}

func refPollBatchBucket(n int64) int {
	switch {
	case n <= 1:
		return 0
	case n <= 4:
		return 1
	case n <= 16:
		return 2
	case n <= 64:
		return 3
	case n <= 256:
		return 4
	default:
		return 5
	}
}

func refSpillDepthBucket(d int64) int {
	switch {
	case d <= 16:
		return 0
	case d <= 64:
		return 1
	case d <= 256:
		return 2
	case d <= 1024:
		return 3
	case d <= 4096:
		return 4
	default:
		return 5
	}
}

// TestObsBoundsBinLikeTheSwitches: each histogram's one bounds value puts
// every boundary and both its neighbours (and the extremes) in the
// bucket the hand-written switch did, names the `le` labels /metrics
// has always rendered, and sizes the Stats array it shapes.
func TestObsBoundsBinLikeTheSwitches(t *testing.T) {
	for _, tc := range []struct {
		name    string
		bounds  *obs.Bounds
		buckets int
		ref     func(int64) int
		unit    float64
		uppers  []float64
	}{
		{"steal batch", &obs.StealBatchBounds, StealBatchBuckets, refStealBatchBucket, 1,
			[]float64{1, 2, 4, 8, 16}},
		{"timer lag", &obs.TimerLagBounds, TimerLagBuckets, refTimerLagBucket, 1e9,
			[]float64{100e-6, 1e-3, 2e-3, 10e-3, 100e-3}},
		{"poll batch", &obs.PollBatchBounds, PollBatchBuckets, refPollBatchBucket, 1,
			[]float64{1, 4, 16, 64, 256}},
		{"spill depth", &obs.SpillDepthBounds, SpillDepthBuckets, refSpillDepthBucket, 1,
			[]float64{16, 64, 256, 1024, 4096}},
	} {
		if len(tc.bounds)+1 != tc.buckets {
			t.Errorf("%s: %d bounds shape %d buckets, the exported constant says %d",
				tc.name, len(tc.bounds), len(tc.bounds)+1, tc.buckets)
		}
		values := []int64{-1 << 62, -1, 0, 1 << 62}
		for _, b := range tc.bounds {
			values = append(values, b-1, b, b+1)
		}
		// The counter half counts each value where Bucket bins it, and
		// adds into a snapshot: twice over is the merge of two counters.
		var counts obs.Counts
		var want, snap [obs.NumBuckets]int64
		for _, v := range values {
			if got, want := tc.bounds.Bucket(v), tc.ref(v); got != want {
				t.Errorf("%s: Bucket(%d) = %d, the switch said %d", tc.name, v, got, want)
			}
			counts.Observe(tc.bounds, v)
			want[tc.ref(v)] += 2
		}
		counts.AddTo(&snap)
		counts.AddTo(&snap)
		if snap != want {
			t.Errorf("%s: counted %v, want %v", tc.name, snap, want)
		}
		// == on float64: the `le` label is the shortest decimal that
		// round-trips, so an equal double is an equal label.
		uppers := tc.bounds.Uppers(tc.unit)
		for i, want := range tc.uppers {
			if len(uppers) != len(tc.uppers) || uppers[i] != want {
				t.Errorf("%s: Uppers(%g) = %v, /metrics renders %v", tc.name, tc.unit, uppers, tc.uppers)
				break
			}
		}
	}
	// The legend sws prints beside a histogram is the same value, shown.
	lag := obs.TimerLagBounds.Legend(func(ns int64) string { return time.Duration(ns).String() })
	if want := "≤100µs,≤1ms,≤2ms,≤10ms,≤100ms,>100ms"; lag != want {
		t.Errorf("timer-lag legend %q, want %q", lag, want)
	}
	var fired obs.Counts
	if n := testing.AllocsPerRun(100, func() { fired.Observe(&obs.TimerLagBounds, 1_500_000) }); n != 0 {
		t.Errorf("Observe allocates %v times per call; it runs once per fired timer", n)
	}
}

// checkWireGolden compares got with testdata/<name>, the committed wire
// format of an endpoint.
func checkWireGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the committed wire format:\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}

// TestDebugHealthGolden pins the /debug/health document byte for byte —
// keys, order, indentation, the RFC 3339 `at` stamp, anomalies omitted
// when none fire — for an unhealthy report, a healthy one and the
// report of a runtime with no collector.
func TestDebugHealthGolden(t *testing.T) {
	r := newRuntime(t, Config{Cores: 2, ObsInterval: time.Hour})
	defer r.Close()
	col := r.collector
	col.report = HealthReport{
		Healthy: false, Windows: 7,
		Anomalies: []Anomaly{
			{Kind: AnomalyQueueDelayDrift, Detail: "queue-delay p99 8.388608ms vs trailing median 1.048576ms (factor 4.0)",
				Value: 8.388608e6, Limit: 4.194304e6, At: time.Unix(1_700_000_000, 123_456_789).UTC()},
			{Kind: AnomalyStallRecurrence, Detail: "1 core(s) currently stalled past the watchdog threshold",
				Value: 1, Limit: 0, At: time.Unix(1_700_000_001, 0).UTC()},
		},
	}
	col.anomalies.Store(3)
	r.incidents.Store(1)
	var buf bytes.Buffer
	if healthy, err := r.WriteHealth(&buf); err != nil || healthy {
		t.Fatalf("WriteHealth: healthy=%v err=%v, want an unhealthy report", healthy, err)
	}
	col.report = HealthReport{Healthy: true, Windows: 2}
	if healthy, err := r.WriteHealth(&buf); err != nil || !healthy {
		t.Fatalf("WriteHealth: healthy=%v err=%v, want a healthy report", healthy, err)
	}
	off := newRuntime(t, Config{Cores: 1})
	defer off.Close()
	if _, err := off.WriteHealth(&buf); err != nil {
		t.Fatal(err)
	}
	checkWireGolden(t, "health.golden.json", buf.Bytes())

	// With no collector /debug/timeseries is the empty document.
	buf.Reset()
	if err := off.WriteTimeSeries(&buf); err != nil {
		t.Fatal(err)
	}
	if want := `{"interval_seconds":0,"history":0,"samples":0,"points":[]}` + "\n"; buf.String() != want {
		t.Errorf("collector-less /debug/timeseries = %q, want %q", buf.String(), want)
	}
}

// TestMetricsInventoryMatchesDocs renders /metrics on a bounded,
// collector-armed runtime — the configuration that exposes every
// family — and holds it against two committed files: the family tables
// of docs/observability.md, which must list exactly the families
// rendered, and the idle exposition itself (families, order, help
// strings, `le` labels), which must not change under a scraper.
func TestMetricsInventoryMatchesDocs(t *testing.T) {
	r := newRuntime(t, Config{Cores: 2, MaxQueuedEvents: 64, OverloadPolicy: OverloadSpill,
		SpillDir: t.TempDir(), ObsInterval: time.Hour})
	defer r.Close()
	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	checkWireGolden(t, "metrics_idle.golden.txt", buf.Bytes())

	rendered := map[string]bool{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			rendered[name[:strings.IndexByte(name, ' ')]] = true
		}
	}
	doc, err := os.ReadFile("docs/observability.md")
	if err != nil {
		t.Fatal(err)
	}
	// A family is documented by a table row that opens with its name;
	// the fixed-bucket table restates four histograms, hence the set.
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `(mely_[a-z0-9_]+)` \\|").FindAllSubmatch(doc, -1) {
		documented[string(m[1])] = true
	}
	var drift []string
	for name := range rendered {
		if !documented[name] {
			drift = append(drift, name+": rendered by WriteMetrics, missing from docs/observability.md")
		}
	}
	for name := range documented {
		if !rendered[name] {
			drift = append(drift, name+": listed in docs/observability.md, not rendered by WriteMetrics")
		}
	}
	sort.Strings(drift)
	for _, d := range drift {
		t.Error(d)
	}
	if len(rendered) < 50 {
		t.Errorf("only %d families rendered: the walk is broken", len(rendered))
	}
}
