package obs

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// sampleAt builds a TSSample with the given monotonic stamp and a
// linear counter ramp, for rate-derivation tests.
func sampleAt(mono int64, events int64, cores int) TSSample {
	s := TSSample{
		WallNanos: 1_000_000_000 + mono,
		MonoNanos: mono,
		Events:    events,
		Posts:     events,
		Cores:     make([]TSCore, cores),
	}
	for i := range s.Cores {
		s.Cores[i].Events = events / int64(cores)
	}
	return s
}

func TestTimeSeriesRingEviction(t *testing.T) {
	ts := NewTimeSeries(4, 1, time.Second)
	for i := 0; i < 10; i++ {
		s := sampleAt(int64(i)*1e9, int64(i)*100, 1)
		ts.Append(&s)
	}
	if got := ts.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4 (ring capacity)", got)
	}
	samples := ts.Snapshot(nil)
	if len(samples) != 4 {
		t.Fatalf("Snapshot returned %d samples, want 4", len(samples))
	}
	// Oldest-first: the retained samples are appends 6..9.
	for i, s := range samples {
		if want := int64(6+i) * 1e9; s.MonoNanos != want {
			t.Fatalf("samples[%d].MonoNanos = %d, want %d", i, s.MonoNanos, want)
		}
	}
}

// TestTimeSeriesBoundedMemory asserts the acceptance criterion: the
// ring's retained memory is fixed at construction — history x the
// per-sample size — and steady-state appends allocate nothing, so no
// amount of uptime grows it.
func TestTimeSeriesBoundedMemory(t *testing.T) {
	const history, cores = 240, 8
	ts := NewTimeSeries(history, cores, time.Second)

	slotBytes := unsafe.Sizeof(TSSample{}) + cores*unsafe.Sizeof(TSCore{})
	budget := uintptr(history) * slotBytes
	var used uintptr
	for i := range ts.slots {
		used += unsafe.Sizeof(ts.slots[i]) + uintptr(cap(ts.slots[i].Cores))*unsafe.Sizeof(TSCore{})
	}
	if used > budget {
		t.Fatalf("ring retains %d bytes, budget history x sizeof(sample) = %d", used, budget)
	}

	s := sampleAt(42e9, 1000, cores)
	allocs := testing.AllocsPerRun(1000, func() {
		s.MonoNanos += 1e9
		ts.Append(&s)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Append allocates %.1f per call, want 0", allocs)
	}
}

func TestDerivePointsRates(t *testing.T) {
	// Two samples 2s apart: 1000 events, 500 posts... use distinct
	// counters to catch field crossings.
	a := TSSample{MonoNanos: 0, WallNanos: 100}
	b := TSSample{
		MonoNanos: 2e9, WallNanos: 100 + 2e9,
		Events: 1000, Posts: 800, Steals: 40, FailedSteals: 10,
		SpilledEvents: 20, SpilledBytes: 4096,
		QueuedEvents: 7, SpilledNow: 3, Stalls: 2,
	}
	pts := DerivePoints([]TSSample{a, b})
	if len(pts) != 1 {
		t.Fatalf("got %d points, want 1", len(pts))
	}
	p := pts[0]
	checks := []struct {
		name string
		got  float64
		want float64
	}{
		{"events/s", p.EventsPerSec, 500},
		{"posts/s", p.PostsPerSec, 400},
		{"steals/s", p.StealsPerSec, 20},
		{"failed/s", p.FailedStealsPerSec, 5},
		{"spill events/s", p.SpillEventsPerSec, 10},
		{"spill bytes/s", p.SpillBytesPerSec, 2048},
		{"window", p.WindowSeconds, 2},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if p.QueuedEvents != 7 || p.SpilledNow != 3 || p.Stalls != 2 {
		t.Errorf("gauges/deltas = (%d, %d, %d), want (7, 3, 2)",
			p.QueuedEvents, p.SpilledNow, p.Stalls)
	}
}

func TestDerivePointsWindowQuantiles(t *testing.T) {
	// The cumulative histogram has old observations in bucket 2; the
	// window adds 100 observations in bucket 10. The windowed p99 must
	// see only the delta.
	a := TSSample{MonoNanos: 0}
	a.QDelay[2] = 500
	b := TSSample{MonoNanos: 1e9}
	b.QDelay[2] = 500
	b.QDelay[10] = 100
	pts := DerivePoints([]TSSample{a, b})
	if len(pts) != 1 {
		t.Fatalf("got %d points, want 1", len(pts))
	}
	if want := LatencyUpperNanos(10); pts[0].QDelayP99Nanos != want {
		t.Fatalf("windowed p99 = %d, want bucket-10 bound %d", pts[0].QDelayP99Nanos, want)
	}
	if pts[0].QDelayP50Nanos != LatencyUpperNanos(10) {
		t.Fatalf("windowed p50 = %d, want %d", pts[0].QDelayP50Nanos, LatencyUpperNanos(10))
	}
	// An empty window yields zero quantiles, not the stale cumulative.
	c := TSSample{MonoNanos: 2e9}
	c.QDelay = b.QDelay
	pts = DerivePoints([]TSSample{b, c})
	if pts[0].QDelayP99Nanos != 0 {
		t.Fatalf("empty-window p99 = %d, want 0", pts[0].QDelayP99Nanos)
	}
}

func TestDerivePointsPerCore(t *testing.T) {
	a := sampleAt(0, 0, 2)
	b := sampleAt(1e9, 200, 2)
	b.Cores[0].Events = 150
	b.Cores[1].Events = 50
	b.Cores[1].Queued = 9
	pts := DerivePoints([]TSSample{a, b})
	if len(pts) != 1 || len(pts[0].Cores) != 2 {
		t.Fatalf("expected 1 point with 2 core rows, got %+v", pts)
	}
	if pts[0].Cores[0].EventsPerSec != 150 || pts[0].Cores[1].EventsPerSec != 50 {
		t.Fatalf("per-core rates = %v / %v, want 150 / 50",
			pts[0].Cores[0].EventsPerSec, pts[0].Cores[1].EventsPerSec)
	}
	if pts[0].Cores[1].Queued != 9 {
		t.Fatalf("core 1 queued = %d, want 9", pts[0].Cores[1].Queued)
	}
}

func TestTimeSeriesWriteJSON(t *testing.T) {
	ts := NewTimeSeries(8, 2, 250*time.Millisecond)
	var sb strings.Builder
	if err := ts.WriteJSON(&sb); err != nil {
		t.Fatalf("WriteJSON (empty): %v", err)
	}
	var dump TSDump
	if err := json.Unmarshal([]byte(sb.String()), &dump); err != nil {
		t.Fatalf("empty dump is not valid JSON: %v\n%s", err, sb.String())
	}
	if dump.Points == nil || len(dump.Points) != 0 {
		t.Fatalf("empty dump points = %v, want []", dump.Points)
	}

	for i := 0; i < 3; i++ {
		s := sampleAt(int64(i)*1e9, int64(i)*1000, 2)
		ts.Append(&s)
	}
	sb.Reset()
	if err := ts.WriteJSON(&sb); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	dump = TSDump{}
	if err := json.Unmarshal([]byte(sb.String()), &dump); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if dump.Samples != 3 || len(dump.Points) != 2 {
		t.Fatalf("dump has %d samples / %d points, want 3 / 2", dump.Samples, len(dump.Points))
	}
	if dump.IntervalSeconds != 0.25 || dump.History != 8 {
		t.Fatalf("dump meta = (%v, %d), want (0.25, 8)", dump.IntervalSeconds, dump.History)
	}
	if dump.Points[1].EventsPerSec != 1000 {
		t.Fatalf("last point events/s = %v, want 1000", dump.Points[1].EventsPerSec)
	}
}

// TestTailLastWindow: the newest two samples derive the last window
// (the mely_*_rate gauges' source) wherever the ring's head stands, and
// fewer than two derive nothing.
func TestTailLastWindow(t *testing.T) {
	ts := NewTimeSeries(4, 1, time.Second)
	if pts := DerivePoints(ts.Tail(2, nil)); len(pts) != 0 {
		t.Fatalf("empty ring derived %d points", len(pts))
	}
	a := sampleAt(0, 0, 1)
	ts.Append(&a)
	if pts := DerivePoints(ts.Tail(2, nil)); len(pts) != 0 {
		t.Fatalf("one sample derived %d points", len(pts))
	}
	// Six more appends wrap the four-slot ring.
	for i := int64(1); i <= 6; i++ {
		s := sampleAt(i*1e9, i*i*100, 1)
		s.SpilledBytes = i << 20
		ts.Append(&s)
	}
	tail := ts.Tail(2, nil)
	if len(tail) != 2 || tail[0].MonoNanos != 5e9 || tail[1].MonoNanos != 6e9 {
		t.Fatalf("Tail(2) = %+v, want the samples at 5s and 6s", tail)
	}
	pts := DerivePoints(tail)
	if len(pts) != 1 || pts[0].EventsPerSec != 1100 || pts[0].SpillBytesPerSec != float64(1<<20) {
		t.Fatalf("last window = %+v; want 1100 events/s, %d bytes/s", pts, 1<<20)
	}
	all := DerivePoints(ts.Snapshot(nil))
	if last := all[len(all)-1]; last.EventsPerSec != pts[0].EventsPerSec || last.WallNanos != pts[0].WallNanos {
		t.Fatalf("Tail's window %+v is not Snapshot's last %+v", pts[0], last)
	}
}
