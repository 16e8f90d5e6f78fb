package mely

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/melyruntime/mely/internal/obs"
)

// TestHealthDisabledByDefault pins the zero-config contract: no
// collector, an Enabled=false healthy report, and an empty (but
// well-formed) timeseries document.
func TestHealthDisabledByDefault(t *testing.T) {
	r := newRuntime(t, Config{Cores: 2})
	defer r.Close()
	if r.collector != nil {
		t.Fatal("collector built without ObsInterval")
	}
	rep := r.Health()
	if rep.Enabled || !rep.Healthy {
		t.Fatalf("disabled report = %+v, want Enabled=false Healthy=true", rep)
	}
	var buf bytes.Buffer
	if healthy, err := r.WriteHealth(&buf); err != nil || !healthy {
		t.Fatalf("WriteHealth: healthy=%v err=%v", healthy, err)
	}
	buf.Reset()
	if err := r.WriteTimeSeries(&buf); err != nil {
		t.Fatalf("WriteTimeSeries: %v", err)
	}
	var dump obs.TSDump
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("disabled timeseries is not JSON: %v", err)
	}
	if dump.Samples != 0 || len(dump.Points) != 0 {
		t.Fatalf("disabled dump = %+v, want empty", dump)
	}
	// The rate/health series must not appear on a collector-less
	// runtime, so a process's series set is stable for its lifetime.
	buf.Reset()
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "mely_health_status") ||
		strings.Contains(buf.String(), "mely_events_rate") {
		t.Fatal("health/rate series rendered without a collector")
	}
}

// TestCollectorTimeSeries drives a collector-armed runtime and checks
// samples accumulate, rates derive, and the debug documents render.
func TestCollectorTimeSeries(t *testing.T) {
	r := newRuntime(t, Config{
		Cores:       2,
		ObsInterval: 2 * time.Millisecond,
		ObsHistory:  16,
	})
	defer r.Close()
	h := r.Register("work", func(ctx *Ctx) {})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = r.Post(h, Color(i%8), nil)
			time.Sleep(50 * time.Microsecond)
		}
	}()
	defer close(stop)

	waitFor(t, 5*time.Second, "collector samples", func() bool {
		return r.collector.ring.Len() >= 4
	})

	var buf bytes.Buffer
	if err := r.WriteTimeSeries(&buf); err != nil {
		t.Fatal(err)
	}
	var dump obs.TSDump
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("timeseries JSON: %v", err)
	}
	if dump.Samples < 4 || len(dump.Points) < 3 {
		t.Fatalf("dump has %d samples / %d points, want >= 4 / >= 3", dump.Samples, len(dump.Points))
	}
	last := dump.Points[len(dump.Points)-1]
	if len(last.Cores) != 2 {
		t.Fatalf("point has %d core rows, want 2", len(last.Cores))
	}

	// The ring never exceeds its history.
	waitFor(t, 5*time.Second, "ring to fill", func() bool {
		return r.collector.ring.Len() == 16
	})
	time.Sleep(10 * time.Millisecond)
	if n := r.collector.ring.Len(); n != 16 {
		t.Fatalf("ring len %d exceeds history 16", n)
	}

	// /metrics gains the rate and health series.
	buf.Reset()
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseExposition(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"mely_events_rate", "mely_posts_rate", "mely_steals_rate",
		"mely_spill_bytes_rate", "mely_health_status", "mely_anomalies_total",
	} {
		if _, ok := samples[name]; !ok {
			t.Errorf("metrics missing %s", name)
		}
	}
	// Both gauges describe the last 2ms window only, and on a loaded
	// 2-CPU host the poster or a worker can be off the CPU for a whole
	// window (no events, or a genuine queue-delay drift episode): look
	// until one window is healthy and has seen events instead of
	// trusting the first scrape.
	waitFor(t, 5*time.Second, "a scrape with mely_health_status 1 and mely_events_rate > 0", func() bool {
		buf.Reset()
		if err := r.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		samples, err := obs.ParseExposition(buf.String())
		if err != nil {
			t.Fatal(err)
		}
		return samples["mely_health_status"] == 1 && samples["mely_events_rate"] > 0
	})
}

// TestOnAnomalyStall injects a stalling handler and requires the
// watchdog-fed stall detector to flip health and count the episode
// within a couple of detection windows.
func TestOnAnomalyStall(t *testing.T) {
	r := newRuntime(t, Config{
		Cores:          2,
		ObsInterval:    5 * time.Millisecond,
		ObsHistory:     64,
		StallThreshold: time.Millisecond,
	})
	defer r.Close()
	block := make(chan struct{})
	h := r.Register("stall", func(ctx *Ctx) { <-block })
	defer close(block)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.Post(h, 1, nil); err != nil {
		t.Fatal(err)
	}
	// Watchdog tick is floored at 10ms; the collector samples every
	// 5ms. Detection must land well within a second. The blocked
	// core's neighbor can legitimately trip steal-imbalance first —
	// wait for the report that carries the stall.
	hasStall := func() bool {
		for _, a := range r.Health().Anomalies {
			if a.Kind == AnomalyStallRecurrence {
				return true
			}
		}
		return false
	}
	waitFor(t, 5*time.Second, "Health to report the stall", hasStall)
	if rep := r.Health(); !rep.Enabled || rep.Healthy || rep.TotalAnomalies == 0 {
		t.Fatalf("Runtime.Health does not reflect the stall: %+v", rep)
	}
	var buf bytes.Buffer
	healthy, err := r.WriteHealth(&buf)
	if err != nil || healthy {
		t.Fatalf("WriteHealth during stall: healthy=%v err=%v", healthy, err)
	}
	// No IncidentDir: an anomaly captures nothing.
	if got := r.Health().Incidents; got != 0 {
		t.Fatalf("incidents = %d without an IncidentDir, want 0", got)
	}
}

// TestIncidentCapture checks the profile-on-anomaly bundle: a stall on
// a runtime with IncidentDir produces one timestamped directory with
// the four artifacts, and the rate limit suppresses a second capture.
func TestIncidentCapture(t *testing.T) {
	dir := t.TempDir()
	r := newRuntime(t, Config{
		Cores:          2,
		ObsInterval:    5 * time.Millisecond,
		ObsHistory:     64,
		StallThreshold: time.Millisecond,
		IncidentDir:    dir,
		IncidentMinGap: time.Hour, // one capture for the whole test
	})
	defer r.Close()
	block := make(chan struct{})
	h := r.Register("stall", func(ctx *Ctx) { <-block })
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.Post(h, 1, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "incident capture", func() bool {
		return r.Health().Incidents >= 1
	})
	close(block)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = r.Drain(ctx)
	// Let any in-flight capture finish before reading the directory.
	waitFor(t, 5*time.Second, "capture to settle", func() bool {
		r.incidentMu.Lock()
		busy := r.incidentBusy
		r.incidentMu.Unlock()
		return !busy
	})

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("incident dir has %d entries, want exactly 1 (rate limit): %v", len(entries), names)
	}
	bundle := filepath.Join(dir, entries[0].Name())
	if !strings.HasPrefix(entries[0].Name(), "incident-") {
		t.Fatalf("bundle name %q lacks the incident- prefix", entries[0].Name())
	}
	for _, name := range []string{"health.json", "timeseries.json", "trace.json", "cpu.pprof"} {
		fi, err := os.Stat(filepath.Join(bundle, name))
		if err != nil {
			t.Fatalf("bundle missing %s: %v", name, err)
		}
		if name != "cpu.pprof" && fi.Size() == 0 {
			t.Fatalf("bundle artifact %s is empty", name)
		}
	}
	// health.json must carry the unhealthy verdict it was captured under.
	raw, err := os.ReadFile(filepath.Join(bundle, "health.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep HealthReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("health.json: %v", err)
	}
	if rep.Healthy || !rep.Enabled {
		t.Fatalf("captured report = %+v, want unhealthy+enabled", rep)
	}
}

// TestCaptureIncidentManual pins the synchronous API: no IncidentDir
// is an error; with one, the bundle lands where the caller is told.
func TestCaptureIncidentManual(t *testing.T) {
	r := newRuntime(t, Config{Cores: 1})
	defer r.Close()
	if _, err := r.CaptureIncident("manual"); err == nil {
		t.Fatal("CaptureIncident without IncidentDir did not error")
	}

	dir := t.TempDir()
	r2 := newRuntime(t, Config{Cores: 1, IncidentDir: dir})
	defer r2.Close()
	got, err := r2.CaptureIncident("Weird Reason!!")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(got, "-weird-reason") {
		t.Fatalf("sanitized dir = %q, want -weird-reason suffix", got)
	}
	if _, err := os.Stat(filepath.Join(got, "trace.json")); err != nil {
		t.Fatalf("manual bundle incomplete: %v", err)
	}
}

// TestHealthSpillGrowthAnomaly feeds the collector a synthetic
// growing-backlog series through the internal ring and checks the
// runtime-side episode accounting (fresh episodes count once, not per
// evaluation).
func TestHealthEpisodeAccounting(t *testing.T) {
	r := newRuntime(t, Config{Cores: 2, ObsInterval: time.Hour, ObsHistory: 32})
	defer r.Close()
	col := r.collector
	// Hand-drive ticks: quiet baseline, then a live stall for several
	// evaluations — the episode must count exactly once.
	mkSample := func(i int64, stalled int64) obs.TSSample {
		s := obs.TSSample{
			MonoNanos: i * 1e9, WallNanos: i * 1e9,
			Events: i * 1000, StalledCores: stalled,
			Cores: make([]obs.TSCore, 2),
		}
		s.QDelay[6] = i * 100
		return s
	}
	for i := int64(0); i < 5; i++ {
		s := mkSample(i, 0)
		col.ring.Append(&s)
		r.evaluateHealth(col)
	}
	if got := r.Health(); !got.Healthy || got.TotalAnomalies != 0 {
		t.Fatalf("baseline: %+v", got)
	}
	for i := int64(5); i < 9; i++ {
		s := mkSample(i, 1)
		col.ring.Append(&s)
		r.evaluateHealth(col)
	}
	rep := r.Health()
	if rep.Healthy {
		t.Fatal("live stall not reflected")
	}
	if rep.TotalAnomalies != 1 {
		t.Fatalf("TotalAnomalies = %d, want 1 (one episode, many evaluations)", rep.TotalAnomalies)
	}
	// Recovery then relapse: a second episode.
	for i := int64(9); i < 16; i++ {
		s := mkSample(i, 0)
		s.Stalls = 0
		col.ring.Append(&s)
		r.evaluateHealth(col)
	}
	if rep := r.Health(); !rep.Healthy {
		t.Fatalf("did not recover: %+v", rep)
	}
	for i := int64(16); i < 18; i++ {
		s := mkSample(i, 1)
		col.ring.Append(&s)
		r.evaluateHealth(col)
	}
	if rep := r.Health(); rep.TotalAnomalies != 2 {
		t.Fatalf("TotalAnomalies after relapse = %d, want 2", rep.TotalAnomalies)
	}
}
