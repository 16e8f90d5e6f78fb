package obs

import (
	"bytes"
	"flag"
	"os"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden files from this run")

// checkGolden compares got against testdata/<name>, byte for byte.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := "testdata/" + name
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the committed wire format:\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}

// TestTimeSeriesJSONGolden pins the /debug/timeseries document for a
// fixed sample pair: every key, its order and each value's format, as
// the endpoint's consumers (melytop, incident bundles) read them.
func TestTimeSeriesJSONGolden(t *testing.T) {
	ts := NewTimeSeries(8, 2, 500*time.Millisecond)
	a := TSSample{
		WallNanos: 1_700_000_000_000_000_000, MonoNanos: 1_000_000_000,
		Events: 1000, Posts: 1100, ExecNanos: 400_000_000,
		Steals: 10, StealAttempts: 40, FailedSteals: 30,
		SpilledEvents: 5, SpilledBytes: 640, Stalls: 1,
		QueuedEvents: 12, SpilledNow: 3,
		Cores: []TSCore{
			{Events: 700, ExecNanos: 300_000_000, Steals: 2, StealAttempts: 8, FailedSteals: 6, BackoffParks: 4, Queued: 9},
			{Events: 300, ExecNanos: 100_000_000, Steals: 8, StealAttempts: 32, FailedSteals: 24, BackoffParks: 20, Stalls: 1, Queued: 3},
		},
	}
	a.QDelay[3], a.QDelay[10], a.Exec[2] = 90, 10, 100
	b := a
	b.WallNanos += 750_000_000
	b.MonoNanos += 750_000_000
	b.Events, b.Posts, b.ExecNanos = 4000, 4300, 1_300_000_000
	b.Steals, b.StealAttempts, b.FailedSteals = 25, 100, 75
	b.SpilledEvents, b.SpilledBytes, b.Stalls = 65, 8320, 3
	b.QueuedEvents, b.SpilledNow, b.StalledCores = 40, 33, 1
	b.Cores = []TSCore{
		{Events: 2200, ExecNanos: 900_000_000, Steals: 5, StealAttempts: 20, FailedSteals: 15, BackoffParks: 10, Queued: 30},
		{Events: 1800, ExecNanos: 400_000_000, Steals: 20, StealAttempts: 80, FailedSteals: 60, BackoffParks: 50, Stalls: 3, Queued: 10},
	}
	b.QDelay[3], b.QDelay[10], b.QDelay[NumLatencyBuckets-1] = 280, 25, 5
	b.Exec[2], b.Exec[6] = 390, 10
	ts.Append(&a)
	ts.Append(&b)

	var buf bytes.Buffer
	if err := ts.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "timeseries.golden.json", buf.Bytes())
}

// TestWriteChromeGolden pins /debug/trace for one record of every kind
// on two core tracks and the auxiliary one, flow arrows included.
func TestWriteChromeGolden(t *testing.T) {
	core0 := NewRing(64)
	core0.AppendFlow(KindExec, 1000, 500, 7, 2|StolenFlag, 11, 12, 0)
	core0.AppendFlow(KindExec, 1800, 100, 8, 3, 11, 13, 12)
	core0.Append(KindSteal, 2000, 300, 1, 3)
	core0.AppendFlow(KindPost, 2500, 0, 7, 2, 11, 14, 12)
	core0.Append(KindReHome, 2600, 0, 7, 0)
	core0.AppendFlow(KindTimerFire, 2700, 150, 9, 1, 21, 22, 0)
	core1 := NewRing(64)
	core1.AppendFlow(KindExec, 1900, 50, 9, 2, 11, 15, 13)
	aux := NewRing(64)
	aux.AppendFlow(KindSpill, 3000, 0, 7, 42, 11, 16, 12)
	aux.Append(KindReload, 3100, 0, 7, 16)
	aux.Append(KindPollWake, 3200, 0, 0, 8)
	aux.AppendFlow(KindStall, 3300, 5000, 1, 2, 11, 15, 0)
	tracks := []Track{
		{"core 0", core0.Snapshot(nil)},
		{"core 1", core1.Snapshot(nil)},
		{"io/spill", aux.Snapshot(nil)},
	}
	var buf bytes.Buffer
	err := WriteChrome(&buf, tracks, ChromeConfig{HandlerName: func(id uint32) string {
		if id == 2 {
			return "request"
		}
		return ""
	}})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "chrome.golden.json", buf.Bytes())
}
