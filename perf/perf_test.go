package main

import (
	"bufio"
	"net"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

const specPath = "../BENCHMARK.json"

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// smoke is the shortest run shape that still exercises every code path:
// no warm-up, one 0.2 s window, one set-up.
var smoke = runShape{window: 200 * time.Millisecond, windows: 1}

// TestEveryWorkloadEmitsEveryEndToEndMetric is the tier-1 smoke: each
// workload of BENCHMARK.json runs, is correct, and reports exactly the
// end-to-end metrics the spec names.
func TestEveryWorkloadEmitsEveryEndToEndMetric(t *testing.T) {
	spec := testSpec(t)
	if len(spec.Workloads) != len(workloadMakers) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloadMakers))
	}
	for _, wd := range spec.Workloads {
		mk, ok := workloadMakers[wd.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the program does not have", wd.Name)
		}
		res, err := runEndToEnd(spec, wd.Name, mk, 1, smoke)
		if err != nil {
			t.Fatalf("%s: %v", wd.Name, err)
		}
		// The mechanism guards (a share of the wave must spill, core 1
		// must work by stealing) assume uninstrumented timing: the race
		// detector slows the producer more than the workers, and a run
		// may then, rightly, call itself invalid. No op may fail either way.
		if (!res.Correct && !raceEnabled) || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", wd.Name, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(spec.EndToEnd) {
			t.Errorf("%s: %d metrics, want %d", wd.Name, len(res.Metrics), len(spec.EndToEnd))
		}
		for _, d := range spec.EndToEnd {
			if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit || v.Value <= 0 {
				t.Errorf("%s: %s = %+v (present %v), want a positive value in %s", wd.Name, d.Name, v, ok, d.Unit)
			}
		}
	}
}

// TestTracedRunEmitsEveryPerLayerMetric runs one --trace 1 run end to
// end: every per-layer metric of the spec is produced (report fails on a
// missing one) and the Chrome trace is written.
func TestTracedRunEmitsEveryPerLayerMetric(t *testing.T) {
	spec := testSpec(t)
	dir := t.TempDir()
	res, err := runTraced(spec, "events_chain", workloadMakers["events_chain"], 1, time.Second, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(spec.PerLayer) {
		t.Fatalf("correct=%v, %d metrics, want %d", res.Correct, len(res.Metrics), len(spec.PerLayer))
	}
	raw, err := os.ReadFile(dir + "/events_chain.trace.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{`"wave"`, `"mely.postbatch"`, `"mely.queue_wait"`, `"handler.exec"`, `"mely.post"`} {
		if !strings.Contains(string(raw), name) {
			t.Errorf("trace has no %s span", name)
		}
	}
}

func TestSpecNames(t *testing.T) {
	spec := testSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, d := range append(append([]metricDef{}, spec.EndToEnd...), spec.PerLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range spec.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	hasSetup := false
	for _, d := range spec.EndToEnd {
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better")
	}
}

// TestGuardsFireOnCorruptedResponse points the sws clients at a server
// that answers every GET with the right headers and the wrong body: every
// op must count as failed, none as done.
func TestGuardsFireOnCorruptedResponse(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				reply := "HTTP/1.1 200 OK\r\nContent-Length: 1024\r\n\r\n" + strings.Repeat("x", swsFileBytes)
				for {
					line, err := br.ReadString('\n')
					if err != nil {
						return
					}
					if line == "\r\n" { // end of one request head
						if _, err := conn.Write([]byte(reply)); err != nil {
							return
						}
					}
				}
			}()
		}
	}()
	for _, pipelined := range []bool{false, true} {
		w := newSwsWL(pipelined, runCfg{seed: 1})
		w.addr = ln.Addr().String()
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		c := w.run(50 * time.Millisecond)
		w.teardown()
		if c.ops != 0 || c.failed == 0 || c.failed != c.attempted {
			t.Errorf("pipelined=%v: ops=%d attempted=%d failed=%d, want every op failed", pipelined, c.ops, c.attempted, c.failed)
		}
	}
}

func TestMechanismGuards(t *testing.T) {
	for _, tc := range []struct {
		name  string
		share float64
		fires bool
	}{
		{"events_unbalanced", 0.1, true},
		{"events_unbalanced", 0.4, false},
		{"events_chain", 0.2, true},
		{"events_chain", 0.01, false},
		{"sws_closed", 0.5, false},
	} {
		got := guards(tc.name, metrics{"steal.stolen_time_share": tc.share})
		if (len(got) > 0) != tc.fires {
			t.Errorf("%s at share %v: guards = %v, want fires=%v", tc.name, tc.share, got, tc.fires)
		}
	}
}

// TestLockedInPassIsMeasuredAgain gives runPass a workload that never
// steals under the name whose guard demands stealing: the pass is
// re-measured on a fresh instance up to the retry limit and then reported
// invalid, while the same workload under its own name is measured once.
func TestLockedInPassIsMeasuredAgain(t *testing.T) {
	built := 0
	mk := func(c runCfg) workload {
		built++
		return newEventsWL(kindChain, c)
	}
	mp, err := runPass("events_unbalanced", mk, runCfg{seed: 1}, 0, 20*time.Millisecond, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mp.ok || built != maxLockInRetries+1 {
		t.Errorf("ok=%v after %d instances, want an invalid pass after %d", mp.ok, built, maxLockInRetries+1)
	}
	built = 0
	if mp, err = runPass("events_chain", mk, runCfg{seed: 1}, 0, 20*time.Millisecond, 1, nil); err != nil || !mp.ok || built != 1 {
		t.Errorf("events_chain: ok=%v err=%v after %d instances, want a valid pass after 1", mp.ok, err, built)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "lat", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		d    metricDef
		a, b spread
		want string
	}{
		{lower, spread{Median: 100, Min: 98, Max: 102}, spread{Median: 120, Min: 118, Max: 123}, "REGRESSION"},
		{lower, spread{Median: 100, Min: 90, Max: 125}, spread{Median: 120, Min: 118, Max: 123}, "unresolved"},
		{lower, spread{Median: 100, Min: 98, Max: 102}, spread{Median: 103, Min: 101, Max: 105}, "ok"},
		{lower, spread{Median: 100, Min: 80, Max: 120}, spread{Median: 103, Min: 85, Max: 125}, "unresolved"},
		{higher, spread{Median: 100, Min: 98, Max: 102}, spread{Median: 80, Min: 78, Max: 82}, "REGRESSION"},
		{higher, spread{Median: 100, Min: 98, Max: 102}, spread{Median: 130, Min: 128, Max: 132}, "ok"},
	} {
		if got, _ := judge(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %+v → %+v: %s, want %s", tc.d.Name, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer(1)
	b := tr.client(0)
	root := b.add(spWave, 0, 1, 0, 100)
	b.add(spPostBatch, root, 1, 10, 40)
	b.add(spPostBatch, root, 1, 30, 60)  // overlaps the first: the union covers 10..60
	b.add(spPostBatch, root, 1, 90, 130) // clipped to the parent's end
	stats, _, _ := tr.summarize()
	if got := stats["wave"].SelfUS; got != 0.040 {
		t.Errorf("wave self time = %v µs, want 0.040 (100 ns − 50 ns − 10 ns covered)", got)
	}
}
