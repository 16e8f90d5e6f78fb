package mely

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/melyruntime/mely/internal/obs"
)

// obsStress drives a bounded, spilling, imbalanced load through r so
// one run exercises every observability surface at once: steals (all
// colors home on core 0), spills (MaxQueuedEvents is tiny), sampled
// latency (callers pass ObsSampleRate 1), and the flight recorder.
func obsStress(t *testing.T, r *Runtime, events int) {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(events)
	h := r.Register("spin", func(ctx *Ctx) {
		deadline := time.Now().Add(50 * time.Microsecond)
		for time.Now().Before(deadline) {
		}
		wg.Done()
	}, WithCostEstimate(50*time.Microsecond))
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	cols := colorsOn(r, 0, 32)
	for i := 0; i < events; i++ {
		if err := r.Post(h, cols[i%len(cols)], i); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func obsStressConfig() Config {
	return Config{
		Cores:           4,
		MaxQueuedEvents: 64,
		OverloadPolicy:  OverloadSpill,
		ObsSampleRate:   1,
	}
}

// TestWriteMetricsExposition scrapes a loaded runtime and checks the
// exposition structurally — every family renders # HELP then # TYPE
// then only its own samples, no family twice — and numerically against
// the Stats snapshot the same moment should produce.
func TestWriteMetricsExposition(t *testing.T) {
	r := newRuntime(t, obsStressConfig())
	defer r.Close()
	obsStress(t, r, 800)

	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	// Structural walk: families are contiguous and typed before sampled.
	seen := map[string]bool{}
	var family string
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name := strings.Fields(line)[2]
			if seen[name] {
				t.Fatalf("family %s opened twice", name)
			}
			seen[name] = true
			family = name
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			if f[2] != family {
				t.Fatalf("TYPE %s outside its family (current %s)", f[2], family)
			}
			switch f[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("family %s has unknown type %q", family, f[3])
			}
		default:
			if family == "" || !strings.HasPrefix(line, family) {
				t.Fatalf("sample %q outside family %s", line, family)
			}
		}
	}
	for name := range seen {
		if !strings.HasPrefix(name, "mely_") {
			t.Errorf("family %s not in the mely_ namespace", name)
		}
	}

	samples, err := obs.ParseExposition(text)
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text)
	}
	st := r.Stats()
	var events float64
	for i := range st.Cores {
		events += samples[`mely_events_total{core="`+strconv.Itoa(i)+`"}`]
	}
	if want := float64(st.Total().Events); events != want {
		t.Errorf("mely_events_total sums to %v, Stats says %v", events, want)
	}
	if samples["mely_spilled_events_total"] == 0 {
		t.Error("bounded burst did not spill (mely_spilled_events_total = 0)")
	}
	if _, ok := obs.HistogramQuantile(samples, "mely_queue_delay_seconds", 0.99); !ok {
		t.Error("no mely_queue_delay_seconds histogram despite ObsSampleRate 1")
	}
	if _, ok := obs.HistogramQuantile(samples, "mely_exec_time_seconds", 0.99); !ok {
		t.Error("no mely_exec_time_seconds histogram despite ObsSampleRate 1")
	}
}

// TestMetricsMonotonicAcrossScrapes is the exposition-level mirror of
// TestStatsMonotonicity: between bursts of a steal/spill stress run,
// no counter-suffixed series may decrease or disappear. Run under
// -race this also shakes the sampled hot-path instrumentation.
func TestMetricsMonotonicAcrossScrapes(t *testing.T) {
	r := newRuntime(t, obsStressConfig())
	defer r.Close()
	var wg sync.WaitGroup
	h := r.Register("spin", func(ctx *Ctx) {
		deadline := time.Now().Add(20 * time.Microsecond)
		for time.Now().Before(deadline) {
		}
		wg.Done()
	}, WithCostEstimate(20*time.Microsecond))
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	scrape := func() map[string]float64 {
		var buf bytes.Buffer
		if err := r.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		samples, err := obs.ParseExposition(buf.String())
		if err != nil {
			t.Fatal(err)
		}
		return samples
	}
	cols := colorsOn(r, 0, 16)
	prev := scrape()
	for round := 0; round < 4; round++ {
		wg.Add(300)
		for i := 0; i < 300; i++ {
			if err := r.Post(h, cols[i%len(cols)], i); err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
		cur := scrape()
		if v := obs.MonotonicViolations(prev, cur); v != nil {
			t.Fatalf("round %d: %v", round, v)
		}
		prev = cur
	}
}

// TestDumpTraceFlightRecorder: a stressed runtime's dump must be a
// valid Chrome trace-event array carrying exec spans (named after the
// handler), steal-batch spans, spill instants, and per-track metadata.
func TestDumpTraceFlightRecorder(t *testing.T) {
	r := newRuntime(t, obsStressConfig())
	defer r.Close()
	obsStress(t, r, 800)
	if st := r.Stats().Total(); st.Steals == 0 {
		t.Skip("no steals this run; steal spans unverifiable")
	}

	var buf bytes.Buffer
	if err := r.DumpTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("dump is not a JSON array: %v", err)
	}
	var execSpans, stealSpans, spills, meta int
	for _, e := range out {
		name, _ := e["name"].(string)
		switch {
		case name == "spin" && e["ph"] == "X":
			execSpans++
		case strings.HasPrefix(name, "STEAL ×"):
			stealSpans++
		case name == "spill":
			spills++
		case name == "thread_name":
			meta++
		}
	}
	if execSpans == 0 {
		t.Error("no exec spans named after the handler")
	}
	if stealSpans == 0 {
		t.Error("steals happened but no steal spans survived in the ring")
	}
	if spills == 0 {
		t.Error("burst spilled but no spill instants on the aux track")
	}
	// One track per core plus the aux track.
	if want := len(r.cores) + 1; meta != want {
		t.Errorf("thread_name metadata count = %d, want %d", meta, want)
	}
}

// TestObsMuxServesRuntime mounts the real runtime behind obs.NewMux and
// exercises the HTTP surface servers get from -debug-addr.
func TestObsMuxServesRuntime(t *testing.T) {
	r := newRuntime(t, obsStressConfig())
	defer r.Close()
	obsStress(t, r, 400)

	mux := obs.NewMux(r, 0)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	metrics, ctype := get("/metrics")
	if !strings.Contains(ctype, "version=0.0.4") {
		t.Errorf("/metrics content type = %q", ctype)
	}
	if _, err := obs.ParseExposition(metrics); err != nil {
		t.Errorf("/metrics body does not parse: %v", err)
	}
	// Within the scrape-cache window a second scrape is byte-identical:
	// aggressive scrapers share one Stats walk.
	again, _ := get("/metrics")
	if again != metrics {
		t.Error("second scrape inside the cache window differs from the first")
	}

	trace, ctype := get("/debug/trace")
	if ctype != "application/json" {
		t.Errorf("/debug/trace content type = %q", ctype)
	}
	var arr []any
	if err := json.Unmarshal([]byte(trace), &arr); err != nil {
		t.Errorf("/debug/trace is not a JSON array: %v", err)
	}

	if body, _ := get("/debug/vars"); !strings.Contains(body, "memstats") {
		t.Error("/debug/vars missing expvar memstats")
	}
	get("/debug/pprof/cmdline")
}

// TestObsSamplingRateOne: at ObsSampleRate 1 every executed event is
// sampled, so the histogram counts tie out exactly against Events and
// the top-K table attributes every sample.
func TestObsSamplingRateOne(t *testing.T) {
	r := startRuntime(t, Config{Cores: 1, ObsSampleRate: 1})
	var wg sync.WaitGroup
	const n = 500
	wg.Add(n)
	h := r.Register("work", func(ctx *Ctx) { wg.Done() })
	for i := 0; i < n; i++ {
		if err := r.Post(h, Color(i%3), i); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	drain(t, r)
	st := r.Stats().Total()
	if st.Events != n {
		t.Fatalf("events = %d, want %d", st.Events, n)
	}
	if got := st.QueueDelayHist.Count(); got != n {
		t.Errorf("queue-delay samples = %d, want %d (rate 1 samples everything)", got, n)
	}
	if got := st.ExecTimeHist.Count(); got != n {
		t.Errorf("exec-time samples = %d, want %d", got, n)
	}
	if q := st.QueueDelayHist.Quantile(0.99); q <= 0 || q > time.Minute {
		t.Errorf("p99 queue delay = %v, want a sane positive duration", q)
	}
	if len(st.TopColorDelays) != 3 {
		t.Fatalf("top-K rows = %d, want 3 (one per posted color)", len(st.TopColorDelays))
	}
	var attributed int64
	for _, cd := range st.TopColorDelays {
		attributed += cd.Samples
	}
	if attributed != n {
		t.Errorf("attributed samples = %d, want %d (3 colors fit in top-%d)", attributed, n, ColorTopK)
	}
}

// postingPaths are the ways an event enters the runtime, each posting
// events events of handler h — which re-posts itself Data more times —
// over colors.
var postingPaths = []struct {
	name string
	cfg  Config // a bounded one is started only after posting
	post func(t *testing.T, r *Runtime, h Handler, colors []Color, events int)
}{
	{"Post", Config{}, func(t *testing.T, r *Runtime, h Handler, colors []Color, events int) {
		for i := 0; i < events; i++ {
			if err := r.Post(h, colors[i%len(colors)], 0); err != nil {
				t.Fatal(err)
			}
		}
	}},
	{"PostBatch", Config{}, func(t *testing.T, r *Runtime, h Handler, colors []Color, events int) {
		// 50-event batches: no multiple of the rate, so a per-batch
		// restart of the sequence would show.
		batch := make([]BatchEvent, 50)
		for i := range batch {
			batch[i] = BatchEvent{Handler: h, Color: colors[i%len(colors)], Data: 0}
		}
		for i := 0; i < events/len(batch); i++ {
			if err := r.PostBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
	}},
	{"Ctx.Post", Config{}, func(t *testing.T, r *Runtime, h Handler, colors []Color, events int) {
		// 64 chains on both cores.
		for i := 0; i < 64; i++ {
			if err := r.Post(h, colors[i%len(colors)], events/64-1); err != nil {
				t.Fatal(err)
			}
		}
	}},
	{"timers", Config{}, func(t *testing.T, r *Runtime, h Handler, colors []Color, events int) {
		for i := 0; i < events; i++ {
			if _, err := r.PostAfter(h, colors[i%len(colors)], 0, 0); err != nil {
				t.Fatal(err)
			}
		}
	}},
	// Posted before Start, so all but the first 64 events go to disk
	// and come back through a worker's reload.
	{"spill", Config{MaxQueuedEvents: 64, OverloadPolicy: OverloadSpill}, func(t *testing.T, r *Runtime, h Handler, colors []Color, events int) {
		for i := 0; i < events; i++ {
			if err := r.Post(h, colors[i%8], 0); err != nil {
				t.Fatal(err)
			}
		}
	}},
}

// runPostingPaths runs every posting path on its own two-core runtime —
// cfg over the path's own — until its events have executed and drained,
// then hands the runtime to check.
func runPostingPaths(t *testing.T, cfg Config, events int, check func(t *testing.T, r *Runtime)) {
	for _, p := range postingPaths {
		t.Run(p.name, func(t *testing.T) {
			cfg := cfg
			cfg.Cores = 2
			cfg.MaxQueuedEvents, cfg.OverloadPolicy = p.cfg.MaxQueuedEvents, p.cfg.OverloadPolicy
			r := newRuntime(t, cfg)
			t.Cleanup(r.Stop)
			if !r.Bounded() {
				if err := r.Start(); err != nil {
					t.Fatal(err)
				}
			}
			var ran atomic.Int64
			var h Handler
			h = r.Register("work", func(ctx *Ctx) {
				defer ran.Add(1)
				if n := ctx.Data().(int); n > 0 {
					if err := ctx.Post(h, ctx.Color(), n-1); err != nil {
						t.Error(err)
					}
				}
			})
			p.post(t, r, h, append(colorsOn(r, 0, 32), colorsOn(r, 1, 32)...), events)
			if r.Bounded() {
				if err := r.Start(); err != nil {
					t.Fatal(err)
				}
			}
			// Armed timers are not pending events yet: wait for the count.
			for deadline := time.Now().Add(60 * time.Second); ran.Load() < int64(events) && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			drain(t, r)
			st := r.Stats()
			if n := st.Total().Events; n != int64(events) {
				t.Fatalf("%d events ran, want %d", n, events)
			}
			if r.Bounded() && st.ReloadedEvents != int64(events-64) {
				t.Fatalf("%d of %d events took the disk round trip, want all but 64", st.ReloadedEvents, events)
			}
			check(t, r)
		})
	}
}

// TestObsSamplingShare: every posting path ticks a sampling sequence
// exactly once per event — the worker's own for Ctx.Post, timer firings
// and reloads, the shared one (reserved per batch by PostBatch) for
// everyone else — so on each path the sampled share of executed events
// stays within 20 % of 1/ObsSampleRate.
func TestObsSamplingShare(t *testing.T) {
	const rate, events = 16, 32000
	runPostingPaths(t, Config{ObsSampleRate: rate}, events, func(t *testing.T, r *Runtime) {
		got, want := float64(r.Stats().Total().QueueDelayHist.Count()), float64(events)/rate
		if got < 0.8*want || got > 1.2*want {
			t.Errorf("%v of %d events sampled, want %v +-20%%", got, events, want)
		}
	})
}

// TestPostRecordOnEveryPath: whichever way a sampled event came in, the
// flight recorder holds the instant it entered its queue — a post record
// written at delivery, or the timer firing — so melytrace reads its queue
// delay off the trace. PostBatch deliveries used to write none.
func TestPostRecordOnEveryPath(t *testing.T) {
	const events = 3200
	runPostingPaths(t, Config{ObsSampleRate: 1, TraceRing: 1 << 14}, events, func(t *testing.T, r *Runtime) {
		var buf bytes.Buffer
		if err := r.DumpTrace(&buf); err != nil {
			t.Fatal(err)
		}
		idx, err := obs.ParseFlowDump(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(idx.Spans) != events {
			t.Fatalf("%d executed spans in the dump, want %d", len(idx.Spans), events)
		}
		missing := 0
		for _, s := range idx.Spans {
			if s.PostTs < 0 {
				missing++
			}
		}
		if missing > 0 {
			t.Errorf("%d of %d executed spans have no post or timer instant", missing, events)
		}
	})
}

// TestObsDisabled: negative knobs must shut both pillars off — no
// samples, no attribution, and an empty (but valid) trace dump.
func TestObsDisabled(t *testing.T) {
	r := startRuntime(t, Config{Cores: 2, ObsSampleRate: -1, TraceRing: -1})
	var wg sync.WaitGroup
	wg.Add(100)
	h := r.Register("work", func(ctx *Ctx) { wg.Done() })
	for i := 0; i < 100; i++ {
		if err := r.Post(h, Color(i), i); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	drain(t, r)
	st := r.Stats().Total()
	if st.QueueDelayHist.Count() != 0 || st.ExecTimeHist.Count() != 0 {
		t.Error("latency samples recorded despite ObsSampleRate -1")
	}
	if len(st.TopColorDelays) != 0 {
		t.Error("per-color attribution recorded despite ObsSampleRate -1")
	}
	var buf bytes.Buffer
	if err := r.DumpTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("disabled-recorder dump = %q, want empty JSON array", got)
	}
	// Metrics still render (zero-valued): the exposition surface does
	// not depend on the sampling knobs.
	buf.Reset()
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ParseExposition(buf.String()); err != nil {
		t.Errorf("exposition with obs disabled does not parse: %v", err)
	}
}

// TestStatsTotalAggregatesEveryField is the satellite-b audit, made
// permanent: fill every numeric leaf of two per-core snapshots with
// distinct values via reflection and require Total() to reflect each
// one. A future CoreStats field that Total() drops fails here with the
// field's name; a field of a kind the walk doesn't know fails asking
// for the guard to be extended.
func TestStatsTotalAggregatesEveryField(t *testing.T) {
	fill := func(cs *CoreStats, mult int64) {
		seq := int64(0)
		var walk func(path string, v reflect.Value)
		walk = func(path string, v reflect.Value) {
			switch v.Kind() {
			case reflect.Int, reflect.Int64:
				seq++
				v.SetInt(seq * mult)
			case reflect.Array:
				for i := 0; i < v.Len(); i++ {
					walk(path, v.Index(i))
				}
			case reflect.Struct:
				for i := 0; i < v.NumField(); i++ {
					walk(path+"."+v.Type().Field(i).Name, v.Field(i))
				}
			case reflect.Slice:
				// TopColorDelays: one row for a shared color so Total()
				// must fold the cores' rows together.
				seq++
				v.Set(reflect.ValueOf([]ColorDelay{
					{Color: 7, Samples: seq * mult, Delay: time.Duration(seq * mult)},
				}))
			default:
				t.Fatalf("CoreStats field %s has kind %v: extend this guard "+
					"AND Stats.Total before shipping it", path, v.Kind())
			}
		}
		walk("", reflect.ValueOf(cs).Elem())
	}
	s := Stats{Cores: make([]CoreStats, 2)}
	fill(&s.Cores[0], 1)
	fill(&s.Cores[1], 2)
	total := s.Total()

	seq := int64(0)
	var check func(path string, v reflect.Value)
	check = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			seq++
			if v.Int() != 3*seq {
				t.Errorf("Total() dropped or miscounted %s: got %d, want %d",
					path, v.Int(), 3*seq)
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walkIndex := path + "[" + strconv.Itoa(i) + "]"
				check(walkIndex, v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				check(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Slice:
			seq++
			rows := v.Interface().([]ColorDelay)
			if len(rows) != 1 || rows[0].Color != 7 ||
				rows[0].Samples != 3*seq || rows[0].Delay != time.Duration(3*seq) {
				t.Errorf("Total() did not merge %s: %+v (want one color-7 row with %d samples)",
					path, rows, 3*seq)
			}
		}
	}
	check("", reflect.ValueOf(total))
}
