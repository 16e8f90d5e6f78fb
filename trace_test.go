package mely

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/melyruntime/mely/internal/equeue"
	"github.com/melyruntime/mely/internal/obs"
)

// hopIDs captures the causal identifiers a handler observed, keyed by
// a test-chosen hop name, so a test can assert the exact parent→child
// structure the runtime stamped.
type hopIDs struct {
	mu     sync.Mutex
	trace  map[string]uint64
	span   map[string]uint64
	parent map[string]uint64
}

func newHopIDs() *hopIDs {
	return &hopIDs{
		trace:  map[string]uint64{},
		span:   map[string]uint64{},
		parent: map[string]uint64{},
	}
}

func (h *hopIDs) record(name string, ctx *Ctx) {
	h.mu.Lock()
	h.trace[name] = ctx.TraceID()
	h.span[name] = ctx.SpanID()
	h.parent[name] = ctx.ev.ParentSpan
	h.mu.Unlock()
}

// TestFlowMultiHopChain is the tentpole acceptance test: one request
// crossing every hop kind — ingress post → handler-derived post →
// timer firing → spill+reload → final post — must carry a single trace
// id end to end, and the flight-recorder dump must reconstruct the
// same five-hop chain through obs.FlowIndex.
//
// Spill leg mechanics: a blocker handler parks spillColor's home
// worker, so the blocker's event plus one filler hold the per-color
// bound (noteExec runs after the handler returns) and the next post of
// that color spills and marks the color's tail as on disk. The chain's
// fourth hop then posts into the spilling color from a handler,
// landing on disk with its parent's lineage; releasing the blocker
// drains the color, reloads the tail, and lets the chain finish.
func TestFlowMultiHopChain(t *testing.T) {
	r := startRuntime(t, Config{
		Cores:             2,
		MaxQueuedPerColor: 2,
		OverloadPolicy:    OverloadSpill,
		SpillDir:          t.TempDir(),
		ObsSampleRate:     1,
	})
	ids := newHopIDs()
	release := make(chan struct{})
	blocked := make(chan struct{})
	done := make(chan struct{})

	spillColor := colorsOn(r, 0, 1)[0]
	free := colorsOn(r, 1, 4)

	hBlock := r.Register("block", func(ctx *Ctx) { close(blocked); <-release })
	hFill := r.Register("fill", func(ctx *Ctx) {})
	h5 := r.Register("leaf", func(ctx *Ctx) { ids.record("leaf", ctx); close(done) })
	h4 := r.Register("spillhop", func(ctx *Ctx) {
		ids.record("spillhop", ctx)
		if err := ctx.Post(h5, free[3], nil); err != nil {
			t.Error(err)
		}
	})
	h3 := r.Register("timerhop", func(ctx *Ctx) {
		ids.record("timerhop", ctx)
		if err := ctx.Post(h4, spillColor, nil); err != nil {
			t.Error(err)
		}
	})
	h2 := r.Register("deriver", func(ctx *Ctx) {
		ids.record("deriver", ctx)
		if _, err := ctx.PostAfter(h3, free[2], time.Millisecond, nil); err != nil {
			t.Error(err)
		}
	})
	h1 := r.Register("ingress", func(ctx *Ctx) {
		ids.record("ingress", ctx)
		if err := ctx.Post(h2, free[1], nil); err != nil {
			t.Error(err)
		}
	})

	// Saturate spillColor: the blocker executes (still counted in mem
	// until it returns), one filler queues behind it, and the second
	// filler exceeds the bound — spilled, color marked spilling.
	if err := r.Post(hBlock, spillColor, nil); err != nil {
		t.Fatal(err)
	}
	<-blocked
	for i := 0; i < 2; i++ {
		if err := r.Post(hFill, spillColor, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Stats().SpilledEvents; got != 1 {
		t.Fatalf("SpilledEvents = %d after saturation, want 1", got)
	}

	// Drive the chain: hops 1–3 run on core 1 (their colors home
	// there); hop 4 targets the spilling color and must land on disk.
	if err := r.Post(h1, free[0], nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.Stats().SpilledEvents < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("spillhop never reached disk: SpilledEvents = %d", r.Stats().SpilledEvents)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-done
	drain(t, r)

	st := r.Stats()
	if st.SpilledEvents < 2 || st.ReloadedEvents < 2 {
		t.Errorf("spill round-trip: spilled=%d reloaded=%d, want >= 2 each",
			st.SpilledEvents, st.ReloadedEvents)
	}

	// Every hop saw the same nonzero trace, parented by the previous
	// hop's span — including across the timer arm and the disk
	// round-trip.
	ids.mu.Lock()
	defer ids.mu.Unlock()
	chain := []string{"ingress", "deriver", "timerhop", "spillhop", "leaf"}
	trace := ids.trace["ingress"]
	if trace == 0 {
		t.Fatal("ingress hop has no trace id")
	}
	if ids.parent["ingress"] != 0 {
		t.Errorf("ingress parent = %#x, want 0 (trace root)", ids.parent["ingress"])
	}
	for i, hop := range chain {
		if ids.trace[hop] != trace {
			t.Errorf("%s trace = %#x, want %#x", hop, ids.trace[hop], trace)
		}
		if ids.span[hop] == 0 {
			t.Errorf("%s has no span id", hop)
		}
		if i > 0 && ids.parent[hop] != ids.span[chain[i-1]] {
			t.Errorf("%s parent = %#x, want %s's span %#x",
				hop, ids.parent[hop], chain[i-1], ids.span[chain[i-1]])
		}
	}

	// The dump must reconstruct the same chain: connected, depth 5,
	// five hops from root to leaf.
	var buf bytes.Buffer
	if err := r.DumpTrace(&buf); err != nil {
		t.Fatal(err)
	}
	idx, err := obs.ParseFlowDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !idx.Connected(trace) {
		t.Errorf("trace %#x not connected in the dump", trace)
	}
	if d := idx.Depth(trace); d != 5 {
		t.Errorf("Depth(%#x) = %d, want 5", trace, d)
	}
	if roots := idx.Roots[trace]; len(roots) != 1 || roots[0].Span != ids.span["ingress"] {
		t.Errorf("Roots(%#x) = %+v, want exactly the ingress span %#x",
			trace, roots, ids.span["ingress"])
	}
	// The five hops, leaf to root through the dump's parent links.
	hop := idx.Spans[ids.span["leaf"]]
	for i := len(chain) - 1; i >= 0; i-- {
		if hop == nil || hop.Span != ids.span[chain[i]] || hop.Handler != chain[i] {
			t.Fatalf("hop %d of the dumped chain is %+v, want %s span %#x", i, hop, chain[i], ids.span[chain[i]])
		}
		hop = idx.Spans[hop.Parent]
	}
	// The critical path is that chain up to whichever span finished
	// last: leaf, or spillhop when leaf (core 1) ran to its end before
	// the handler that posted it (core 0) returned.
	path := idx.CriticalPath(trace)
	if len(path) < 4 || len(path) > 5 {
		t.Fatalf("CriticalPath length = %d, want 4 or 5", len(path))
	}
	for i, s := range path {
		if s.Span != ids.span[chain[i]] {
			t.Errorf("critical path hop %d is %q span %#x, want %s span %#x",
				i, s.Handler, s.Span, chain[i], ids.span[chain[i]])
		}
	}
	for _, s := range path {
		if idx.QueueDelayMicros(s) < 0 {
			t.Errorf("span %#x: negative queue delay", s.Span)
		}
	}
}

// TestFlowConnectedUnderSteals: events migrate wholesale on a steal,
// so causal ids must survive arbitrary migration. All load lands on
// core 0's colors while four workers run; the thieves' executions must
// still reconstruct into fully connected two-hop traces — no orphans.
func TestFlowConnectedUnderSteals(t *testing.T) {
	r := startRuntime(t, Config{Cores: 4, ObsSampleRate: 1, TraceRing: 1 << 16})
	spin := func(d time.Duration) {
		for end := time.Now().Add(d); time.Now().Before(end); {
		}
	}
	var wg sync.WaitGroup
	hChild := r.Register("child", func(ctx *Ctx) { spin(50 * time.Microsecond); wg.Done() })
	hRoot := r.Register("root", func(ctx *Ctx) {
		spin(50 * time.Microsecond)
		if err := ctx.Post(hChild, ctx.Color(), nil); err != nil {
			t.Error(err)
		}
	})
	cols := colorsOn(r, 0, 32)
	const n = 800
	wg.Add(n)
	for i := 0; i < n; i++ {
		if err := r.Post(hRoot, cols[i%len(cols)], i); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	drain(t, r)
	st := r.Stats().Total()
	if st.Steals == 0 {
		t.Skip("no steals under this scheduling; nothing to verify")
	}

	var buf bytes.Buffer
	if err := r.DumpTrace(&buf); err != nil {
		t.Fatal(err)
	}
	idx, err := obs.ParseFlowDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Orphans) != 0 {
		t.Errorf("%d orphan spans after steals (ring holds %d records/core, all %d chains fit)",
			len(idx.Orphans), 1<<16, n)
	}
	deep := 0
	for trace := range idx.Traces {
		if idx.Depth(trace) == 2 {
			deep++
		}
	}
	if deep == 0 {
		t.Error("no two-hop traces reconstructed")
	}
	if st.StolenEvents > 0 {
		stolen := false
		for _, s := range idx.Spans {
			if s.Stolen {
				stolen = true
				break
			}
		}
		if !stolen {
			t.Error("StolenEvents > 0 but no span in the dump is marked stolen")
		}
	}
}

// TestTraceLineageSurvivesRestart extends the PR 7 two-runtime restart
// test with causal lineage: a spilled record's trace/span/parent ids
// must survive the disk round trip across a process restart. Run 1 is
// never started (PR 7's pattern), so posts past the bound spill under
// SpillSyncAlways and stay durable at Stop; run 2 recovers the backlog
// and the reloaded events must execute with run 1's identifiers — a
// root that founded its own trace, and an internal continuation still
// parented by run 1's (synthetic) posting span.
func TestTraceLineageSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Cores:             2,
		MaxQueuedPerColor: 2,
		OverloadPolicy:    OverloadSpill,
		SpillDir:          dir,
		SpillSync:         SpillSyncAlways,
		SpillRecover:      true,
	}
	const (
		parentTrace = 0x4242
		parentSpan  = 0x77
	)

	rt1 := newRuntime(t, cfg)
	hWork := rt1.Register("work", func(ctx *Ctx) {})
	color := colorsOn(rt1, 0, 1)[0]
	// Two in-memory posts fill the bound (they drop at Stop); the third
	// spills as a trace root. The fourth takes the internal posting
	// path with an explicit parent — exactly what Ctx.Post passes when
	// a handler posts into a spilling color.
	for seq := 0; seq < 3; seq++ {
		if err := rt1.Post(hWork, color, seq); err != nil {
			t.Fatal(err)
		}
	}
	parent := &Ctx{r: rt1, ev: &equeue.Event{TraceID: parentTrace, SpanID: parentSpan}}
	if err := rt1.post(nil, parent, hWork, color, 200, false); err != nil {
		t.Fatal(err)
	}
	if got := rt1.Stats().SpilledEvents; got != 2 {
		t.Fatalf("run 1 SpilledEvents = %d, want 2", got)
	}
	rt1.Stop()

	type seen struct{ trace, span, parent uint64 }
	var mu sync.Mutex
	got := map[int]seen{}
	rt2 := newRuntime(t, cfg)
	hWork2 := rt2.Register("work", func(ctx *Ctx) {
		mu.Lock()
		got[ctx.Data().(int)] = seen{ctx.TraceID(), ctx.SpanID(), ctx.ev.ParentSpan}
		mu.Unlock()
	})
	_ = hWork2
	if st := rt2.Stats(); st.RecoveredEvents != 2 || st.TornRecords != 0 {
		t.Fatalf("recovery: recovered=%d torn=%d, want 2/0", st.RecoveredEvents, st.TornRecords)
	}
	if err := rt2.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt2.Stop)
	drain(t, rt2)

	mu.Lock()
	defer mu.Unlock()
	root, ok := got[2]
	if !ok {
		t.Fatalf("spilled root (data 2) never executed; got %v", got)
	}
	if root.trace == 0 || root.trace != root.span || root.parent != 0 {
		t.Errorf("recovered root ids = %+v, want trace == span != 0, parent 0", root)
	}
	child, ok := got[200]
	if !ok {
		t.Fatalf("spilled continuation (data 200) never executed; got %v", got)
	}
	if child.trace != parentTrace || child.parent != parentSpan {
		t.Errorf("recovered continuation = %+v, want trace %#x parent %#x across restart",
			child, uint64(parentTrace), uint64(parentSpan))
	}
	if child.span == 0 || child.span == root.span {
		t.Errorf("recovered continuation span = %#x, want nonzero and distinct from root %#x",
			child.span, root.span)
	}
}

// TestTraceRingDisabledZeroAlloc: TraceRing: -1 must pay zero bytes
// per event — no id stamping, no ring append, no per-post allocation
// anywhere on the post→execute→complete path.
func TestTraceRingDisabledZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc accounting is meaningless")
	}
	r := startRuntime(t, Config{Cores: 1, TraceRing: -1, ObsSampleRate: -1})
	done := make(chan struct{}, 1)
	h := r.Register("noop", func(ctx *Ctx) { done <- struct{}{} })

	// A GC during the measured loop can clear the event pool and charge
	// a spurious refill allocation to us; retry a couple of times and
	// require one clean measurement.
	var allocs float64
	for attempt := 0; attempt < 3; attempt++ {
		allocs = testing.AllocsPerRun(200, func() {
			if err := r.Post(h, 7, nil); err != nil {
				t.Fatal(err)
			}
			<-done
		})
		if allocs == 0 {
			return
		}
	}
	t.Errorf("TraceRing: -1 runtime allocates %.3f per post/execute, want 0", allocs)
}

// TestStallWatchdog: a handler parked past StallThreshold is reported
// exactly once per episode — the stalled-cores gauge rises, the
// per-core stall counter ticks, a goroutine stack is captured, a STALL
// instant lands in the flight recorder — and the gauge clears when the
// handler finally returns.
func TestStallWatchdog(t *testing.T) {
	r := startRuntime(t, Config{Cores: 2, StallThreshold: 20 * time.Millisecond})
	release := make(chan struct{})
	entered := make(chan struct{})
	var traceID atomic.Uint64
	h := r.Register("stuck", func(ctx *Ctx) {
		traceID.Store(ctx.TraceID())
		close(entered)
		<-release
	})
	if err := r.Post(h, 1, nil); err != nil {
		t.Fatal(err)
	}
	<-entered

	deadline := time.Now().Add(5 * time.Second)
	for r.Stats().StalledCores == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never flagged the parked handler")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Several watchdog ticks pass while the handler stays parked; the
	// episode must still be counted once.
	time.Sleep(60 * time.Millisecond)
	st := r.Stats()
	if st.StalledCores != 1 {
		t.Errorf("StalledCores = %d, want 1", st.StalledCores)
	}
	if total := st.Total(); total.Stalls != 1 {
		t.Errorf("Stalls = %d, want exactly 1 per episode", total.Stalls)
	}
	stack := r.LastStallStack()
	if !bytes.Contains(stack, []byte("goroutine")) {
		t.Errorf("LastStallStack has no goroutine dump (len %d)", len(stack))
	}
	var metrics bytes.Buffer
	if err := r.WriteMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mely_stalled_cores 1", "mely_stalls_total"} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	var dump bytes.Buffer
	if err := r.DumpTrace(&dump); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dump.String(), "STALL") {
		t.Error("flight recorder has no STALL instant")
	}

	close(release)
	deadline = time.Now().Add(5 * time.Second)
	for r.Stats().StalledCores != 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled-cores gauge never cleared after the handler returned")
		}
		time.Sleep(5 * time.Millisecond)
	}
	drain(t, r)
}
