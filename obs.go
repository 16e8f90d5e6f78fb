package mely

import (
	"io"
	goruntime "runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/melyruntime/mely/internal/equeue"
	"github.com/melyruntime/mely/internal/obs"
	"github.com/melyruntime/mely/internal/spinlock"
)

// This file is the live-observability bridge: the sampled latency
// instrumentation fed from the hot path (observeExec), the per-color
// delay attribution, the poll counters readiness backends report into
// (NotePollWakeup, NoteWriteStall, NoteReadPause), the flight-recorder
// plumbing (traceAux, DumpTrace), and the Prometheus text exposition
// (WriteMetrics). The primitives live in internal/obs; a Runtime is an
// obs.Source, so servers mount all of it over HTTP with obs.NewMux:
//
//	mux := obs.NewMux(rt, 0) // 0: cache /metrics for the default 250ms
//	go http.Serve(listener, mux)

// A Runtime is what obs.NewMux and obs.StartDebugServer serve.
var _ obs.Source = (*Runtime)(nil)

// colorDelayEntry is one tracked color's sampled-delay attribution.
// samples == 0 marks a free slot (color 0 is a valid color).
type colorDelayEntry struct {
	color   Color
	samples int64
	delay   int64
}

// colorDelayTable attributes sampled queue delay to a core's hottest
// colors: a fixed ColorTopK-entry table with Misra-Gries-style
// eviction (a sample of an untracked color decrements the smallest
// entry; the slot turns over once it empties). Hot colors survive the
// churn, so the attribution is exact for a stable hot set and
// conservative (undercounted) for the tail. Writers are the core's own
// worker on sampled events only; Stats snapshots concurrently, so the
// table carries its own spinlock rather than relying on c.lock.
type colorDelayTable struct {
	mu      spinlock.Lock
	entries [ColorTopK]colorDelayEntry
}

// note records one sampled queue delay for color.
func (t *colorDelayTable) note(color Color, delayNanos int64) {
	t.mu.Lock()
	minIdx, freeIdx := -1, -1
	for i := range t.entries {
		e := &t.entries[i]
		if e.samples == 0 {
			if freeIdx < 0 {
				freeIdx = i
			}
			continue
		}
		if e.color == color {
			e.samples++
			e.delay += delayNanos
			t.mu.Unlock()
			return
		}
		if minIdx < 0 || e.samples < t.entries[minIdx].samples {
			minIdx = i
		}
	}
	if freeIdx >= 0 {
		t.entries[freeIdx] = colorDelayEntry{color: color, samples: 1, delay: delayNanos}
		t.mu.Unlock()
		return
	}
	// Full: decay the smallest entry; claim its slot once it empties.
	e := &t.entries[minIdx]
	e.samples--
	if e.samples == 0 {
		*e = colorDelayEntry{color: color, samples: 1, delay: delayNanos}
	}
	t.mu.Unlock()
}

// snapshot copies the live entries, most-sampled first.
func (t *colorDelayTable) snapshot() []ColorDelay {
	t.mu.Lock()
	entries := t.entries
	t.mu.Unlock()
	var out []ColorDelay
	for i := range entries {
		if entries[i].samples > 0 {
			out = append(out, ColorDelay{
				Color:   entries[i].color,
				Samples: entries[i].samples,
				Delay:   time.Duration(entries[i].delay),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Samples != out[j].Samples {
			return out[i].Samples > out[j].Samples
		}
		return out[i].Color < out[j].Color
	})
	return out
}

// observeExec is the execution-side half of the latency sampling and
// the flight recorder's exec record. Called by execute only when the
// event is sampled or the recorder is on; startRel is the execution
// start (runtime-epoch nanoseconds) already measured for the profiler,
// so the instrumentation adds no clock reads.
func (r *Runtime) observeExec(c *rcore, ev *equeue.Event, startRel, elapsed int64) {
	if post := ev.PostNanos; post != 0 {
		d := startRel - post
		if d < 0 {
			d = 0
		}
		c.stats.qdelayHist.Observe(d)
		c.stats.execTimeHist.Observe(elapsed)
		c.colorDelays.note(Color(ev.Color), d)
	}
	if c.ring != nil {
		n := uint32(ev.Handler)
		if ev.Stolen {
			n |= obs.StolenFlag
		}
		// The exec record carries the causal ids: chains are
		// reconstructed from exec records alone (posts are sampled),
		// so this is the one per-event flow cost — three of the record's
		// seven words.
		c.ring.AppendFlow(obs.KindExec, startRel, elapsed, uint64(ev.Color), n,
			ev.TraceID, ev.SpanID, ev.ParentSpan)
	}
}

// traceAux appends one record to the shared auxiliary flight-recorder
// track (spill, reload — actions not attributable to one worker).
func (r *Runtime) traceAux(k obs.Kind, dur int64, arg uint64, n uint32) {
	if r.ringAux != nil {
		r.ringAux.Append(k, r.now(), dur, arg, n)
	}
}

// traceAuxFlow is traceAux carrying causal ids (spill records: the
// spilled event's lineage rides to disk and back, and the record lets
// the renderer show where in a chain the disk round-trip happened).
func (r *Runtime) traceAuxFlow(k obs.Kind, dur int64, arg uint64, n uint32, trace, span, parent uint64) {
	if r.ringAux != nil {
		r.ringAux.AppendFlow(k, r.now(), dur, arg, n, trace, span, parent)
	}
}

// pollCounters are the counts readiness backends report (see
// Runtime.poll for where they live and why). The padding makes the
// allocation 128 bytes, a size class whose objects start on a cache
// line and share none with another object.
type pollCounters struct {
	wakeups, events         atomic.Int64
	batchHist               obs.Counts
	writeStalls, readPauses atomic.Int64
	_                       [48]byte
}

// NotePollWakeup counts a poller-shard wakeup that harvested the given
// number of readiness events (Stats.PollWakeups, PollEvents and
// PollBatchHist) and records it on the flight recorder's auxiliary
// track. Called by readiness backends (internal/netpoll).
func (r *Runtime) NotePollWakeup(events int) {
	p := r.poll
	p.wakeups.Add(1)
	p.events.Add(int64(events))
	p.batchHist.Observe(&obs.PollBatchBounds, int64(events))
	if r.ringAux != nil {
		r.ringAux.Append(obs.KindPollWake, r.now(), 0, 0, uint32(clampUint32(int64(events))))
	}
}

// NoteWriteStall counts a send that filled the kernel buffer and fell
// back to the backend's pending-write queue (Stats.WriteStalls).
func (r *Runtime) NoteWriteStall() { r.poll.writeStalls.Add(1) }

// NoteReadPause counts a connection whose reads a backend paused
// because its data color is saturated, once per pause episode
// (Stats.ReadPauses).
func (r *Runtime) NoteReadPause() { r.poll.readPauses.Add(1) }

func clampUint32(v int64) int64 {
	if v < 0 {
		return 0
	}
	if v > int64(^uint32(0)) {
		return int64(^uint32(0))
	}
	return v
}

// DumpTrace renders the flight recorder — every core's ring plus the
// auxiliary track — as a Chrome trace-event JSON array (the format
// melytrace writes for simulator runs): open the dump in Perfetto
// or chrome://tracing to see executions, steal batches, lease
// re-homes, spills, reloads, timer firings, and poll wakeups on a
// per-core timeline. Safe while the runtime runs: each ring is copied
// out a chunk per hold of its lock (obs.Ring.Snapshot), so no worker
// waits on the dump for longer than that; records overwritten mid-dump
// are skipped. With Config.TraceRing negative the dump is an empty array.
func (r *Runtime) DumpTrace(w io.Writer) error {
	var tracks []obs.Track
	if r.traceOn {
		for i, c := range r.cores {
			tracks = append(tracks, obs.Track{Name: "core " + strconv.Itoa(i), Events: c.ring.Snapshot(nil)})
		}
		tracks = append(tracks, obs.Track{Name: "io/spill", Events: r.ringAux.Snapshot(nil)})
	}
	hs := *r.handlers.Load()
	cfg := obs.ChromeConfig{HandlerName: func(id uint32) string {
		if int(id) < len(hs) {
			return hs[id].name
		}
		return ""
	}}
	return obs.WriteChrome(w, tracks, cfg)
}

// stallStackBytes bounds the goroutine dump captured per stall episode.
const stallStackBytes = 1 << 18

// stallWatchdog is the Config.StallThreshold sampler: a goroutine that
// periodically (threshold/4, floored at 10ms) compares each core's
// last-progress stamp against the clock. A handler executing past the
// threshold is reported once per episode — a KindStall record on the
// auxiliary track carrying the stalled span's ids, a full goroutine
// dump (LastStallStack), the per-core stall counter — and the
// mely_stalled_cores gauge tracks how many cores are currently stuck.
// Started by Start, stopped by Stop; runs only when stallOn.
func (r *Runtime) stallWatchdog() {
	defer r.wg.Done()
	threshold := r.cfg.StallThreshold.Nanoseconds()
	tick := r.cfg.StallThreshold / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-r.stallStop:
			r.stalledCores.Store(0)
			return
		case <-t.C:
		}
		now := r.now()
		stalled := int32(0)
		for _, c := range r.cores {
			st := c.execStart.Load()
			if st != 0 && now-st >= threshold {
				stalled++
			}
		}
		// Publish the gauge before reporting episodes: noteStall can
		// trigger an incident capture whose fresh health sample must
		// already see the stuck cores.
		r.stalledCores.Store(stalled)
		for _, c := range r.cores {
			st := c.execStart.Load()
			if st == 0 || now-st < threshold {
				continue
			}
			if c.stalled.Swap(true) {
				continue // this episode was already reported
			}
			r.noteStall(c, now, now-st)
		}
	}
}

// noteStall records one fresh stall episode on core c.
func (r *Runtime) noteStall(c *rcore, now, elapsed int64) {
	c.stats.stalls.Add(1)
	if r.ringAux != nil {
		r.ringAux.AppendFlow(obs.KindStall, now, elapsed, uint64(c.id),
			uint32(c.execHandler.Load()), c.execTrace.Load(), c.execSpan.Load(), 0)
	}
	buf := make([]byte, stallStackBytes)
	buf = buf[:goruntime.Stack(buf, true)]
	r.stallMu.Lock()
	r.lastStallStack = buf
	r.stallMu.Unlock()
	if r.cfg.IncidentDir != "" {
		// Profile-on-anomaly unification: a stall episode captures the
		// same evidence bundle the health engine's detectors do — the
		// flight-recorder dump among it, so the trace context around the
		// stall survives even if the process must be killed — under the
		// same rate limit.
		r.captureIncidentAsync("stall", nil)
	}
}

// LastStallStack returns the full goroutine dump captured at the most
// recent stall episode, or nil when the watchdog has never fired. The
// returned bytes are the watchdog's own buffer; treat them as
// read-only.
func (r *Runtime) LastStallStack() []byte {
	r.stallMu.Lock()
	defer r.stallMu.Unlock()
	return r.lastStallStack
}

// Latency-histogram bucket bounds in seconds, shared by every
// mely_*_seconds histogram rendered from a LatencySnapshot.
func latencyUppersSeconds() []float64 {
	uppers := make([]float64, LatencyBuckets-1)
	for i := range uppers {
		uppers[i] = float64(obs.LatencyUpperNanos(i)) / 1e9
	}
	return uppers
}

// WriteMetrics renders the full Stats snapshot in the Prometheus text
// exposition format (version 0.0.4): every counter, gauge, and
// histogram of Stats/CoreStats as a typed mely_* series, per-core
// series labeled core="i". See docs/observability.md for the
// inventory. Serve it over HTTP with obs.NewMux, which also caches the
// rendered payload briefly so aggressive scrapers share one snapshot.
func (r *Runtime) WriteMetrics(w io.Writer) error {
	s := r.Stats()
	m := obs.NewMetricsWriter(w)

	coreLabel := func(i int) string { return `core="` + strconv.Itoa(i) + `"` }

	counter := func(name, help string, get func(CoreStats) float64) {
		m.Family(name, "counter", help)
		for i, c := range s.Cores {
			m.Sample(name, coreLabel(i), get(c))
		}
	}
	counter("mely_events_total", "Events executed, per core.",
		func(c CoreStats) float64 { return float64(c.Events) })
	counter("mely_exec_seconds_total", "Total handler execution time, per core.",
		func(c CoreStats) float64 { return c.ExecTime.Seconds() })
	counter("mely_steals_total", "Successful steals performed by this core.",
		func(c CoreStats) float64 { return float64(c.Steals) })
	counter("mely_remote_steals_total", "Steals that crossed a cache boundary.",
		func(c CoreStats) float64 { return float64(c.RemoteSteals) })
	counter("mely_steal_attempts_total", "Steal probes, including failures.",
		func(c CoreStats) float64 { return float64(c.StealAttempts) })
	counter("mely_failed_steals_total", "Steal probes that found nothing.",
		func(c CoreStats) float64 { return float64(c.FailedSteals) })
	counter("mely_steal_seconds_total", "Time spent in successful steal transactions.",
		func(c CoreStats) float64 { return c.StealTime.Seconds() })
	counter("mely_stolen_events_total", "Migrated events executed on this core.",
		func(c CoreStats) float64 { return float64(c.StolenEvents) })
	counter("mely_stolen_seconds_total", "Handler time of migrated events (stolen time).",
		func(c CoreStats) float64 { return c.StolenTime.Seconds() })
	counter("mely_stolen_colors_total", "Colors migrated here by this core's steals.",
		func(c CoreStats) float64 { return float64(c.StolenColors) })
	counter("mely_parks_total", "Idle worker sleeps.",
		func(c CoreStats) float64 { return float64(c.Parks) })
	counter("mely_backoff_parks_total", "Parks shortened by the steal-throttling backoff.",
		func(c CoreStats) float64 { return float64(c.BackoffParks) })
	counter("mely_posted_here_total", "Enqueues landing on this core.",
		func(c CoreStats) float64 { return float64(c.PostedHere) })
	counter("mely_batched_events_total", "Events delivered by unbounded PostBatch calls, spliced or posted per event.",
		func(c CoreStats) float64 { return float64(c.BatchedEvents) })
	counter("mely_color_queue_churns_total", "ColorQueue link/unlink pairs.",
		func(c CoreStats) float64 { return float64(c.ColorQueueChurns) })
	counter("mely_panics_total", "Handler panics contained by the worker.",
		func(c CoreStats) float64 { return float64(c.Panics) })
	counter("mely_timers_fired_total", "Timers expired by this core's wheel.",
		func(c CoreStats) float64 { return float64(c.TimersFired) })
	counter("mely_stalls_total", "Stall-watchdog episodes (handler exceeded StallThreshold).",
		func(c CoreStats) float64 { return float64(c.Stalls) })

	m.Family("mely_queue_length", "gauge", "Instantaneous per-core queue length.")
	for i, c := range s.Cores {
		m.Sample("mely_queue_length", coreLabel(i), float64(c.Queued))
	}
	m.Family("mely_timers_pending", "gauge", "Armed timers on this core's wheel.")
	for i, c := range s.Cores {
		m.Sample("mely_timers_pending", coreLabel(i), float64(c.TimersPending))
	}

	// Steal batch size: a per-core histogram over colors-per-steal. The
	// sum is exact (StolenColors), the count is Steals.
	m.Family("mely_steal_batch_colors", "histogram",
		"Colors migrated per successful steal, per core.")
	stealUppers := obs.StealBatchBounds.Uppers(1)
	for i, c := range s.Cores {
		m.Histogram("mely_steal_batch_colors", coreLabel(i),
			stealUppers, c.StealBatchHist[:], float64(c.StolenColors))
	}

	// Timer firing lag: bucket counts only — the lag sum is not
	// tracked, so _sum is rendered as 0 (quantiles via buckets remain
	// exact at bucket resolution).
	m.Family("mely_timer_lag_seconds", "histogram",
		"Timer firing lag (harvest minus deadline), per core; _sum not tracked (0).")
	timerUppers := obs.TimerLagBounds.Uppers(1e9)
	for i, c := range s.Cores {
		m.Histogram("mely_timer_lag_seconds", coreLabel(i),
			timerUppers, c.TimerLagHist[:], 0)
	}

	// Sampled latency histograms (Config.ObsSampleRate).
	latUppers := latencyUppersSeconds()
	m.Family("mely_queue_delay_seconds", "histogram",
		"Sampled post-to-execution delay, per core (one in ObsSampleRate events).")
	for i, c := range s.Cores {
		m.Histogram("mely_queue_delay_seconds", coreLabel(i),
			latUppers, c.QueueDelayHist.Buckets[:], c.QueueDelayHist.Sum.Seconds())
	}
	m.Family("mely_exec_time_seconds", "histogram",
		"Sampled handler execution time, per core (one in ObsSampleRate events).")
	for i, c := range s.Cores {
		m.Histogram("mely_exec_time_seconds", coreLabel(i),
			latUppers, c.ExecTimeHist.Buckets[:], c.ExecTimeHist.Sum.Seconds())
	}

	// Per-color top-K delay attribution: gauges, not counters — table
	// membership churns with the hot set, so series come and go.
	m.Family("mely_color_delay_samples", "gauge",
		"Sampled events per tracked hot color (top-K attribution table).")
	for i, c := range s.Cores {
		for _, cd := range c.TopColorDelays {
			m.Sample("mely_color_delay_samples",
				coreLabel(i)+`,color="`+strconv.FormatUint(uint64(cd.Color), 10)+`"`,
				float64(cd.Samples))
		}
	}
	m.Family("mely_color_delay_mean_seconds", "gauge",
		"Mean sampled queue delay per tracked hot color.")
	for i, c := range s.Cores {
		for _, cd := range c.TopColorDelays {
			m.Sample("mely_color_delay_mean_seconds",
				coreLabel(i)+`,color="`+strconv.FormatUint(uint64(cd.Color), 10)+`"`,
				cd.Mean().Seconds())
		}
	}

	// Runtime-wide series.
	single := func(name, typ, help string, v float64) {
		m.Family(name, typ, help)
		m.Sample(name, "", v)
	}
	single("mely_steal_cost_estimate_seconds", "gauge",
		"Monitored cost of one steal (the time-left heuristic's threshold).",
		s.StealCostEstimate.Seconds())
	single("mely_pending_events", "gauge",
		"Posted-but-not-completed events.", float64(s.Pending))
	single("mely_stalled_cores", "gauge",
		"Cores currently stuck in a handler past StallThreshold (0 with the watchdog off).",
		float64(s.StalledCores))
	single("mely_timers_canceled_total", "counter",
		"Timer firings averted by Cancel.", float64(s.TimersCanceled))
	single("mely_poll_wakeups_total", "counter",
		"Poll wait returns across all readiness sources.", float64(s.PollWakeups))
	single("mely_poll_events_total", "counter",
		"Readiness events harvested across all sources.", float64(s.PollEvents))
	m.Family("mely_poll_batch_events", "histogram",
		"Readiness events harvested per poll wakeup.")
	m.Histogram("mely_poll_batch_events", "",
		obs.PollBatchBounds.Uppers(1), s.PollBatchHist[:], float64(s.PollEvents))
	single("mely_write_stalls_total", "counter",
		"Writes queued on kernel backpressure.", float64(s.WriteStalls))
	single("mely_read_pauses_total", "counter",
		"Read pauses on saturated data colors.", float64(s.ReadPauses))
	single("mely_queued_events", "gauge",
		"In-memory queued events, runtime-wide.", float64(s.QueuedEvents))
	single("mely_spilled_events_total", "counter",
		"Events appended to the spill store.", float64(s.SpilledEvents))
	single("mely_spilled_bytes_total", "counter",
		"Bytes appended to the spill store (record headers + payloads).",
		float64(s.SpilledBytes))
	single("mely_reloaded_events_total", "counter",
		"Events reloaded from the spill store.", float64(s.ReloadedEvents))
	single("mely_spilled_now", "gauge",
		"Events currently on disk.", float64(s.SpilledNow))
	single("mely_rejected_posts_total", "counter",
		"Posts failed with ErrOverloaded.", float64(s.RejectedPosts))
	single("mely_blocked_posts_total", "counter",
		"Posts that waited under OverloadBlock.", float64(s.BlockedPosts))
	single("mely_spill_errors_total", "counter",
		"Spill fallbacks (unencodable payload or disk failure).", float64(s.SpillErrors))
	m.Family("mely_spill_depth_records", "histogram",
		"Per-color disk depth observed at each spill append; _sum not tracked (0).")
	m.Histogram("mely_spill_depth_records", "",
		obs.SpillDepthBounds.Uppers(1), s.SpillDepthHist[:], 0)
	single("mely_spill_syncs_total", "counter",
		"msync/fsync durability points issued by the spill store.", float64(s.SpillSyncs))
	single("mely_recovered_events_total", "counter",
		"Spilled events recovered from surviving segments at startup.", float64(s.RecoveredEvents))
	single("mely_torn_records_total", "counter",
		"Torn segment tails truncated during recovery.", float64(s.TornRecords))

	// Time-series and health series, rendered only when the collector
	// is armed (Config.ObsInterval > 0) so a process either always or
	// never exposes them — scrapers see a stable series set.
	if col := r.collector; col != nil {
		// The last window: zero until the ring holds two samples.
		var rates obs.TSPoint
		if pts := obs.DerivePoints(col.ring.Tail(2, nil)); len(pts) > 0 {
			rates = pts[0]
		}
		single("mely_events_rate", "gauge",
			"Events executed per second over the last collector window.",
			rates.EventsPerSec)
		single("mely_posts_rate", "gauge",
			"Events posted per second over the last collector window.",
			rates.PostsPerSec)
		single("mely_steals_rate", "gauge",
			"Successful steals per second over the last collector window.",
			rates.StealsPerSec)
		single("mely_spill_events_rate", "gauge",
			"Events spilled to disk per second over the last collector window.",
			rates.SpillEventsPerSec)
		single("mely_spill_bytes_rate", "gauge",
			"Bytes spilled to disk per second over the last collector window.",
			rates.SpillBytesPerSec)
		single("mely_queue_delay_window_p99_seconds", "gauge",
			"Queue-delay p99 of the last collector window (sampled).",
			time.Duration(rates.QDelayP99Nanos).Seconds())
		rep := r.Health()
		hv := 0.0
		if rep.Healthy {
			hv = 1
		}
		single("mely_health_status", "gauge",
			"1 when no health detector is firing, 0 otherwise.", hv)
		single("mely_anomalies_total", "counter",
			"Fresh anomaly episodes detected by the health engine.",
			float64(rep.TotalAnomalies))
		single("mely_incidents_total", "counter",
			"Incident bundles captured by profile-on-anomaly.",
			float64(rep.Incidents))
	}

	return m.Flush()
}
