package mely

import (
	"sort"
	"time"

	"github.com/melyruntime/mely/internal/obs"
)

// LatencyBuckets is the length of the power-of-two latency histograms
// (CoreStats.QueueDelayHist / ExecTimeHist): bucket 0 holds durations
// below 256ns, bucket i holds [2^(i+7), 2^(i+8)) ns, and the last
// bucket everything from ~17s up. LatencyBucketUpper reports the
// boundaries.
const LatencyBuckets = obs.NumLatencyBuckets

// LatencyBucketUpper is the exclusive upper bound of latency-histogram
// bucket i (the last bucket is unbounded and reports math.MaxInt64 ns).
func LatencyBucketUpper(i int) time.Duration {
	return time.Duration(obs.LatencyUpperNanos(i))
}

// LatencySnapshot is a sampled latency distribution: power-of-two
// buckets plus the sum of the observed durations. Populated only when
// Config.ObsSampleRate is not negative, from one in every
// ObsSampleRate events.
type LatencySnapshot struct {
	Buckets [LatencyBuckets]int64
	Sum     time.Duration
}

// Count is the number of sampled observations.
func (l LatencySnapshot) Count() int64 {
	var n int64
	for _, c := range l.Buckets {
		n += c
	}
	return n
}

// Quantile reports the q-quantile (0 < q <= 1) as the upper bound of
// the bucket where the cumulative count crosses q — a conservative
// (pessimistic) estimate with power-of-two resolution. Zero when
// nothing was sampled.
func (l LatencySnapshot) Quantile(q float64) time.Duration {
	return obs.Quantile(&l.Buckets, q)
}

// Merge folds another snapshot into l: two cores' histograms into a
// runtime's, two runtimes' into a fleet's.
func (l *LatencySnapshot) Merge(o LatencySnapshot) {
	for b := range l.Buckets {
		l.Buckets[b] += o.Buckets[b]
	}
	l.Sum += o.Sum
}

// ColorDelay is one color's sampled queue-delay attribution: how many
// sampled events of the color were observed and their summed
// post-to-execution delay. The per-core tables track the top
// ColorTopK most-frequently-sampled colors with a space-saving
// (Misra-Gries-style) eviction, so the attribution is approximate
// under adversarial color churn but exact for a stable hot set.
type ColorDelay struct {
	Color   Color
	Samples int64
	Delay   time.Duration
}

// Mean is the color's mean sampled queue delay.
func (c ColorDelay) Mean() time.Duration {
	if c.Samples == 0 {
		return 0
	}
	return c.Delay / time.Duration(c.Samples)
}

// ColorTopK is the per-core capacity of the sampled per-color
// queue-delay attribution table (CoreStats.TopColorDelays).
const ColorTopK = 8

// StealBatchBuckets, TimerLagBuckets, PollBatchBuckets and
// SpillDepthBuckets are the lengths of CoreStats.StealBatchHist,
// CoreStats.TimerLagHist, Stats.PollBatchHist and Stats.SpillDepthHist.
// Each histogram's boundaries are declared once, in internal/obs
// (StealBatchBounds, TimerLagBounds, PollBatchBounds, SpillDepthBounds):
// the value that bins an observation also labels the rendered series.
const (
	StealBatchBuckets = len(obs.StealBatchBounds) + 1
	TimerLagBuckets   = len(obs.TimerLagBounds) + 1
	PollBatchBuckets  = len(obs.PollBatchBounds) + 1
	SpillDepthBuckets = len(obs.SpillDepthBounds) + 1
)

// addBuckets folds one fixed-bucket histogram snapshot into another.
func addBuckets(dst, src *[obs.NumBuckets]int64) {
	for b := range dst {
		dst[b] += src[b]
	}
}

// CoreStats is a snapshot of one worker's counters.
type CoreStats struct {
	// Events executed on this core and their total handler time. An
	// event that came straight off the running color's private run
	// (Mely layout) is timed from the end stamp of the event before it,
	// so its time includes that event's retire bookkeeping — tens of
	// nanoseconds; the same holds for ExecTimeHist and StolenTime.
	Events   int64
	ExecTime time.Duration
	// Steals performed by this core (RemoteSteals crossed a cache
	// boundary); FailedSteals found nothing; StealTime is the total
	// time spent in successful steal transactions.
	Steals        int64
	RemoteSteals  int64
	StealAttempts int64
	FailedSteals  int64
	StealTime     time.Duration
	// StolenEvents executed here after migration, and their time (the
	// paper's "stolen time").
	StolenEvents int64
	StolenTime   time.Duration
	// StolenColors counts colors migrated here by this core's steals:
	// equal to Steals under the single-color protocol, larger when
	// batch stealing migrates several colors per attempt.
	// StealBatchHist is the batch-size histogram of those steals
	// (buckets: obs.StealBatchBounds).
	StolenColors   int64
	StealBatchHist [StealBatchBuckets]int64
	// Parks counts idle sleeps; BackoffParks the subset shortened by
	// the steal-throttling backoff (10µs doubling up to 500µs);
	// PostedHere counts enqueues landing on this core; BatchedEvents
	// counts the subset an unbounded PostBatch delivered, whether its
	// group was spliced whole or posted per event; ColorQueueChurns counts ColorQueue
	// link/unlink pairs (the short-lived color overhead of section
	// V-C1).
	Parks            int64
	BackoffParks     int64
	PostedHere       int64
	BatchedEvents    int64
	ColorQueueChurns int64
	// Panics counts handler panics contained by the worker.
	Panics int64
	// Stalls counts stall-watchdog episodes on this core: handlers that
	// executed past Config.StallThreshold (0 with the watchdog off).
	Stalls int64
	// Queued is the instantaneous queue length, counting the events a
	// PostBatch handed over that are not filed yet (the core's
	// arrivals). On the Mely layout it leaves out the running color's
	// private run: the at most batch-threshold-1 (9) events the worker
	// detached behind the one it is executing, plus the continuations
	// that handler chain appended.
	Queued int
	// TimersFired counts timers this core's wheel expired; TimerLagHist
	// is the firing-lag histogram (harvest time minus deadline; buckets:
	// obs.TimerLagBounds) — the structural floor is the wheels' 1ms
	// tick plus the park latency of an idle core.
	TimersFired  int64
	TimerLagHist [TimerLagBuckets]int64
	// TimersPending is the instantaneous number of armed timers on this
	// core's wheel.
	TimersPending int
	// QueueDelayHist is the sampled post-to-execution delay
	// distribution of events executed on this core, and ExecTimeHist
	// the sampled handler execution times, both in power-of-two buckets
	// (see LatencyBuckets). Empty when Config.ObsSampleRate is
	// negative. TopColorDelays attributes the sampled queue delay to
	// the core's hottest colors (up to ColorTopK entries, most-sampled
	// first).
	QueueDelayHist LatencySnapshot
	ExecTimeHist   LatencySnapshot
	TopColorDelays []ColorDelay
}

// MeanStealBatch is the average number of colors migrated per
// successful steal (0 when no steals happened).
func (c CoreStats) MeanStealBatch() float64 {
	if c.Steals == 0 {
		return 0
	}
	return float64(c.StolenColors) / float64(c.Steals)
}

// Stats is a whole-runtime snapshot.
//
// Every counter below is CUMULATIVE and MONOTONIC across Snapshot
// calls on one runtime — later snapshots never report smaller values —
// except the rows marked "gauge" (instantaneous, free to move both
// ways) and "estimate". Per-core counters are individually atomic but
// not mutually consistent. The full inventory:
//
//	field                     kind       meaning
//	------------------------  ---------  ----------------------------------------
//	Cores[i].Events           counter    events executed on core i
//	Cores[i].ExecTime         counter    total handler time
//	Cores[i].Steals           counter    successful steals by this core
//	Cores[i].RemoteSteals     counter    steals crossing a cache boundary
//	Cores[i].StealAttempts    counter    steal probes (incl. failures)
//	Cores[i].FailedSteals     counter    probes that found nothing
//	Cores[i].StealTime        counter    time in successful steal transactions
//	Cores[i].StolenEvents     counter    migrated events executed here
//	Cores[i].StolenTime       counter    their handler time ("stolen time")
//	Cores[i].StolenColors     counter    colors migrated here by steals
//	Cores[i].StealBatchHist   histogram  colors per steal (obs.StealBatchBounds)
//	Cores[i].Parks            counter    idle sleeps
//	Cores[i].BackoffParks     counter    parks shortened by steal backoff
//	Cores[i].PostedHere       counter    enqueues landing on this core
//	Cores[i].BatchedEvents    counter    subset delivered by an unbounded PostBatch
//	Cores[i].ColorQueueChurns counter    ColorQueue link/unlink pairs
//	Cores[i].Panics           counter    handler panics contained
//	Cores[i].Stalls           counter    stall-watchdog episodes on this core
//	Cores[i].Queued           gauge      instantaneous core queue length
//	Cores[i].TimersFired      counter    timers expired by this core's wheel
//	Cores[i].TimerLagHist     histogram  firing lag (obs.TimerLagBounds)
//	Cores[i].TimersPending    gauge      armed timers on this core's wheel
//	Cores[i].QueueDelayHist   histogram  sampled post→execute delay (power-of-two)
//	Cores[i].ExecTimeHist     histogram  sampled handler time (power-of-two)
//	Cores[i].TopColorDelays   estimate   top-K per-color sampled delay attribution
//	StealCostEstimate         estimate   monitored cost of one steal
//	Pending                   gauge      posted-but-not-completed events (0 only when
//	                                     nothing is unfinished; see the field)
//	StalledCores              gauge      cores currently stuck past StallThreshold
//	TimersCanceled            counter    firings averted by Cancel
//	PollWakeups               counter    poll wait returns (all sources)
//	PollEvents                counter    readiness events harvested
//	PollBatchHist             histogram  events per wakeup (obs.PollBatchBounds)
//	WriteStalls               counter    writes queued on kernel backpressure
//	ReadPauses                counter    read pauses on saturated data colors
//	QueuedEvents              gauge      in-memory queued events, runtime-wide
//	SpilledEvents             counter    events appended to the spill store
//	SpilledBytes              counter    bytes appended to the spill store
//	                                     (headers + payloads, this process)
//	ReloadedEvents            counter    events reloaded from the spill store
//	SpilledNow                gauge      events currently on disk
//	RejectedPosts             counter    posts failed with ErrOverloaded
//	BlockedPosts              counter    posts that waited under OverloadBlock
//	SpillErrors               counter    spill fallbacks (unencodable payload
//	                                     or disk failure; event kept in memory,
//	                                     or — reload failure only — dropped)
//	SpillDepthHist            histogram  disk depth at spill (obs.SpillDepthBounds)
//	SpillSyncs                counter    msync/fsync durability points issued by
//	                                     the spill store (Config.SpillSync)
//	RecoveredEvents           counter    spilled events recovered from surviving
//	                                     segments at startup (Config.SpillRecover;
//	                                     set once at New, constant afterwards)
//	TornRecords               counter    torn segment tails truncated (or unusable
//	                                     segments discarded) during that recovery
type Stats struct {
	Cores []CoreStats
	// StealCostEstimate is the monitored cost of one steal, the
	// threshold the time-left heuristic steals against.
	StealCostEstimate time.Duration
	// Pending counts posted-but-not-completed events. It is zero only
	// when nothing is unfinished, but may read one lower than the number
	// of unfinished events per currently executing handler that handed
	// its count to a continuation of its own color (the parent is then
	// still running while only the child is counted; see the hand-off
	// rule in docs/architecture.md).
	Pending int64
	// StalledCores is the number of cores currently stuck in a handler
	// past Config.StallThreshold, as of the watchdog's last check (0
	// with the watchdog off).
	StalledCores int
	// TimersCanceled counts timer firings averted by Cancel, runtime
	// wide (Cancel runs on the caller's goroutine, not on the worker
	// of the wheel holding the entry).
	TimersCanceled int64
	// PollWakeups, PollEvents, PollBatchHist, WriteStalls, and
	// ReadPauses count what every readiness backend on this runtime
	// (internal/netpoll's servers) reported through NotePollWakeup,
	// NoteWriteStall and NoteReadPause: poll wait returns, events
	// harvested, the events-per-wakeup histogram (buckets:
	// obs.PollBatchBounds), writes that hit kernel backpressure and were
	// queued for EPOLLOUT-driven draining, and reads paused because the
	// connection's data color was saturated. The runtime owns the counts,
	// so they outlive the server that reported them. The pump backend
	// reports only read pauses.
	PollWakeups   int64
	PollEvents    int64
	PollBatchHist [PollBatchBuckets]int64
	WriteStalls   int64
	ReadPauses    int64

	// Overload-control counters, all zero on unbounded runtimes.
	// QueuedEvents is the in-memory queued-event gauge the bounds are
	// enforced against (on an unbounded runtime the sum of the cores'
	// Queued, which leaves out each running color's private run);
	// SpilledNow is the on-disk backlog gauge.
	// SpilledEvents/ReloadedEvents count traffic through the spill
	// store (equal once a burst has fully drained); RejectedPosts and
	// BlockedPosts count the Reject and Block policies' interventions;
	// SpillErrors counts spill fallbacks (unencodable payloads and disk
	// failures); SpillDepthHist bins each spilled record's observed
	// per-color disk depth (buckets: obs.SpillDepthBounds) — the
	// distribution of how deep the tails run.
	QueuedEvents   int64
	SpilledEvents  int64
	SpilledBytes   int64
	ReloadedEvents int64
	SpilledNow     int64
	RejectedPosts  int64
	BlockedPosts   int64
	SpillErrors    int64
	SpillDepthHist [SpillDepthBuckets]int64

	// Spill durability counters (Config.SpillSync / SpillRecover).
	// SpillSyncs counts the store's msync/fsync durability points;
	// RecoveredEvents is the backlog recovered from surviving segments
	// at New (constant afterwards); TornRecords counts the torn tails
	// recovery truncated (or unusable segments it discarded) getting
	// there — a nonzero value means the previous process died inside
	// an unsynced append, which is exactly the loss window the
	// configured SpillSyncPolicy promises.
	SpillSyncs      int64
	RecoveredEvents int64
	TornRecords     int64
}

// Stats snapshots the runtime's counters. It is safe while running;
// per-core numbers are individually atomic but not mutually consistent.
func (r *Runtime) Stats() Stats {
	s := Stats{
		Cores:             make([]CoreStats, len(r.cores)),
		StealCostEstimate: time.Duration(r.stealMon.Estimate()),
		Pending:           r.pending.Load(),
		StalledCores:      int(r.stalledCores.Load()),
		TimersCanceled:    r.timersCanceled.Load(),
	}
	p := r.poll
	s.PollWakeups = p.wakeups.Load()
	s.PollEvents = p.events.Load()
	p.batchHist.AddTo(&s.PollBatchHist)
	s.WriteStalls = p.writeStalls.Load()
	s.ReadPauses = p.readPauses.Load()
	if a := r.adm; a != nil {
		as := a.Stats()
		s.QueuedEvents = as.Queued
		s.SpilledEvents = as.Spilled
		s.ReloadedEvents = as.Reloaded
		s.RejectedPosts = as.Rejected
		s.BlockedPosts = as.Blocked
		s.SpillErrors = as.Errors
		if store := a.Store(); store != nil {
			s.SpilledNow = store.TotalDepth()
			s.SpilledBytes = store.AppendedBytes()
			s.SpillSyncs = store.Syncs()
			s.RecoveredEvents = store.Recovered()
			s.TornRecords = store.Torn()
		}
		a.depthHist.AddTo(&s.SpillDepthHist)
	}
	for i, c := range r.cores {
		cs := CoreStats{
			Events:           c.stats.events.Load(),
			ExecTime:         time.Duration(c.stats.execNanos.Load()),
			Steals:           c.stats.steals.Load(),
			RemoteSteals:     c.stats.remoteSteals.Load(),
			StealAttempts:    c.stats.stealAttempts.Load(),
			FailedSteals:     c.stats.failedSteals.Load(),
			StealTime:        time.Duration(c.stats.stealNanos.Load()),
			StolenEvents:     c.stats.stolenEvents.Load(),
			StolenTime:       time.Duration(c.stats.stolenExecNanos.Load()),
			StolenColors:     c.stats.stolenColors.Load(),
			Parks:            c.stats.parks.Load(),
			BackoffParks:     c.stats.backoffParks.Load(),
			PostedHere:       c.stats.postedHere.Load(),
			BatchedEvents:    c.stats.batchedEvents.Load(),
			ColorQueueChurns: c.stats.colorQueueChurns.Load(),
			Panics:           c.stats.panics.Load(),
			Stalls:           c.stats.stalls.Load(),
			Queued:           int(c.qlen.Load()),
			TimersFired:      c.stats.timersFired.Load(),
			TimersPending:    c.wheel.Len(),
		}
		c.stats.batchHist.AddTo(&cs.StealBatchHist)
		c.stats.timerLagHist.AddTo(&cs.TimerLagHist)
		cs.QueueDelayHist.Sum = time.Duration(c.stats.qdelayHist.Load(&cs.QueueDelayHist.Buckets))
		cs.ExecTimeHist.Sum = time.Duration(c.stats.execTimeHist.Load(&cs.ExecTimeHist.Buckets))
		cs.TopColorDelays = c.colorDelays.snapshot()
		s.Cores[i] = cs
	}
	if r.adm == nil {
		// Unbounded runtimes have no admission gauge; sum the per-core
		// mirrors so QueuedEvents is meaningful everywhere.
		var q int64
		for i := range s.Cores {
			q += int64(s.Cores[i].Queued)
		}
		s.QueuedEvents = q
	}
	return s
}

// Total sums the per-core snapshots.
func (s Stats) Total() CoreStats {
	var t CoreStats
	for _, c := range s.Cores {
		t.Events += c.Events
		t.ExecTime += c.ExecTime
		t.Steals += c.Steals
		t.RemoteSteals += c.RemoteSteals
		t.StealAttempts += c.StealAttempts
		t.FailedSteals += c.FailedSteals
		t.StealTime += c.StealTime
		t.StolenEvents += c.StolenEvents
		t.StolenTime += c.StolenTime
		t.StolenColors += c.StolenColors
		addBuckets(&t.StealBatchHist, &c.StealBatchHist)
		t.Parks += c.Parks
		t.BackoffParks += c.BackoffParks
		t.PostedHere += c.PostedHere
		t.BatchedEvents += c.BatchedEvents
		t.ColorQueueChurns += c.ColorQueueChurns
		t.Panics += c.Panics
		t.Stalls += c.Stalls
		t.Queued += c.Queued
		t.TimersFired += c.TimersFired
		addBuckets(&t.TimerLagHist, &c.TimerLagHist)
		t.TimersPending += c.TimersPending
		t.QueueDelayHist.Merge(c.QueueDelayHist)
		t.ExecTimeHist.Merge(c.ExecTimeHist)
		t.TopColorDelays = append(t.TopColorDelays, c.TopColorDelays...)
	}
	t.TopColorDelays = mergeColorDelays(t.TopColorDelays)
	return t
}

// mergeColorDelays folds per-core attribution rows for the same color
// together and orders the result most-sampled first.
func mergeColorDelays(rows []ColorDelay) []ColorDelay {
	if len(rows) == 0 {
		return nil
	}
	byColor := make(map[Color]ColorDelay, len(rows))
	for _, row := range rows {
		agg := byColor[row.Color]
		agg.Color = row.Color
		agg.Samples += row.Samples
		agg.Delay += row.Delay
		byColor[row.Color] = agg
	}
	out := make([]ColorDelay, 0, len(byColor))
	for _, row := range byColor {
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Samples != out[j].Samples {
			return out[i].Samples > out[j].Samples
		}
		return out[i].Color < out[j].Color
	})
	return out
}
