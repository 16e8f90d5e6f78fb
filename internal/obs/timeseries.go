package obs

import (
	"encoding/json"
	"io"
	"math"
	"sync"
	"time"
)

// TSCore is one core's slice of a TimeSeries sample: cumulative
// counters (same monotonicity contract as CoreStats) plus the
// instantaneous queue gauge. Kept flat and pointer-free so a sample's
// memory is exactly its struct size.
type TSCore struct {
	Events        int64
	ExecNanos     int64
	Steals        int64
	StealAttempts int64
	FailedSteals  int64
	BackoffParks  int64
	Stalls        int64
	Queued        int64
}

// TSSample is one periodic whole-runtime snapshot appended to a
// TimeSeries: cumulative totals, instantaneous gauges, and the two
// latency-histogram bucket vectors. Consecutive samples are differenced
// at read time to derive per-window rates and quantiles, so the ring
// stores raw counters and never loses information to smoothing.
type TSSample struct {
	// WallNanos stamps the sample in wall-clock time (UnixNano) for
	// display; MonoNanos is the monotonic stamp rate math divides by.
	WallNanos int64
	MonoNanos int64

	// Cumulative totals (Stats.Total() plus runtime-wide counters).
	Events         int64
	Posts          int64
	ExecNanos      int64
	Steals         int64
	StealAttempts  int64
	FailedSteals   int64
	SpilledEvents  int64
	ReloadedEvents int64
	SpilledBytes   int64
	RejectedPosts  int64
	Panics         int64
	Stalls         int64
	TimersFired    int64

	// Instantaneous gauges.
	QueuedEvents int64
	SpilledNow   int64
	StalledCores int64

	// Sampled latency-histogram bucket counts (cumulative).
	QDelay [NumLatencyBuckets]int64
	Exec   [NumLatencyBuckets]int64

	Cores []TSCore
}

// copySample copies src into dst reusing dst's Cores backing array, so
// a preallocated ring slot absorbs a sample without allocating.
func copySample(dst, src *TSSample) {
	cores := dst.Cores
	*dst = *src
	if cap(cores) < len(src.Cores) {
		cores = make([]TSCore, len(src.Cores))
	}
	cores = cores[:len(src.Cores)]
	copy(cores, src.Cores)
	dst.Cores = cores
}

// TimeSeries is a fixed-memory ring of TSSamples: history slots are
// allocated once at construction (including each slot's per-core
// slice) and reused forever, so the retained memory is bounded by
// history x sizeof(sample) regardless of uptime. Append is
// mutex-guarded and allocation-free in steady state; it is called from
// the runtime's collector goroutine, never from the event hot path.
type TimeSeries struct {
	interval time.Duration

	mu    sync.Mutex
	slots []TSSample
	head  int // next write index
	n     int // valid samples, <= len(slots)
}

// NewTimeSeries allocates a ring of history slots for a runtime with
// the given core count, sampled every interval. History is clamped to
// at least 2 (one window needs two samples).
func NewTimeSeries(history, cores int, interval time.Duration) *TimeSeries {
	if history < 2 {
		history = 2
	}
	ts := &TimeSeries{interval: interval, slots: make([]TSSample, history)}
	for i := range ts.slots {
		ts.slots[i].Cores = make([]TSCore, cores)
	}
	return ts
}

// Len is the number of samples currently retained.
func (ts *TimeSeries) Len() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.n
}

// Append copies one sample into the ring, evicting the oldest once
// full. The sample is copied; the caller may reuse s.
func (ts *TimeSeries) Append(s *TSSample) {
	ts.mu.Lock()
	copySample(&ts.slots[ts.head], s)
	ts.head = (ts.head + 1) % len(ts.slots)
	if ts.n < len(ts.slots) {
		ts.n++
	}
	ts.mu.Unlock()
}

// Snapshot appends deep copies of the retained samples, oldest first,
// to dst and returns the result. The copies do not alias ring memory.
func (ts *TimeSeries) Snapshot(dst []TSSample) []TSSample {
	return ts.Tail(len(ts.slots), dst)
}

// Tail is Snapshot limited to the newest n samples: Tail(2, nil) is the
// last window, the pair DerivePoints turns into the mely_*_rate gauges.
func (ts *TimeSeries) Tail(n int, dst []TSSample) []TSSample {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if n > ts.n {
		n = ts.n
	}
	start := ts.head - n
	if start < 0 {
		start += len(ts.slots)
	}
	for i := 0; i < n; i++ {
		slot := &ts.slots[(start+i)%len(ts.slots)]
		s := *slot
		s.Cores = append([]TSCore(nil), slot.Cores...)
		dst = append(dst, s)
	}
	return dst
}

// TSCorePoint is one core's derived view of a window.
type TSCorePoint struct {
	Core            int     `json:"core"`
	EventsPerSec    float64 `json:"events_per_sec"`
	StealsPerSec    float64 `json:"steals_per_sec"`
	FailedPerSec    float64 `json:"failed_steals_per_sec"`
	BackoffPerSec   float64 `json:"backoff_parks_per_sec"`
	ExecUtilization float64 `json:"exec_utilization"`
	Stalls          int64   `json:"stalls"`
	Queued          int64   `json:"queued"`
}

// TSPoint is the derived per-window view of two consecutive samples:
// rates from counter deltas divided by the monotonic window, gauges
// from the closing sample, and windowed latency quantiles from the
// histogram-bucket deltas.
type TSPoint struct {
	WallNanos     int64   `json:"wall_nanos"`
	WindowSeconds float64 `json:"window_seconds"`

	EventsPerSec       float64 `json:"events_per_sec"`
	PostsPerSec        float64 `json:"posts_per_sec"`
	StealsPerSec       float64 `json:"steals_per_sec"`
	FailedStealsPerSec float64 `json:"failed_steals_per_sec"`
	SpillEventsPerSec  float64 `json:"spill_events_per_sec"`
	SpillBytesPerSec   float64 `json:"spill_bytes_per_sec"`
	ExecUtilization    float64 `json:"exec_utilization"`

	QueuedEvents int64 `json:"queued_events"`
	SpilledNow   int64 `json:"spilled_now"`
	StalledCores int64 `json:"stalled_cores"`
	Stalls       int64 `json:"stalls"`

	QDelayP50Nanos int64 `json:"queue_delay_p50_nanos"`
	QDelayP99Nanos int64 `json:"queue_delay_p99_nanos"`
	ExecP50Nanos   int64 `json:"exec_p50_nanos"`
	ExecP99Nanos   int64 `json:"exec_p99_nanos"`

	Cores []TSCorePoint `json:"cores,omitempty"`
}

// windowQuantile is the q-quantile of the bucket-count delta between
// two cumulative histogram snapshots — the latency distribution of
// just that window. Zero when the window saw no samples.
func windowQuantile(cur, prev *[NumLatencyBuckets]int64, q float64) int64 {
	var delta [NumLatencyBuckets]int64
	for i := range delta {
		d := cur[i] - prev[i]
		if d < 0 {
			d = 0 // counter reset (new runtime behind the same ring)
		}
		delta[i] = d
	}
	d := Quantile(&delta, q)
	if d == time.Duration(math.MaxInt64) {
		// Clamp the unbounded overflow bucket to its finite neighbor so
		// JSON consumers see a usable number.
		return LatencyUpperNanos(NumLatencyBuckets - 2)
	}
	return int64(d)
}

// DerivePoints differences consecutive samples (oldest first) into
// per-window points. n samples yield n-1 points; fewer than two
// samples yield none.
func DerivePoints(samples []TSSample) []TSPoint {
	if len(samples) < 2 {
		return nil
	}
	points := make([]TSPoint, 0, len(samples)-1)
	for i := 1; i < len(samples); i++ {
		prev, cur := &samples[i-1], &samples[i]
		secs := float64(cur.MonoNanos-prev.MonoNanos) / 1e9
		if secs <= 0 {
			continue
		}
		rate := func(cur, prev int64) float64 {
			d := cur - prev
			if d < 0 {
				d = 0
			}
			return float64(d) / secs
		}
		p := TSPoint{
			WallNanos:     cur.WallNanos,
			WindowSeconds: secs,

			EventsPerSec:       rate(cur.Events, prev.Events),
			PostsPerSec:        rate(cur.Posts, prev.Posts),
			StealsPerSec:       rate(cur.Steals, prev.Steals),
			FailedStealsPerSec: rate(cur.FailedSteals, prev.FailedSteals),
			SpillEventsPerSec:  rate(cur.SpilledEvents, prev.SpilledEvents),
			SpillBytesPerSec:   rate(cur.SpilledBytes, prev.SpilledBytes),

			QueuedEvents: cur.QueuedEvents,
			SpilledNow:   cur.SpilledNow,
			StalledCores: cur.StalledCores,
			Stalls:       cur.Stalls - prev.Stalls,

			QDelayP50Nanos: windowQuantile(&cur.QDelay, &prev.QDelay, 0.50),
			QDelayP99Nanos: windowQuantile(&cur.QDelay, &prev.QDelay, 0.99),
			ExecP50Nanos:   windowQuantile(&cur.Exec, &prev.Exec, 0.50),
			ExecP99Nanos:   windowQuantile(&cur.Exec, &prev.Exec, 0.99),
		}
		if cores := len(cur.Cores); cores > 0 {
			p.ExecUtilization = rate(cur.ExecNanos, prev.ExecNanos) / 1e9 / float64(cores)
			if len(prev.Cores) == cores {
				p.Cores = make([]TSCorePoint, cores)
				for c := 0; c < cores; c++ {
					pc, cc := &prev.Cores[c], &cur.Cores[c]
					p.Cores[c] = TSCorePoint{
						Core:            c,
						EventsPerSec:    rate(cc.Events, pc.Events),
						StealsPerSec:    rate(cc.Steals, pc.Steals),
						FailedPerSec:    rate(cc.FailedSteals, pc.FailedSteals),
						BackoffPerSec:   rate(cc.BackoffParks, pc.BackoffParks),
						ExecUtilization: rate(cc.ExecNanos, pc.ExecNanos) / 1e9,
						Stalls:          cc.Stalls - pc.Stalls,
						Queued:          cc.Queued,
					}
				}
			}
		}
		points = append(points, p)
	}
	return points
}

// TSDump is the JSON document served on /debug/timeseries.
type TSDump struct {
	IntervalSeconds float64   `json:"interval_seconds"`
	History         int       `json:"history"`
	Samples         int       `json:"samples"`
	Points          []TSPoint `json:"points"`
}

// WriteJSON renders the retained window as a TSDump document.
func (ts *TimeSeries) WriteJSON(w io.Writer) error {
	samples := ts.Snapshot(nil)
	dump := TSDump{
		IntervalSeconds: ts.interval.Seconds(),
		History:         len(ts.slots),
		Samples:         len(samples),
		Points:          DerivePoints(samples),
	}
	if dump.Points == nil {
		dump.Points = []TSPoint{} // render [] rather than null
	}
	enc := json.NewEncoder(w)
	return enc.Encode(dump)
}
