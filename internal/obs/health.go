package obs

import (
	"fmt"
	"time"
)

// Anomaly kinds reported by EvaluateHealth. Stable strings: they name
// incident directories and label the mely_anomalies_total counter.
const (
	// AnomalyQueueDelayDrift fires when the current window's queue-delay
	// p99 rises well above its trailing baseline — latency is drifting
	// even if it has not yet crossed an absolute SLO.
	AnomalyQueueDelayDrift = "queue-delay-drift"
	// AnomalyStealImbalance fires when one core's failed-steal +
	// backoff-park rate towers over the other cores' — the steal fabric
	// is spinning against a skewed color distribution.
	AnomalyStealImbalance = "steal-imbalance"
	// AnomalySpillGrowth fires when the on-disk spill backlog grows
	// monotonically across consecutive windows — arrival exceeds drain
	// and the disk FIFO is filling, not absorbing a burst.
	AnomalySpillGrowth = "spill-growth"
	// AnomalyStallRecurrence fires when a core is stalled right now or
	// stall episodes recur across recent windows — a handler (or its
	// dependency) is repeatedly blocking a worker.
	AnomalyStallRecurrence = "stall-recurrence"
)

// Anomaly is one health detector firing: the kind (see the Anomaly*
// constants), a human-readable detail, and the observed value vs the
// limit it crossed (unit depends on the kind — nanoseconds for drift,
// events/sec for imbalance, windows for growth, episodes for stalls).
type Anomaly struct {
	Kind   string    `json:"kind"`
	Detail string    `json:"detail"`
	Value  float64   `json:"value"`
	Limit  float64   `json:"limit"`
	At     time.Time `json:"at"`
}

// HealthReport is a runtime's self-assessment and the document
// /debug/health serves. EvaluateHealth fills the verdict (Healthy,
// Windows, Anomalies) from the retained time series; the runtime adds
// what only it knows (Enabled, the cumulative TotalAnomalies and
// Incidents). Healthy means no detector is firing right now; it says
// nothing about the past. With the collector disabled (ObsInterval 0)
// the report is Healthy with Enabled false.
type HealthReport struct {
	Enabled bool `json:"enabled"`
	Healthy bool `json:"healthy"`
	// Windows is how many derived windows the detectors saw.
	Windows int `json:"windows"`
	// TotalAnomalies counts fresh anomaly episodes since Start (the
	// mely_anomalies_total counter).
	TotalAnomalies int64 `json:"total_anomalies"`
	// Incidents counts captured incident bundles (Config.IncidentDir).
	Incidents int64     `json:"incidents"`
	Anomalies []Anomaly `json:"anomalies,omitempty"`
}

// EvaluateHealth runs every detector over the samples (oldest first,
// as returned by TimeSeries.Snapshot) and reports what is firing right
// now. Pure function of its inputs: the runtime's collector owns
// episode accounting and incident capture. The detectors' thresholds
// are constants beside each detector.
func EvaluateHealth(samples []TSSample) HealthReport {
	points := DerivePoints(samples)
	rep := HealthReport{Healthy: true, Windows: len(points)}
	if len(points) == 0 {
		return rep
	}
	cur := &points[len(points)-1]

	if a, ok := detectDrift(points); ok {
		rep.Anomalies = append(rep.Anomalies, a)
	}
	if a, ok := detectImbalance(cur); ok {
		rep.Anomalies = append(rep.Anomalies, a)
	}
	if a, ok := detectSpillGrowth(points); ok {
		rep.Anomalies = append(rep.Anomalies, a)
	}
	if a, ok := detectStalls(points); ok {
		rep.Anomalies = append(rep.Anomalies, a)
	}
	rep.Healthy = len(rep.Anomalies) == 0
	return rep
}

// Queue-delay drift fires when the current window's p99 exceeds
// driftFactor x the median p99 of up to driftBaselineWindows trailing
// windows, of which at least driftMinBaseline saw traffic. A factor of 4
// is two histogram buckets — below that is resolution noise. Drift
// below driftFloor never fires, however large the ratio: an idle
// runtime jumping 500ns -> 4us is not an anomaly.
const (
	driftFactor          = 4.0
	driftFloor           = 2 * time.Millisecond
	driftBaselineWindows = 30
	driftMinBaseline     = 3
)

// detectDrift compares the newest window's queue-delay p99 against the
// median p99 of the trailing windows that saw traffic.
func detectDrift(points []TSPoint) (Anomaly, bool) {
	cur := &points[len(points)-1]
	if cur.QDelayP99Nanos == 0 || time.Duration(cur.QDelayP99Nanos) < driftFloor {
		return Anomaly{}, false
	}
	trailing := points[:len(points)-1]
	if len(trailing) > driftBaselineWindows {
		trailing = trailing[len(trailing)-driftBaselineWindows:]
	}
	var base []int64
	for i := range trailing {
		if trailing[i].QDelayP99Nanos > 0 {
			base = append(base, trailing[i].QDelayP99Nanos)
		}
	}
	if len(base) < driftMinBaseline {
		return Anomaly{}, false
	}
	baseline := medianInt64(base)
	limit := float64(baseline) * driftFactor
	if float64(cur.QDelayP99Nanos) <= limit {
		return Anomaly{}, false
	}
	return Anomaly{
		Kind: AnomalyQueueDelayDrift,
		Detail: fmt.Sprintf("queue-delay p99 %v vs trailing median %v (factor %.1f)",
			time.Duration(cur.QDelayP99Nanos), time.Duration(baseline), driftFactor),
		Value: float64(cur.QDelayP99Nanos),
		Limit: limit,
		At:    time.Unix(0, cur.WallNanos),
	}, true
}

// Steal imbalance fires when the hottest core's failed-steal+backoff
// rate exceeds imbalanceFactor x the mean of the other cores (plus one,
// so a single noisy core over an idle fleet still needs real volume)
// and imbalanceFloor events/sec in absolute terms.
//
// imbalanceMinEvents is the evidence it needs besides the rate floor:
// the hottest core's failed steals + backoff parks counted in the
// window itself. Rates are counts over the window length, so in a
// millisecond window (a short ObsInterval, or a late collector tick
// followed by a punctual one) two events on one core and a 500µs park
// on the other read as thousands per second against zero.
const (
	imbalanceFactor    = 8.0
	imbalanceFloor     = 1000.0
	imbalanceMinEvents = 32
)

// detectImbalance checks the newest window's per-core failed-steal +
// backoff-park rates for one core towering over the rest.
func detectImbalance(cur *TSPoint) (Anomaly, bool) {
	if len(cur.Cores) < 2 {
		return Anomaly{}, false
	}
	maxRate, maxCore, sum := 0.0, 0, 0.0
	for i := range cur.Cores {
		r := cur.Cores[i].FailedPerSec + cur.Cores[i].BackoffPerSec
		sum += r
		if r > maxRate {
			maxRate, maxCore = r, i
		}
	}
	if maxRate < imbalanceFloor || maxRate*cur.WindowSeconds < imbalanceMinEvents {
		return Anomaly{}, false
	}
	others := (sum - maxRate) / float64(len(cur.Cores)-1)
	limit := imbalanceFactor * (others + 1)
	if maxRate <= limit {
		return Anomaly{}, false
	}
	return Anomaly{
		Kind: AnomalyStealImbalance,
		Detail: fmt.Sprintf("core %d failed-steal/backoff rate %.0f/s vs %.0f/s mean elsewhere",
			maxCore, maxRate, others),
		Value: maxRate,
		Limit: limit,
		At:    time.Unix(0, cur.WallNanos),
	}, true
}

// spillGrowthWindows is how many most-recent windows SpilledNow must
// have increased in, one after the other, for spill growth to fire.
const spillGrowthWindows = 4

// detectSpillGrowth fires on a monotonically growing disk backlog
// across the most recent spillGrowthWindows windows.
func detectSpillGrowth(points []TSPoint) (Anomaly, bool) {
	if len(points) < spillGrowthWindows {
		return Anomaly{}, false
	}
	recent := points[len(points)-spillGrowthWindows:]
	prev := int64(-1)
	for i := range recent {
		if prev >= 0 && recent[i].SpilledNow <= prev {
			return Anomaly{}, false
		}
		prev = recent[i].SpilledNow
	}
	// All strictly increasing; growth over a zero base still counts,
	// but the final backlog must be nonzero (it is, by strictness).
	cur := &recent[len(recent)-1]
	return Anomaly{
		Kind: AnomalySpillGrowth,
		Detail: fmt.Sprintf("spill backlog grew %d consecutive windows to %d events on disk",
			spillGrowthWindows, cur.SpilledNow),
		Value: float64(cur.SpilledNow),
		Limit: float64(spillGrowthWindows),
		At:    time.Unix(0, cur.WallNanos),
	}, true
}

// stallWindows is the recent span scanned for stall recurrence and
// stallRecurrence the episode count within it that fires. A
// currently-stalled core fires immediately regardless.
const (
	stallWindows    = 5
	stallRecurrence = 2
)

// detectStalls fires when a core is stalled right now, or when stall
// episodes reached stallRecurrence across the last stallWindows.
func detectStalls(points []TSPoint) (Anomaly, bool) {
	cur := &points[len(points)-1]
	if cur.StalledCores > 0 {
		return Anomaly{
			Kind:   AnomalyStallRecurrence,
			Detail: fmt.Sprintf("%d core(s) currently stalled past the watchdog threshold", cur.StalledCores),
			Value:  float64(cur.StalledCores),
			Limit:  0,
			At:     time.Unix(0, cur.WallNanos),
		}, true
	}
	recent := points
	if len(recent) > stallWindows {
		recent = recent[len(recent)-stallWindows:]
	}
	var episodes int64
	for i := range recent {
		if recent[i].Stalls > 0 {
			episodes += recent[i].Stalls
		}
	}
	if episodes < stallRecurrence {
		return Anomaly{}, false
	}
	return Anomaly{
		Kind: AnomalyStallRecurrence,
		Detail: fmt.Sprintf("%d stall episodes across the last %d windows",
			episodes, len(recent)),
		Value: float64(episodes),
		Limit: stallRecurrence,
		At:    time.Unix(0, cur.WallNanos),
	}, true
}

func medianInt64(v []int64) int64 {
	// Insertion sort: baselines are <= driftBaselineWindows entries.
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j-1] > v[j]; j-- {
			v[j-1], v[j] = v[j], v[j-1]
		}
	}
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}
