package obs

import (
	"fmt"
	"math"
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

// HealthConfig tunes the detectors. The zero value selects the
// defaults noted on each field (applied by withDefaults), so callers
// set only what they want to move.
type HealthConfig struct {
	// DriftFactor: queue-delay drift fires when the current window's
	// p99 exceeds DriftFactor x the trailing-baseline median p99.
	// Default 4 (two histogram buckets — below that is resolution
	// noise).
	DriftFactor float64
	// DriftFloor: drift below this absolute p99 never fires, however
	// large the ratio; an idle runtime jumping 500ns -> 4us is not an
	// anomaly. Default 2ms.
	DriftFloor time.Duration
	// BaselineWindows caps how many trailing windows (before the
	// current one) form the baseline median. Default 30.
	BaselineWindows int
	// MinBaselineWindows is how many trailing windows with traffic are
	// needed before drift can fire at all. Default 3.
	MinBaselineWindows int

	// ImbalanceFactor: steal imbalance fires when the hottest core's
	// failed-steal+backoff rate exceeds ImbalanceFactor x the mean of
	// the other cores (plus one, so a single noisy core over an idle
	// fleet still needs real volume). Default 8.
	ImbalanceFactor float64
	// ImbalanceFloor: the hottest core must also exceed this absolute
	// rate (events/sec) for imbalance to fire. Default 1000/s.
	ImbalanceFloor float64

	// SpillGrowthWindows: spill growth fires when SpilledNow increased
	// in each of this many most-recent windows. Default 4.
	SpillGrowthWindows int

	// StallWindows is the recent span scanned for stall recurrence;
	// StallRecurrence is the episode count within it that fires.
	// Defaults 5 and 2. A currently-stalled core (StalledCores > 0 in
	// the newest sample) fires immediately regardless.
	StallWindows    int
	StallRecurrence int

	// TargetQueueDelay, when positive, turns on the MaxQueuedEvents
	// recommendation (see RecommendMaxQueued). Default off.
	TargetQueueDelay time.Duration
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.DriftFactor == 0 {
		c.DriftFactor = 4
	}
	if c.DriftFloor == 0 {
		c.DriftFloor = 2 * time.Millisecond
	}
	if c.BaselineWindows == 0 {
		c.BaselineWindows = 30
	}
	if c.MinBaselineWindows == 0 {
		c.MinBaselineWindows = 3
	}
	if c.ImbalanceFactor == 0 {
		c.ImbalanceFactor = 8
	}
	if c.ImbalanceFloor == 0 {
		c.ImbalanceFloor = 1000
	}
	if c.SpillGrowthWindows == 0 {
		c.SpillGrowthWindows = 4
	}
	if c.StallWindows == 0 {
		c.StallWindows = 5
	}
	if c.StallRecurrence == 0 {
		c.StallRecurrence = 2
	}
	return c
}

// Anomaly is one detector firing: the kind, a human-readable detail,
// and the observed value vs the limit it crossed (unit depends on the
// kind — nanoseconds for drift, events/sec for imbalance, windows for
// growth, episodes for stalls).
type Anomaly struct {
	Kind      string  `json:"kind"`
	Detail    string  `json:"detail"`
	Value     float64 `json:"value"`
	Limit     float64 `json:"limit"`
	WallNanos int64   `json:"wall_nanos"`
}

// HealthReport is one evaluation of the detectors over the retained
// time series. Healthy means no anomaly is currently firing; it says
// nothing about the past (the runtime keeps the cumulative episode
// count separately).
type HealthReport struct {
	Healthy   bool      `json:"healthy"`
	Windows   int       `json:"windows"`
	Anomalies []Anomaly `json:"anomalies,omitempty"`
	// RecommendedMaxQueued is the adaptive-bounds stepping stone: the
	// MaxQueuedEvents that would hold queue delay near
	// HealthConfig.TargetQueueDelay at the observed drain rate
	// (Little's law). 0 when no target is set or the window is idle.
	// Recommendation only — nothing enforces it yet.
	RecommendedMaxQueued int64 `json:"recommended_max_queued,omitempty"`
}

// RecommendMaxQueued is the adaptive-bounds recommendation math,
// isolated for testing: by Little's law a queue drained at
// eventsPerSec holds its queueing delay at target when the backlog is
// capped at eventsPerSec x target. Rounded up, floored at 1 so an
// all-but-idle runtime never recommends an unpostable bound; 0 when
// either input is unusable.
func RecommendMaxQueued(eventsPerSec float64, target time.Duration) int64 {
	if eventsPerSec <= 0 || target <= 0 {
		return 0
	}
	n := int64(math.Ceil(eventsPerSec * target.Seconds()))
	if n < 1 {
		n = 1
	}
	return n
}

// EvaluateHealth runs every detector over the samples (oldest first,
// as returned by TimeSeries.Snapshot) and reports what is firing right
// now. Pure function of its inputs: the runtime's collector owns
// episode accounting and hook dispatch.
func EvaluateHealth(samples []TSSample, cfg HealthConfig) HealthReport {
	cfg = cfg.withDefaults()
	points := DerivePoints(samples)
	rep := HealthReport{Healthy: true, Windows: len(points)}
	if len(points) == 0 {
		return rep
	}
	cur := &points[len(points)-1]

	if a, ok := detectDrift(points, cfg); ok {
		rep.Anomalies = append(rep.Anomalies, a)
	}
	if a, ok := detectImbalance(cur, cfg); ok {
		rep.Anomalies = append(rep.Anomalies, a)
	}
	if a, ok := detectSpillGrowth(points, cfg); ok {
		rep.Anomalies = append(rep.Anomalies, a)
	}
	if a, ok := detectStalls(points, cfg); ok {
		rep.Anomalies = append(rep.Anomalies, a)
	}
	rep.Healthy = len(rep.Anomalies) == 0
	if cfg.TargetQueueDelay > 0 {
		rep.RecommendedMaxQueued = RecommendMaxQueued(cur.EventsPerSec, cfg.TargetQueueDelay)
	}
	return rep
}

// detectDrift compares the newest window's queue-delay p99 against the
// median p99 of the trailing windows that saw traffic.
func detectDrift(points []TSPoint, cfg HealthConfig) (Anomaly, bool) {
	cur := &points[len(points)-1]
	if cur.QDelayP99Nanos == 0 || time.Duration(cur.QDelayP99Nanos) < cfg.DriftFloor {
		return Anomaly{}, false
	}
	trailing := points[:len(points)-1]
	if len(trailing) > cfg.BaselineWindows {
		trailing = trailing[len(trailing)-cfg.BaselineWindows:]
	}
	var base []int64
	for i := range trailing {
		if trailing[i].QDelayP99Nanos > 0 {
			base = append(base, trailing[i].QDelayP99Nanos)
		}
	}
	if len(base) < cfg.MinBaselineWindows {
		return Anomaly{}, false
	}
	baseline := medianInt64(base)
	limit := float64(baseline) * cfg.DriftFactor
	if float64(cur.QDelayP99Nanos) <= limit {
		return Anomaly{}, false
	}
	return Anomaly{
		Kind: AnomalyQueueDelayDrift,
		Detail: fmt.Sprintf("queue-delay p99 %v vs trailing median %v (factor %.1f)",
			time.Duration(cur.QDelayP99Nanos), time.Duration(baseline), cfg.DriftFactor),
		Value:     float64(cur.QDelayP99Nanos),
		Limit:     limit,
		WallNanos: cur.WallNanos,
	}, true
}

// imbalanceMinEvents is the evidence steal imbalance needs besides its
// rate floor: the hottest core's failed steals + backoff parks counted
// in the window itself. Rates are counts over the window length, so in
// a millisecond window (a short ObsInterval, or a late collector tick
// followed by a punctual one) two events on one core and a 500µs park
// on the other read as thousands per second against zero.
const imbalanceMinEvents = 32

// detectImbalance checks the newest window's per-core failed-steal +
// backoff-park rates for one core towering over the rest.
func detectImbalance(cur *TSPoint, cfg HealthConfig) (Anomaly, bool) {
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
	if maxRate < cfg.ImbalanceFloor || maxRate*cur.WindowSeconds < imbalanceMinEvents {
		return Anomaly{}, false
	}
	others := (sum - maxRate) / float64(len(cur.Cores)-1)
	limit := cfg.ImbalanceFactor * (others + 1)
	if maxRate <= limit {
		return Anomaly{}, false
	}
	return Anomaly{
		Kind: AnomalyStealImbalance,
		Detail: fmt.Sprintf("core %d failed-steal/backoff rate %.0f/s vs %.0f/s mean elsewhere",
			maxCore, maxRate, others),
		Value:     maxRate,
		Limit:     limit,
		WallNanos: cur.WallNanos,
	}, true
}

// detectSpillGrowth fires on a monotonically growing disk backlog
// across the most recent SpillGrowthWindows windows.
func detectSpillGrowth(points []TSPoint, cfg HealthConfig) (Anomaly, bool) {
	if len(points) < cfg.SpillGrowthWindows {
		return Anomaly{}, false
	}
	recent := points[len(points)-cfg.SpillGrowthWindows:]
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
			cfg.SpillGrowthWindows, cur.SpilledNow),
		Value:     float64(cur.SpilledNow),
		Limit:     float64(cfg.SpillGrowthWindows),
		WallNanos: cur.WallNanos,
	}, true
}

// detectStalls fires when a core is stalled right now, or when stall
// episodes reached StallRecurrence across the last StallWindows.
func detectStalls(points []TSPoint, cfg HealthConfig) (Anomaly, bool) {
	cur := &points[len(points)-1]
	if cur.StalledCores > 0 {
		return Anomaly{
			Kind:      AnomalyStallRecurrence,
			Detail:    fmt.Sprintf("%d core(s) currently stalled past the watchdog threshold", cur.StalledCores),
			Value:     float64(cur.StalledCores),
			Limit:     0,
			WallNanos: cur.WallNanos,
		}, true
	}
	recent := points
	if len(recent) > cfg.StallWindows {
		recent = recent[len(recent)-cfg.StallWindows:]
	}
	var episodes int64
	for i := range recent {
		if recent[i].Stalls > 0 {
			episodes += recent[i].Stalls
		}
	}
	if episodes < int64(cfg.StallRecurrence) {
		return Anomaly{}, false
	}
	return Anomaly{
		Kind: AnomalyStallRecurrence,
		Detail: fmt.Sprintf("%d stall episodes across the last %d windows",
			episodes, len(recent)),
		Value:     float64(episodes),
		Limit:     float64(cfg.StallRecurrence),
		WallNanos: cur.WallNanos,
	}, true
}

func medianInt64(v []int64) int64 {
	// Insertion sort: baselines are <= BaselineWindows entries.
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
