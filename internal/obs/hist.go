// Package obs is the observability toolkit: sampled power-of-two
// latency histograms, the bounds of the fixed-bucket ones, the per-core
// flight-recorder ring, Chrome trace-event emission for live and
// simulated runs, Prometheus text-format exposition helpers, the
// time-series ring with its health detectors, and the /metrics + /debug
// mux the demo servers mount on a side listener.
//
// The package is deliberately free of any dependency on the runtime
// itself: the root mely package imports obs for its hot-path primitives
// (Hist, Ring) and renders its Stats through the writers here, so obs
// stays importable from both sides — the runtime below and the
// commands/harness above — without a cycle.
package obs

import (
	"math"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"
)

// NumLatencyBuckets is the bucket count of Hist: power-of-two bucket
// widths from 256ns up to ~17s, with the last bucket catching
// everything beyond. Coarse on purpose — the histogram is updated on a
// sampled hot path, and a factor-of-two resolution is plenty to tell a
// 2µs queue delay from a 2ms one.
const NumLatencyBuckets = 28

// latMinShift anchors bucket 0 at durations below 1<<latMinShift ns.
const latMinShift = 8

// LatencyBucket maps a duration in nanoseconds to its bucket index:
// bucket 0 holds d < 256ns, bucket i holds d in [2^(i+7), 2^(i+8)),
// and the last bucket holds everything from ~17s up.
func LatencyBucket(nanos int64) int {
	if nanos <= 0 {
		return 0
	}
	b := bits.Len64(uint64(nanos)) - latMinShift
	if b < 0 {
		return 0
	}
	if b >= NumLatencyBuckets {
		return NumLatencyBuckets - 1
	}
	return b
}

// LatencyUpperNanos is the exclusive upper bound of bucket i in
// nanoseconds (math.MaxInt64 for the overflow bucket).
func LatencyUpperNanos(i int) int64 {
	if i >= NumLatencyBuckets-1 {
		return math.MaxInt64
	}
	return 1 << (latMinShift + i)
}

// Hist is a concurrent power-of-two latency histogram: one atomic add
// per observation on the bucket, one on the sum. Snapshots are
// bucket-wise atomic but not mutually consistent, exactly like the
// runtime's other counters.
type Hist struct {
	buckets [NumLatencyBuckets]atomic.Int64
	sum     atomic.Int64
}

// Observe records one duration in nanoseconds.
func (h *Hist) Observe(nanos int64) {
	if nanos < 0 {
		nanos = 0
	}
	h.buckets[LatencyBucket(nanos)].Add(1)
	h.sum.Add(nanos)
}

// Load copies the bucket counts into counts and returns the sum of the
// observed durations in nanoseconds.
func (h *Hist) Load(counts *[NumLatencyBuckets]int64) (sumNanos int64) {
	for i := range counts {
		counts[i] = h.buckets[i].Load()
	}
	return h.sum.Load()
}

// Quantile computes the q-quantile (0 < q <= 1) of a bucket-count
// snapshot, reported as the upper bound of the bucket where the
// cumulative count crosses q — the conservative (pessimistic) read a
// gate should use. Zero observations yield zero for any q.
//
// Out-of-range q is defined (and pinned by tests) rather than
// rejected: q <= 0 behaves like the smallest nonzero quantile and
// reports the first nonempty bucket's upper bound; q > 1 inflates the
// target past the total count and reports the overflow bucket's bound
// (math.MaxInt64 ns) — an impossible quantile reads as "slower than
// everything observed".
func Quantile(counts *[NumLatencyBuckets]int64, q float64) time.Duration {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= target {
			return time.Duration(LatencyUpperNanos(i))
		}
	}
	return time.Duration(LatencyUpperNanos(NumLatencyBuckets - 1))
}

// Bounds is the shape of a fixed-bucket histogram: five ascending
// inclusive upper bounds, hence six buckets, the last unbounded. The
// one value bins an observation (Bucket) and labels the rendered
// series (Uppers), so the two cannot drift apart.
type Bounds [5]int64

// The runtime's four fixed-bucket histograms. Stats documents the
// fields they shape; WriteMetrics renders their `le` labels from here.
var (
	// StealBatchBounds bins a steal by the colors it migrated
	// (CoreStats.StealBatchHist).
	StealBatchBounds = Bounds{1, 2, 4, 8, 16}
	// TimerLagBounds bins a firing's lag behind its deadline, in
	// nanoseconds (CoreStats.TimerLagHist).
	TimerLagBounds = Bounds{100_000, 1_000_000, 2_000_000, 10_000_000, 100_000_000}
	// PollBatchBounds bins a poll wakeup by the readiness events it
	// harvested (Stats.PollBatchHist; internal/netpoll bins with it).
	PollBatchBounds = Bounds{1, 4, 16, 64, 256}
	// SpillDepthBounds bins a spilled record by its color's on-disk
	// depth after the append (Stats.SpillDepthHist).
	SpillDepthBounds = Bounds{16, 64, 256, 1024, 4096}
)

// NumBuckets is the bucket count of a histogram shaped by a Bounds.
const NumBuckets = len(Bounds{}) + 1

// Counts is the counter half of such a histogram: one atomic word per
// bucket and nothing beside them — the footprint of the plain
// [NumBuckets]atomic.Int64 a hot struct would otherwise declare, so
// putting one there moves no neighbouring field.
type Counts [NumBuckets]atomic.Int64

// Observe counts v into the bucket b bins it in.
func (c *Counts) Observe(b *Bounds, v int64) { c[b.Bucket(v)].Add(1) }

// AddTo adds the counts into a snapshot; into a zero one it is the
// load.
func (c *Counts) AddTo(snap *[NumBuckets]int64) {
	for i := range c {
		snap[i] += c[i].Load()
	}
}

// Bucket is the index of the first bound v does not exceed, len(b)
// past the last.
func (b *Bounds) Bucket(v int64) int {
	for i, upper := range b {
		if v <= upper {
			return i
		}
	}
	return len(b)
}

// Legend labels the six buckets for a log line — "≤1,≤4,≤16,≤64,≤256,>256"
// — rendering each bound with show.
func (b *Bounds) Legend(show func(int64) string) string {
	var sb strings.Builder
	for _, upper := range b {
		sb.WriteString("≤" + show(upper) + ",")
	}
	return sb.String() + ">" + show(b[len(b)-1])
}

// Uppers renders the bounds as a histogram's `le` values, each divided
// by unit (1 for counts, 1e9 for nanosecond bounds shown in seconds).
func (b *Bounds) Uppers(unit float64) []float64 {
	uppers := make([]float64, len(b))
	for i, upper := range b {
		uppers[i] = float64(upper) / unit
	}
	return uppers
}
