package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// MetricsWriter renders the Prometheus text exposition format
// (version 0.0.4). Callers emit one Family header per metric name and
// then every series of that family before moving on — the format
// requires families to be contiguous.
type MetricsWriter struct {
	w   *bufio.Writer
	err error
}

// NewMetricsWriter wraps w.
func NewMetricsWriter(w io.Writer) *MetricsWriter {
	return &MetricsWriter{w: bufio.NewWriterSize(w, 16<<10)}
}

func (m *MetricsWriter) printf(format string, args ...any) {
	if m.err != nil {
		return
	}
	_, m.err = fmt.Fprintf(m.w, format, args...)
}

// Family writes the # HELP / # TYPE header pair. typ is "counter",
// "gauge", or "histogram".
func (m *MetricsWriter) Family(name, typ, help string) {
	m.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one series sample. labels is either empty or a
// pre-rendered `k="v",k2="v2"` string.
func (m *MetricsWriter) Sample(name, labels string, v float64) {
	if labels == "" {
		m.printf("%s %s\n", name, formatFloat(v))
		return
	}
	m.printf("%s{%s} %s\n", name, labels, formatFloat(v))
}

// Histogram writes the cumulative `le` bucket series plus _sum and
// _count for one label set. uppers are the buckets' inclusive upper
// bounds in seconds (the +Inf bucket is implicit); counts are
// per-bucket (non-cumulative) observation counts.
func (m *MetricsWriter) Histogram(name, labels string, uppers []float64, counts []int64, sumSeconds float64) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum int64
	for i, c := range counts {
		cum += c
		le := "+Inf"
		if i < len(uppers) && !math.IsInf(uppers[i], 1) {
			le = formatFloat(uppers[i])
		}
		m.printf("%s_bucket{%s%sle=\"%s\"} %d\n", name, labels, sep, le, cum)
	}
	m.Sample(name+"_sum", labels, sumSeconds)
	m.printf("%s_count", name)
	if labels != "" {
		m.printf("{%s}", labels)
	}
	m.printf(" %d\n", cum)
}

// Flush flushes buffered output and reports the first write error.
func (m *MetricsWriter) Flush() error {
	if m.err != nil {
		return m.err
	}
	return m.w.Flush()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ---- scrape-side helpers (swsload -scrape, melytrace -metrics-diff,
// ---- and the scenario harness's metrics SLO all parse through here).

// ParseExposition parses a Prometheus text exposition into a flat map
// keyed by the full series identity: `name` or `name{labels}` exactly
// as rendered. Comment and blank lines are skipped.
func ParseExposition(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("obs: scrape line %d: no value: %q", ln+1, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("obs: scrape line %d: %w", ln+1, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, nil
}

// seriesName strips the label set from a series key.
func seriesName(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// LabelValue extracts one label's value from a series key as
// ParseExposition renders it (`name{k="v",k2="v2"}`), or "".
func LabelValue(key, label string) string {
	i := strings.IndexByte(key, '{')
	if i < 0 {
		return ""
	}
	for _, kv := range strings.Split(strings.TrimSuffix(key[i+1:], "}"), ",") {
		k, v, ok := strings.Cut(kv, "=")
		if ok && k == label {
			return strings.Trim(v, `"`)
		}
	}
	return ""
}

// HistogramQuantile computes the q-quantile of the named histogram
// from a parsed scrape, aggregating every label set of name_bucket
// (summing across cores) and interpolating nothing: the reported value
// is the upper bound in seconds of the bucket where the cumulative
// count crosses q. Returns ok=false when the histogram has no samples
// (no matching buckets, or every bucket zero).
//
// Out-of-range q is defined (and pinned by tests) rather than
// rejected: q <= 0 clamps to the first observation (the first nonempty
// bucket's bound); q > 1 overshoots every bucket and reports the
// largest finite bound. The reported value is never +Inf — a crossing
// that lands in the +Inf bucket reports the largest finite bound as
// the floor of the true value (0 when only +Inf is populated).
func HistogramQuantile(samples map[string]float64, name string, q float64) (seconds float64, ok bool) {
	type bkt struct {
		le  float64
		cum float64
	}
	byLe := make(map[float64]float64)
	for key, v := range samples {
		if seriesName(key) != name+"_bucket" {
			continue
		}
		le := LabelValue(key, "le")
		if le == "" {
			continue
		}
		var bound float64
		if le == "+Inf" {
			bound = math.Inf(1)
		} else {
			f, err := strconv.ParseFloat(le, 64)
			if err != nil || math.IsNaN(f) {
				continue // a NaN bound orders nowhere: not a bucket
			}
			bound = f
		}
		byLe[bound] += v
	}
	if len(byLe) == 0 {
		return 0, false
	}
	bkts := make([]bkt, 0, len(byLe))
	for le, cum := range byLe {
		bkts = append(bkts, bkt{le, cum})
	}
	sort.Slice(bkts, func(i, j int) bool { return bkts[i].le < bkts[j].le })
	total := bkts[len(bkts)-1].cum
	if total == 0 {
		return 0, false
	}
	target := math.Ceil(q * total)
	if target < 1 {
		target = 1
	}
	for _, b := range bkts {
		if b.cum >= target {
			if math.IsInf(b.le, 1) {
				// Only the +Inf bucket crossed: report the largest
				// finite bound as the floor of the true value.
				if len(bkts) > 1 {
					return bkts[len(bkts)-2].le, true
				}
				return 0, true
			}
			return b.le, true
		}
	}
	// Out-of-range q (> 1): nothing crossed the inflated target.
	// Report the largest finite bound, like the +Inf crossing above —
	// never +Inf itself.
	if last := bkts[len(bkts)-1]; !math.IsInf(last.le, 1) {
		return last.le, true
	}
	if len(bkts) > 1 {
		return bkts[len(bkts)-2].le, true
	}
	return 0, true
}

// MonotonicViolations diffs two scrapes of the same target and returns
// a description per counter-typed series (by naming convention:
// *_total, *_count, *_sum, *_bucket) that decreased or disappeared.
// Gauge series are exempt — they may move either way.
func MonotonicViolations(before, after map[string]float64) []string {
	var out []string
	for key, old := range before {
		name := seriesName(key)
		switch {
		case strings.HasSuffix(name, "_total"),
			strings.HasSuffix(name, "_count"),
			strings.HasSuffix(name, "_sum"),
			strings.HasSuffix(name, "_bucket"):
		default:
			continue
		}
		now, present := after[key]
		if !present {
			out = append(out, fmt.Sprintf("%s: present before, missing after", key))
			continue
		}
		if now < old {
			out = append(out, fmt.Sprintf("%s: decreased %s -> %s", key, formatFloat(old), formatFloat(now)))
		}
	}
	sort.Strings(out)
	return out
}
