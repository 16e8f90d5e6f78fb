// Command melytop is an htop-style terminal view of one or more live
// mely runtimes, scraped over the observability side listener
// (-debug-addr): per-core utilization bars, steal and backoff rates,
// the hottest colors by sampled queue delay, and a p99 sparkline over
// the timeseries window, refreshed in place.
//
//	melytop -addr localhost:9090
//	melytop -addr web1:9090,web2:9090 -interval 2s
//	melytop -addr localhost:9090 -snapshot        # one plain frame, for CI
//
// Zero dependencies beyond the standard library and plain ANSI escape
// codes: colors degrade to nothing with -no-color, and -snapshot
// renders exactly one frame without any escape codes — stable output a
// CI job can grep ("core 0 |" rows, the HEALTHY/UNHEALTHY banner).
//
// The per-core bars and rates need the server to run with
// -obs-interval (the timeseries ring); without it melytop falls back
// to cumulative per-core counters from /metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/melyruntime/mely/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "melytop:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addrs    = flag.String("addr", "localhost:9090", "comma-separated debug addresses (each server's -debug-addr)")
		interval = flag.Duration("interval", time.Second, "refresh period in live mode")
		snapshot = flag.Bool("snapshot", false, "render one frame without ANSI escapes and exit (CI mode)")
		topK     = flag.Int("k", 5, "hot colors to show per server")
		noColor  = flag.Bool("no-color", false, "disable ANSI colors in live mode")
	)
	flag.Parse()

	targets := strings.Split(*addrs, ",")
	for i := range targets {
		targets[i] = strings.TrimSpace(targets[i])
	}

	if *snapshot {
		var firstErr error
		for _, addr := range targets {
			v, err := fetch(addr)
			if err != nil {
				fmt.Printf("▼ %s — UNREACHABLE (%v)\n", addr, err)
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			render(os.Stdout, v, *topK, false)
		}
		return firstErr
	}

	// Live mode: redraw in place until interrupted.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	for {
		var frame strings.Builder
		frame.WriteString("\x1b[H\x1b[2J") // home + clear
		for _, addr := range targets {
			v, err := fetch(addr)
			if err != nil {
				fmt.Fprintf(&frame, "▼ %s — UNREACHABLE (%v)\n", addr, err)
				continue
			}
			render(&frame, v, *topK, !*noColor)
		}
		fmt.Fprintf(&frame, "\n%s  q=^C  refresh=%v\n",
			time.Now().Format("15:04:05"), *interval)
		os.Stdout.WriteString(frame.String())
		select {
		case <-sig:
			return nil
		case <-ticker.C:
		}
	}
}

// view is everything one frame shows for one server.
type view struct {
	addr    string
	healthy bool // /debug/health status code
	health  obs.HealthReport
	dump    obs.TSDump
	samples map[string]float64
}

// fetch scrapes one server's three documents. /metrics is required;
// the health and timeseries endpoints degrade gracefully (older
// servers, or ones without -obs-interval).
func fetch(addr string) (*view, error) {
	v := &view{addr: addr, healthy: true}
	raw, _, err := obs.Fetch("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	if v.samples, err = obs.ParseExposition(string(raw)); err != nil {
		return nil, err
	}
	if raw, status, err := obs.Fetch("http://"+addr+"/debug/health", http.StatusOK, http.StatusServiceUnavailable); err == nil {
		v.healthy = status == http.StatusOK
		_ = json.Unmarshal(raw, &v.health)
	}
	if raw, _, err = obs.Fetch("http://" + addr + "/debug/timeseries"); err == nil {
		_ = json.Unmarshal(raw, &v.dump)
	}
	return v, nil
}

const (
	ansiReset = "\x1b[0m"
	ansiRed   = "\x1b[31m"
	ansiGreen = "\x1b[32m"
	ansiCyan  = "\x1b[36m"
	ansiDim   = "\x1b[2m"
)

func paint(color, s string, on bool) string {
	if !on {
		return s
	}
	return color + s + ansiReset
}

// render writes one server panel.
func render(w io.Writer, v *view, topK int, color bool) {
	banner := paint(ansiGreen, "HEALTHY", color)
	if !v.healthy {
		banner = paint(ansiRed, "UNHEALTHY", color)
	}
	fmt.Fprintf(w, "▶ %s — %s", v.addr, banner)
	if v.health.Enabled {
		fmt.Fprintf(w, "  windows=%d anomalies=%d incidents=%d",
			v.health.Windows, v.health.TotalAnomalies, v.health.Incidents)
	}
	fmt.Fprintln(w)
	for _, a := range v.health.Anomalies {
		fmt.Fprintf(w, "  %s %s: %s\n", paint(ansiRed, "!", color), a.Kind, a.Detail)
	}

	var last *obs.TSPoint
	if n := len(v.dump.Points); n > 0 {
		last = &v.dump.Points[n-1]
	}
	if last != nil {
		fmt.Fprintf(w, "  events %s/s  posts %s/s  steals %s/s  spill %s/s  queued %d",
			humanCount(last.EventsPerSec), humanCount(last.PostsPerSec),
			humanCount(last.StealsPerSec), humanBytes(last.SpillBytesPerSec),
			last.QueuedEvents)
		fmt.Fprintln(w)
		fmt.Fprintf(w, "  queue-delay p99 %s now %s   exec p99 %s\n",
			paint(ansiCyan, sparkline(v.dump.Points, 32, func(p *obs.TSPoint) float64 {
				return float64(p.QDelayP99Nanos)
			}), color),
			humanDur(last.QDelayP99Nanos), humanDur(last.ExecP99Nanos))
		renderCoreRates(w, last, color)
	} else {
		fmt.Fprintf(w, "  %s\n", paint(ansiDim,
			"(no timeseries — run the server with -obs-interval for rates; showing cumulative counters)", color))
		renderCoreTotals(w, v.samples, color)
	}
	renderHotColors(w, v.samples, topK, color)
	fmt.Fprintln(w)
}

// renderCoreRates draws one bar row per core from the latest window.
func renderCoreRates(w io.Writer, p *obs.TSPoint, color bool) {
	for i := range p.Cores {
		c := &p.Cores[i]
		util := c.ExecUtilization
		row := fmt.Sprintf("  core %-3d |%s| %3.0f%%  %7s ev/s  steals %s/s  backoff %s/s  q %d",
			c.Core, bar(util, 20), util*100, humanCount(c.EventsPerSec),
			humanCount(c.StealsPerSec), humanCount(c.BackoffPerSec), c.Queued)
		if c.Stalls > 0 {
			row += paint(ansiRed, fmt.Sprintf("  STALLS %d", c.Stalls), color)
		}
		fmt.Fprintln(w, row)
	}
}

// renderCoreTotals is the /metrics-only fallback: cumulative per-core
// counters, no rates, bars scaled against the busiest core.
func renderCoreTotals(w io.Writer, samples map[string]float64, color bool) {
	type coreRow struct {
		core           int
		events, steals float64
	}
	var rows []coreRow
	var maxEvents float64
	for key, val := range samples {
		if !strings.HasPrefix(key, "mely_events_total{") {
			continue
		}
		core, err := strconv.Atoi(obs.LabelValue(key, "core"))
		if err != nil {
			continue
		}
		steals := samples[`mely_steals_total{core="`+strconv.Itoa(core)+`"}`]
		rows = append(rows, coreRow{core: core, events: val, steals: steals})
		maxEvents = math.Max(maxEvents, val)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].core < rows[j].core })
	for _, r := range rows {
		frac := 0.0
		if maxEvents > 0 {
			frac = r.events / maxEvents
		}
		fmt.Fprintf(w, "  core %-3d |%s| %10s events  %8s steals\n",
			r.core, bar(frac, 20), humanCount(r.events), humanCount(r.steals))
	}
}

// renderHotColors aggregates the top-K delay-attribution gauges across
// cores and prints the hottest colors with their mean sampled delay.
func renderHotColors(w io.Writer, samples map[string]float64, topK int, color bool) {
	type hot struct {
		color      string
		samples    float64
		delayXSamp float64 // mean*samples, for a weighted fleet mean
	}
	byColor := map[string]*hot{}
	for key, val := range samples {
		if !strings.HasPrefix(key, "mely_color_delay_samples{") || val <= 0 {
			continue
		}
		c := obs.LabelValue(key, "color")
		h := byColor[c]
		if h == nil {
			h = &hot{color: c}
			byColor[c] = h
		}
		h.samples += val
		mean := samples["mely_color_delay_mean_seconds"+strings.TrimPrefix(key, "mely_color_delay_samples")]
		h.delayXSamp += mean * val
	}
	if len(byColor) == 0 || topK <= 0 {
		return
	}
	hots := make([]*hot, 0, len(byColor))
	for _, h := range byColor {
		hots = append(hots, h)
	}
	sort.Slice(hots, func(i, j int) bool {
		if hots[i].samples != hots[j].samples {
			return hots[i].samples > hots[j].samples
		}
		return hots[i].color < hots[j].color
	})
	if len(hots) > topK {
		hots = hots[:topK]
	}
	parts := make([]string, 0, len(hots))
	for _, h := range hots {
		mean := time.Duration(h.delayXSamp / h.samples * float64(time.Second))
		parts = append(parts, fmt.Sprintf("#%s %s×%s",
			h.color, humanCount(h.samples), mean.Round(time.Microsecond)))
	}
	fmt.Fprintf(w, "  hot colors: %s\n", paint(ansiCyan, strings.Join(parts, "  "), color))
}

var barCells = []rune("▏▎▍▌▋▊▉█")

// bar renders a fractional block bar of the given cell width.
func bar(frac float64, width int) string {
	frac = math.Max(0, math.Min(1, frac))
	eighths := int(math.Round(frac * float64(width*8)))
	var b strings.Builder
	for i := 0; i < width; i++ {
		left := eighths - i*8
		switch {
		case left >= 8:
			b.WriteRune('█')
		case left <= 0:
			b.WriteByte(' ')
		default:
			b.WriteRune(barCells[left-1])
		}
	}
	return b.String()
}

var sparkCells = []rune("▁▂▃▄▅▆▇█")

// sparkline renders the last width points of one metric, scaled to the
// window's max.
func sparkline(points []obs.TSPoint, width int, get func(*obs.TSPoint) float64) string {
	if len(points) > width {
		points = points[len(points)-width:]
	}
	var maxV float64
	for i := range points {
		maxV = math.Max(maxV, get(&points[i]))
	}
	var b strings.Builder
	for i := range points {
		if maxV <= 0 {
			b.WriteRune('▁')
			continue
		}
		idx := int(get(&points[i]) / maxV * float64(len(sparkCells)-1))
		b.WriteRune(sparkCells[idx])
	}
	return b.String()
}

// humanCount renders a rate or count with k/M suffixes.
func humanCount(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// humanBytes renders a byte rate with binary suffixes.
func humanBytes(v float64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.1fGiB", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMiB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKiB", v/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", v)
	}
}

// humanDur renders nanoseconds at microsecond precision.
func humanDur(nanos int64) string {
	return time.Duration(nanos).Round(time.Microsecond).String()
}
