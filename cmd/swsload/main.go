// Command swsload is the closed-loop HTTP load injector of section
// V-C1: N virtual clients, each repeatedly connecting and requesting
// 150 files, with synchronized start and aggregated results.
//
//	swsload -addr localhost:8080 -clients 400 -duration 30s -files 150
//
// -burst switches the clients to open-loop bursts (offered load
// decoupled from service rate), the reproducible way to drive a
// bounded server (sws -max-queued ... -overload spill) past its queue
// bounds from the CLI:
//
//	swsload -addr localhost:8080 -clients 50 -burst 64 -burst-pause 10ms
//
// -scrape points at the server's -debug-addr metrics endpoint; the
// injector then scrapes it before and after the run and reports the
// server-side view — events executed, steals, spills, and the sampled
// queue-delay/execution-time percentiles — next to its own client-side
// throughput numbers. -scrape-out FILE additionally persists the two
// raw expositions as FILE.before and FILE.after, ready for offline
// gating with `melytrace -metrics-diff FILE.before FILE.after`.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/melyruntime/mely/internal/loadgen"
	"github.com/melyruntime/mely/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "swsload:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", "localhost:8080", "server address")
		clients   = flag.Int("clients", 200, "virtual clients")
		perConn   = flag.Int("requests", 150, "requests per connection")
		nfiles    = flag.Int("files", 150, "distinct files on the server")
		duration  = flag.Duration("duration", 30*time.Second, "run length")
		think     = flag.Duration("think", 0, "client think time between requests (0 = closed-loop hammering)")
		jitter    = flag.Duration("think-jitter", 0, "uniform random extra think time per pause")
		idle      = flag.Int("idle-conns", 0, "extra silent connections held open the whole run (C10K shape; pairs with sws -backend epoll)")
		burst     = flag.Int("burst", 0, "open-loop burst mode: pipeline this many requests per gulp regardless of service rate (0 = closed loop; pairs with sws -max-queued)")
		burstGap  = flag.Duration("burst-pause", 0, "pause between one client's bursts")
		scrape    = flag.String("scrape", "", "scrape this /metrics URL (the server's -debug-addr) before and after the run and report the server-side delta")
		scrapeOut = flag.String("scrape-out", "", "persist the raw scraped expositions to <file>.before and <file>.after for offline analysis (melytrace -metrics-diff); needs -scrape")
	)
	flag.Parse()
	if *scrapeOut != "" && *scrape == "" {
		return fmt.Errorf("-scrape-out needs -scrape")
	}

	var before map[string]float64
	if *scrape != "" {
		var err error
		if before, err = scrapeMetrics(*scrape, *scrapeOut, "before"); err != nil {
			return fmt.Errorf("pre-run scrape: %w", err)
		}
	}

	paths := make([]string, *nfiles)
	for i := range paths {
		paths[i] = fmt.Sprintf("/file%d.bin", i)
	}
	res, err := loadgen.RunHTTP(context.Background(), loadgen.HTTPConfig{
		Addr:            *addr,
		Clients:         *clients,
		RequestsPerConn: *perConn,
		Paths:           paths,
		Duration:        *duration,
		ThinkTime:       *think,
		ThinkJitter:     *jitter,
		IdleConns:       *idle,
		Burst:           *burst,
		BurstPause:      *burstGap,
	})
	if err != nil {
		return err
	}
	fmt.Printf("clients=%d duration=%v requests=%d errors=%d connects=%d\n",
		*clients, res.Elapsed.Round(time.Millisecond), res.Requests, res.Errors, res.Connects)
	fmt.Printf("throughput: %.1f KRequests/s, %.1f MB/s read\n",
		res.KRequestsPS, float64(res.BytesRead)/res.Elapsed.Seconds()/(1<<20))

	if *scrape != "" {
		after, err := scrapeMetrics(*scrape, *scrapeOut, "after")
		if err != nil {
			return fmt.Errorf("post-run scrape: %w", err)
		}
		reportServerSide(before, after)
		if *scrapeOut != "" {
			fmt.Printf("scrapes saved: %s.before %s.after (check offline with: melytrace -metrics-diff %s.before %s.after)\n",
				*scrapeOut, *scrapeOut, *scrapeOut, *scrapeOut)
		}
	}
	return nil
}

// scrapeMetrics GETs one exposition and parses it; with out set, the
// raw payload is also persisted to <out>.<suffix> so the run's
// server-side view can be re-analyzed offline (melytrace
// -metrics-diff, ad-hoc grepping) long after the server is gone.
func scrapeMetrics(url, out, suffix string) (map[string]float64, error) {
	body, _, err := obs.Fetch(url)
	if err != nil {
		return nil, err
	}
	if out != "" {
		if err := os.WriteFile(out+"."+suffix, body, 0o644); err != nil {
			return nil, fmt.Errorf("persisting scrape: %w", err)
		}
	}
	return obs.ParseExposition(string(body))
}

// sumSeries sums every sample of one family across its label sets
// (e.g. the per-core mely_events_total rows).
func sumSeries(samples map[string]float64, name string) float64 {
	var sum float64
	for key, v := range samples {
		if key == name || strings.HasPrefix(key, name+"{") {
			sum += v
		}
	}
	return sum
}

func reportServerSide(before, after map[string]float64) {
	delta := func(name string) float64 { return sumSeries(after, name) - sumSeries(before, name) }
	fmt.Printf("server: events=%.0f steals=%.0f stolen-events=%.0f spilled=%.0f reloaded=%.0f rejected=%.0f\n",
		delta("mely_events_total"), delta("mely_steals_total"),
		delta("mely_stolen_events_total"), delta("mely_spilled_events_total"),
		delta("mely_reloaded_events_total"), delta("mely_rejected_posts_total"))
	// Percentiles come from the full-history histogram; under a fresh
	// server that is the run itself. Bucket upper bounds, so read as
	// "at most".
	pct := func(name string, q float64) string {
		v, ok := obs.HistogramQuantile(after, name, q)
		if !ok {
			return "n/a"
		}
		return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
	}
	fmt.Printf("server: queue-delay p50≤%s p99≤%s, exec-time p50≤%s p99≤%s (sampled, bucket upper bounds)\n",
		pct("mely_queue_delay_seconds", 0.50), pct("mely_queue_delay_seconds", 0.99),
		pct("mely_exec_time_seconds", 0.50), pct("mely_exec_time_seconds", 0.99))
}
