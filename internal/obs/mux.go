package obs

import (
	"bytes"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"time"
)

// MuxConfig wires a runtime's render callbacks into the debug mux
// without obs depending on the runtime package.
type MuxConfig struct {
	// Metrics renders a Prometheus text exposition (Runtime.WriteMetrics).
	Metrics func(w io.Writer) error
	// Trace dumps the flight recorder as Chrome trace JSON
	// (Runtime.DumpTrace). Optional; /debug/trace 404s when nil.
	Trace func(w io.Writer) error
	// TimeSeries renders the retained metrics ring as JSON
	// (Runtime.WriteTimeSeries). Optional; /debug/timeseries 404s when
	// nil.
	TimeSeries func(w io.Writer) error
	// Health renders the current health report as JSON and says whether
	// the runtime is healthy (Runtime.WriteHealth). Optional;
	// /debug/health 404s when nil, serves 503 with the report body when
	// unhealthy so orchestrator probes flip without parsing JSON.
	Health func(w io.Writer) (healthy bool, err error)
	// MinScrapeInterval caches the rendered /metrics payload for this
	// long, so aggressive scrapers cost one Stats() snapshot per window
	// instead of one per request. Default 250ms; negative disables.
	MinScrapeInterval time.Duration
	// Vars are per-mux variables merged into this mux's /debug/vars
	// view (shadowing a same-named global). They are deliberately NOT
	// registered with expvar.Publish: the expvar registry is global to
	// the process, so two debug muxes in one process — two servers in
	// one test binary, say — publishing the same name would panic. The
	// mux renders them directly instead; each server's /debug/vars
	// shows its own values.
	Vars map[string]expvar.Var
}

// NewMux returns the debug handler the demo servers mount on
// -debug-addr: /metrics (Prometheus text format), /debug/trace
// (Chrome trace JSON), /debug/pprof/* and /debug/vars.
func NewMux(cfg MuxConfig) *http.ServeMux {
	if cfg.MinScrapeInterval == 0 {
		cfg.MinScrapeInterval = 250 * time.Millisecond
	}
	mux := http.NewServeMux()
	if cfg.Metrics != nil {
		cache := &scrapeCache{render: cfg.Metrics, ttl: cfg.MinScrapeInterval}
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
			body, err := cache.get()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			w.Write(body)
		})
	}
	serveJSON := func(path string, render func(io.Writer) error) {
		if render == nil {
			return
		}
		mux.HandleFunc(path, func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := render(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
	}
	serveJSON("/debug/trace", cfg.Trace)
	serveJSON("/debug/timeseries", cfg.TimeSeries)
	if cfg.Health != nil {
		mux.HandleFunc("/debug/health", func(w http.ResponseWriter, req *http.Request) {
			// Buffer the body: the status line depends on the verdict.
			var body bytes.Buffer
			healthy, err := cfg.Health(&body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			if !healthy {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			w.Write(body.Bytes())
		})
	}
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintf(w, "{\n")
		first := true
		emit := func(name, val string) {
			if !first {
				fmt.Fprintf(w, ",\n")
			}
			first = false
			fmt.Fprintf(w, "%q: %s", name, val)
		}
		// Process-wide globals (cmdline, memstats, anything the app
		// published itself) via the read-only expvar.Do walk; per-mux
		// vars shadow same-named globals.
		expvar.Do(func(kv expvar.KeyValue) {
			if _, shadowed := cfg.Vars[kv.Key]; !shadowed {
				emit(kv.Key, kv.Value.String())
			}
		})
		names := make([]string, 0, len(cfg.Vars))
		for n := range cfg.Vars {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			emit(n, cfg.Vars[n].String())
		}
		fmt.Fprintf(w, "\n}\n")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// scrapeCache memoizes the rendered exposition for a short TTL — the
// "snapshot-delta poller": scrapers share one Stats() walk per window.
type scrapeCache struct {
	render func(w io.Writer) error
	ttl    time.Duration

	mu   sync.Mutex
	at   time.Time
	body []byte
}

func (c *scrapeCache) get() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ttl > 0 && c.body != nil && time.Since(c.at) < c.ttl {
		return c.body, nil
	}
	var body bytes.Buffer
	if err := c.render(&body); err != nil {
		return nil, err
	}
	c.body = body.Bytes()
	c.at = time.Now()
	return c.body, nil
}
