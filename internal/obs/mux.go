package obs

import (
	"bytes"
	"expvar"
	"io"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// Source is what the debug mux serves: a runtime's renderings, named
// here so obs does not depend on the runtime package (*mely.Runtime is
// one).
type Source interface {
	// WriteMetrics renders a Prometheus text exposition (/metrics).
	WriteMetrics(w io.Writer) error
	// DumpTrace dumps the flight recorder as Chrome trace JSON
	// (/debug/trace).
	DumpTrace(w io.Writer) error
	// WriteTimeSeries renders the retained metrics ring as JSON
	// (/debug/timeseries).
	WriteTimeSeries(w io.Writer) error
	// WriteHealth renders the current health report as JSON and says
	// whether the runtime is healthy (/debug/health).
	WriteHealth(w io.Writer) (healthy bool, err error)
}

// NewMux returns the debug handler the demo servers mount on
// -debug-addr: /metrics (Prometheus text format), /debug/trace (Chrome
// trace JSON), /debug/timeseries and /debug/health (JSON; health
// answers 503 with the same report while the runtime is unhealthy, so
// orchestrator probes flip without parsing JSON), /debug/vars (expvar)
// and /debug/pprof/*. The rendered /metrics payload is cached for
// minScrape, so aggressive scrapers cost one Stats() snapshot per
// window instead of one per request: 0 means 250ms, and a negative
// value renders every scrape.
func NewMux(src Source, minScrape time.Duration) *http.ServeMux {
	if minScrape == 0 {
		minScrape = 250 * time.Millisecond
	}
	mux := http.NewServeMux()
	cache := &scrapeCache{render: src.WriteMetrics, ttl: minScrape}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		body, err := cache.get()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(body)
	})
	serveJSON := func(path string, render func(io.Writer) error) {
		mux.HandleFunc(path, func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := render(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
	}
	serveJSON("/debug/trace", src.DumpTrace)
	serveJSON("/debug/timeseries", src.WriteTimeSeries)
	mux.HandleFunc("/debug/health", func(w http.ResponseWriter, req *http.Request) {
		// Buffer the body: the status line depends on the verdict.
		var body bytes.Buffer
		healthy, err := src.WriteHealth(&body)
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
	mux.Handle("/debug/vars", expvar.Handler())
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
