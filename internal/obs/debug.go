package obs

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// DebugServer is the optional observability side listener servers mount
// with -debug-addr: a plain HTTP server running NewMux on its own
// socket, kept off the data path and off by default.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// StartDebugServer listens on addr and serves NewMux(src, minScrape) in
// a background goroutine — /metrics, /debug/trace, /debug/timeseries,
// /debug/health, /debug/vars and /debug/pprof/*. Close the returned
// server to stop it.
func StartDebugServer(addr string, src Source, minScrape time.Duration) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listener: %w", err)
	}
	d := &DebugServer{ln: ln, srv: &http.Server{Handler: NewMux(src, minScrape)}}
	go d.srv.Serve(ln) //nolint:errcheck // ErrServerClosed after Close
	return d, nil
}

// Addr is the bound address (useful with ":0").
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close stops the listener; in-flight scrapes are abandoned.
func (d *DebugServer) Close() error { return d.srv.Close() }

// scrapeClient bounds a scrape: an unreachable or wedged server fails a
// melytop frame or a scenario gate instead of hanging it.
var scrapeClient = &http.Client{Timeout: 5 * time.Second}

// Fetch GETs url, an endpoint of a server's side listener, and returns
// the body and the status code. A status outside accept (200 alone when
// none is given) is an error, so no scraper parses an error page:
// /debug/health answers 200 when healthy and 503 with the same report
// while anomalies fire, everything else is 200 or broken.
func Fetch(url string, accept ...int) (body []byte, status int, err error) {
	resp, err := scrapeClient.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if len(accept) == 0 {
		accept = []int{http.StatusOK}
	}
	if !slices.Contains(accept, resp.StatusCode) {
		return nil, resp.StatusCode, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, fmt.Errorf("GET %s: %w", url, err)
	}
	return body, resp.StatusCode, nil
}

// DumpToFile writes one dump (e.g. Runtime.DumpTrace) to path,
// truncating any previous dump there.
func DumpToFile(path string, dump func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := dump(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// NamedDump pairs an output path with the renderer that fills it —
// the unit of the multi-file dump bundle the servers write at exit and
// on SIGQUIT (trace plus its health/timeseries siblings).
type NamedDump struct {
	Path string
	Dump func(io.Writer) error
}

// DumpBundle writes every dump to its path. Later dumps still run
// after an earlier failure; the first error is returned.
func DumpBundle(dumps []NamedDump) error {
	var first error
	for _, d := range dumps {
		if err := DumpToFile(d.Path, d.Dump); err != nil && first == nil {
			first = fmt.Errorf("%s: %w", d.Path, err)
		}
	}
	return first
}

// SiblingPath derives "<base>.<kind>.json" next to a dump path:
// trace.json -> trace.health.json. A path without an extension just
// gains the suffix.
func SiblingPath(path, kind string) string {
	base := strings.TrimSuffix(path, filepath.Ext(path))
	return base + "." + kind + ".json"
}
