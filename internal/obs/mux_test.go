package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeSource counts its /metrics renders, so a test can tell a cached
// scrape from a fresh one, and reports whatever verdict it is given
// beside one fixed health body.
type fakeSource struct {
	renders atomic.Int64
	healthy atomic.Bool
}

const fakeHealthBody = `{"active":[]}` + "\n"

func (f *fakeSource) WriteMetrics(w io.Writer) error {
	_, err := fmt.Fprintf(w, "fake_renders_total %d\n", f.renders.Add(1))
	return err
}

func (f *fakeSource) DumpTrace(w io.Writer) error {
	_, err := io.WriteString(w, `[{"name":"exec","ph":"X"}]`)
	return err
}

func (f *fakeSource) WriteTimeSeries(w io.Writer) error {
	_, err := io.WriteString(w, `{"points":[]}`)
	return err
}

func (f *fakeSource) WriteHealth(w io.Writer) (bool, error) {
	_, err := io.WriteString(w, fakeHealthBody)
	return f.healthy.Load(), err
}

// get GETs path from srv and returns the status, content type and body.
func get(t *testing.T, srv *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

func serveFake(t *testing.T, minScrape time.Duration) (*fakeSource, *httptest.Server) {
	src := new(fakeSource)
	srv := httptest.NewServer(NewMux(src, minScrape))
	t.Cleanup(srv.Close)
	return src, srv
}

// TestMuxMetricsScrapeCache: /metrics is the exposition content type,
// scrapes inside minScrape share one render, a scrape after it renders
// again, and a negative minScrape renders every scrape. A cache that
// never expires fails the second case.
func TestMuxMetricsScrapeCache(t *testing.T) {
	scrape := func(srv *httptest.Server) string {
		t.Helper()
		status, ctype, body := get(t, srv, "/metrics")
		if status != http.StatusOK {
			t.Fatalf("/metrics: status %d", status)
		}
		if ctype != "text/plain; version=0.0.4; charset=utf-8" {
			t.Fatalf("/metrics: content type %q", ctype)
		}
		return body
	}

	src, srv := serveFake(t, time.Hour)
	if a, b := scrape(srv), scrape(srv); a != b || src.renders.Load() != 1 {
		t.Fatalf("two scrapes inside minScrape rendered %d times (%q, %q), want once", src.renders.Load(), a, b)
	}

	const ttl = 20 * time.Millisecond
	src, srv = serveFake(t, ttl)
	scrape(srv)
	time.Sleep(3 * ttl)
	scrape(srv)
	if n := src.renders.Load(); n != 2 {
		t.Fatalf("a scrape after minScrape expired: %d renders, want 2", n)
	}

	src, srv = serveFake(t, -1)
	for range 3 {
		scrape(srv)
	}
	if n := src.renders.Load(); n != 3 {
		t.Fatalf("negative minScrape: 3 scrapes rendered %d times, want 3", n)
	}
}

// TestMuxJSONEndpoints: the trace and the time series answer JSON.
func TestMuxJSONEndpoints(t *testing.T) {
	_, srv := serveFake(t, 0)
	for _, path := range []string{"/debug/trace", "/debug/timeseries"} {
		status, ctype, body := get(t, srv, path)
		if status != http.StatusOK || ctype != "application/json" || !json.Valid([]byte(body)) {
			t.Errorf("%s: status %d, content type %q, body %q", path, status, ctype, body)
		}
	}
}

// TestMuxHealthStatus: /debug/health answers 200 while the source is
// healthy and 503 while it is not, with the same report either way, so
// an orchestrator probe flips without parsing the body. Serving 200
// whatever the verdict fails it.
func TestMuxHealthStatus(t *testing.T) {
	src, srv := serveFake(t, 0)
	for _, tc := range []struct {
		healthy bool
		want    int
	}{{true, http.StatusOK}, {false, http.StatusServiceUnavailable}, {true, http.StatusOK}} {
		src.healthy.Store(tc.healthy)
		status, ctype, body := get(t, srv, "/debug/health")
		if status != tc.want || ctype != "application/json" || body != fakeHealthBody {
			t.Errorf("healthy=%v: status %d (want %d), content type %q, body %q",
				tc.healthy, status, tc.want, ctype, body)
		}
	}
}

// TestTwoDebugServersServeVars: two debug servers in one process each
// serve expvar's process-wide /debug/vars (a second mux registers
// nothing global, so starting it cannot panic).
func TestTwoDebugServersServeVars(t *testing.T) {
	for i := range 2 {
		d, err := StartDebugServer("127.0.0.1:0", new(fakeSource), 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		body, _, err := Fetch("http://" + d.Addr() + "/debug/vars")
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(body) || !strings.Contains(string(body), `"cmdline"`) {
			t.Errorf("server %d: /debug/vars is not expvar's JSON:\n%s", i, body)
		}
	}
}
