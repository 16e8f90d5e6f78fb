package sws

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/melyruntime/mely"
	"github.com/melyruntime/mely/internal/netpoll"
)

// backendFlag restricts the suite to one netpoll backend; CI's epoll
// job runs
//
//	go test ./internal/sws -args -backend=epoll
var backendFlag = flag.String("backend", "", "restrict netpoll backend under test (pumps|epoll)")

func testBackend(t *testing.T) netpoll.Backend {
	t.Helper()
	backend, err := netpoll.ParseBackend(*backendFlag)
	if err != nil {
		t.Fatal(err)
	}
	if backend == netpoll.BackendEpoll && !netpoll.EpollSupported() {
		t.Skip("epoll backend not supported on this platform")
	}
	return backend
}

func startServer(t *testing.T, files map[string][]byte, maxClients int) *Server {
	t.Helper()
	return startServerCfg(t, Config{Files: files, MaxClients: maxClients, Backend: testBackend(t)}, nil)
}

// startServerCfg builds a runtime and server from cfg (Runtime is
// filled in); trace, when non-nil, is installed before Serve.
func startServerCfg(t *testing.T, cfg Config, trace func(*netpoll.Conn, string)) *Server {
	t.Helper()
	return startServerOn(t, mely.Config{Cores: 2}, cfg, trace, nil)
}

// startServerOn is startServerCfg on a runtime built from rtCfg,
// serving on ln (nil: a fresh loopback listener).
func startServerOn(t *testing.T, rtCfg mely.Config, cfg Config, trace func(*netpoll.Conn, string), ln net.Listener) *Server {
	t.Helper()
	rt, err := mely.New(rtCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	cfg.Runtime = rt
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.trace = trace
	if ln == nil {
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Serve(ln); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = rt.Drain(ctx)
	})
	return srv
}

// get performs one HTTP/1.1 request on an existing connection.
func get(t *testing.T, conn net.Conn, br *bufio.Reader, path string) (status string, body []byte) {
	t.Helper()
	if _, err := fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: t\r\n\r\n", path); err != nil {
		t.Fatal(err)
	}
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	status = strings.TrimSpace(line)
	length := -1
	for {
		h, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		h = strings.TrimSpace(h)
		if h == "" {
			break
		}
		if n, ok := strings.CutPrefix(strings.ToLower(h), "content-length:"); ok {
			fmt.Sscanf(strings.TrimSpace(n), "%d", &length)
		}
	}
	if length < 0 {
		t.Fatal("no content length")
	}
	body = make([]byte, length)
	if _, err := io.ReadFull(br, body); err != nil {
		t.Fatal(err)
	}
	return status, body
}

func TestServesStaticFile(t *testing.T) {
	content := bytes.Repeat([]byte("x"), 1024)
	srv := startServer(t, map[string][]byte{"/file.bin": content}, 0)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	status, body := get(t, conn, br, "/file.bin")
	if !strings.Contains(status, "200") {
		t.Fatalf("status = %q", status)
	}
	if !bytes.Equal(body, content) {
		t.Fatal("body mismatch")
	}
}

func TestKeepAliveServesRepeatedRequests(t *testing.T) {
	srv := startServer(t, map[string][]byte{"/a": []byte("A"), "/b": []byte("B")}, 0)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	// The paper's clients request 150 files per connection.
	for i := 0; i < 150; i++ {
		path, want := "/a", "A"
		if i%2 == 1 {
			path, want = "/b", "B"
		}
		status, body := get(t, conn, br, path)
		if !strings.Contains(status, "200") || string(body) != want {
			t.Fatalf("request %d: %q %q", i, status, body)
		}
	}
	if srv.Served() < 150 {
		t.Fatalf("served = %d", srv.Served())
	}
}

func TestNotFound(t *testing.T) {
	srv := startServer(t, map[string][]byte{}, 0)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	status, _ := get(t, conn, br, "/nope")
	if !strings.Contains(status, "404") {
		t.Fatalf("status = %q", status)
	}
}

func TestBadRequestCloses(t *testing.T) {
	srv := startServer(t, map[string][]byte{}, 0)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "BREW /coffee HTCPCP/1.0\r\n\r\n")
	reply, _ := io.ReadAll(conn) // server responds 400 then closes
	if !strings.Contains(string(reply), "400") {
		t.Fatalf("reply = %q", reply)
	}
}

func TestPipelinedRequestsInOneSegment(t *testing.T) {
	srv := startServer(t, map[string][]byte{"/x": []byte("X")}, 0)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Two complete requests in a single write: the parser loop must
	// produce two responses.
	req := "GET /x HTTP/1.1\r\nHost: t\r\n\r\n"
	if _, err := conn.Write([]byte(req + req)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	for i := 0; i < 2; i++ {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if !strings.Contains(line, "200") {
			t.Fatalf("response %d: %q", i, line)
		}
		for {
			h, err := br.ReadString('\n')
			if err != nil {
				t.Fatal(err)
			}
			if strings.TrimSpace(h) == "" {
				break
			}
		}
		body := make([]byte, 1)
		if _, err := io.ReadFull(br, body); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	content := bytes.Repeat([]byte("y"), 512)
	srv := startServer(t, map[string][]byte{"/f": content}, 0)
	const clients, reqs = 8, 30
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			for i := 0; i < reqs; i++ {
				if _, err := fmt.Fprintf(conn, "GET /f HTTP/1.1\r\nHost: t\r\n\r\n"); err != nil {
					errs <- err
					return
				}
				if err := skipResponse(br, len(content)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Served(); got != clients*reqs {
		t.Fatalf("served = %d, want %d", got, clients*reqs)
	}
}

func skipResponse(br *bufio.Reader, bodyLen int) error {
	for {
		h, err := br.ReadString('\n')
		if err != nil {
			return err
		}
		if strings.TrimSpace(h) == "" {
			break
		}
	}
	_, err := io.CopyN(io.Discard, br, int64(bodyLen))
	return err
}

func TestParseHead(t *testing.T) {
	tests := []struct {
		give          string
		wantPath      string
		wantKeepAlive bool
		wantOK        bool
	}{
		{"GET /x HTTP/1.1\r\nHost: a", "/x", true, true},
		{"GET /x HTTP/1.0\r\nHost: a", "/x", false, true},
		{"GET /x HTTP/1.1\r\nConnection: close", "/x", false, true},
		{"GET /x HTTP/1.0\r\nConnection: keep-alive", "/x", true, true},
		{"POST /x HTTP/1.1", "", false, false},
		{"GARBAGE", "", false, false},
	}
	for _, tt := range tests {
		path, ka, ok := parseHead([]byte(tt.give))
		if ok != tt.wantOK || (ok && (path != tt.wantPath || ka != tt.wantKeepAlive)) {
			t.Errorf("parseHead(%q) = (%q,%v,%v), want (%q,%v,%v)",
				tt.give, path, ka, ok, tt.wantPath, tt.wantKeepAlive, tt.wantOK)
		}
	}
}

// parseHeadBySplit is parseHead as it was before it scanned in place
// (bytes.Split over the lines, SplitN over the request line): the
// reference the in-place scanner is held to.
func parseHeadBySplit(head []byte) (path string, keepAlive, ok bool) {
	lines := bytes.Split(head, []byte("\r\n"))
	parts := bytes.SplitN(lines[0], []byte(" "), 3)
	if len(parts) != 3 || string(parts[0]) != "GET" || len(parts[1]) == 0 {
		return "", false, false // (an empty path was a 400 one hop later, in WriteResponse)
	}
	path = string(parts[1])
	keepAlive = string(parts[2]) == "HTTP/1.1"
	for _, ln := range lines[1:] {
		k, v, found := bytes.Cut(ln, []byte(":"))
		if !found {
			continue
		}
		if bytes.EqualFold(bytes.TrimSpace(k), []byte("Connection")) {
			switch string(bytes.ToLower(bytes.TrimSpace(v))) {
			case "close":
				keepAlive = false
			case "keep-alive":
				keepAlive = true
			}
		}
	}
	return path, keepAlive, true
}

// TestParseHeadOddSpacingAndCase crosses odd request lines with odd
// header blocks — doubled and missing spaces, tabs, case, stray CRs,
// bare LFs, repeated and look-alike headers — and holds parseHead to
// the Split-based parser on every combination.
func TestParseHeadOddSpacingAndCase(t *testing.T) {
	requestLines := []string{
		"GET /x HTTP/1.1", "GET /x HTTP/1.0", "GET /x HTTP/1.1 ", "GET /x  HTTP/1.1", "GET  /x HTTP/1.1",
		" GET /x HTTP/1.1", "GET /x", "GET /x ", "GET", "GET ", "", " ", "get /x HTTP/1.1", "POST /x HTTP/1.1",
		"GET /a%20b?q=1&r=2 HTTP/1.1", "GET /x HTTP/1.1 trailing words", "GET /x http/1.1", "GET\t/x\tHTTP/1.1",
		"GET /x HTTP/1.1\r", "GET /x HTTP/1.1\nConnection: close",
	}
	headerBlocks := []string{
		"", "\r\n", "\r\nHost: a", "\r\nConnection: close", "\r\nconnection:close", "\r\nCONNECTION :  Close  ",
		"\r\nConnection:\tKeep-Alive\t", "\r\nConnection: KEEP-ALIVE", "\r\nConnection: closed",
		"\r\nConnection: close, TE", "\r\nX-Connection: close", "\r\nConnection close", "\r\nConnection:",
		"\r\n: close", "\r\nNo colon here\r\nConnection: close", "\r\nConnection: close\r\nConnection: keep-alive",
		"\r\nConnection: keep-alive\r\nHost: a\r\nConnection: close", "\r\nConnection: close\r", "\r\n\r\nConnection: close",
		"\r\nHost: a:b:c\r\nConnection:  close", "\nConnection: close", "\r\n Connection: close", "\r\nConnection: clo se",
	}
	for _, rl := range requestLines {
		for _, hb := range headerBlocks {
			head := rl + hb
			path, ka, ok := parseHead([]byte(head))
			wantPath, wantKA, wantOK := parseHeadBySplit([]byte(head))
			if ok != wantOK || path != wantPath || ka != wantKA {
				t.Errorf("parseHead(%q) = (%q,%v,%v), want (%q,%v,%v)", head, path, ka, ok, wantPath, wantKA, wantOK)
			}
		}
	}
}

func TestMaxClients(t *testing.T) {
	srv := startServer(t, map[string][]byte{"/f": []byte("z")}, 1)
	c1, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	br1 := bufio.NewReader(c1)
	status, _ := get(t, c1, br1, "/f")
	if !strings.Contains(status, "200") {
		t.Fatalf("first client rejected: %q", status)
	}
	// The second concurrent connection is over the limit: the server
	// closes it immediately.
	c2, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	_ = c2.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := c2.Read(buf); err == nil {
		t.Fatal("second client should have been closed")
	}
}

func TestOversizedRequestHeadCloses(t *testing.T) {
	srv := startServer(t, map[string][]byte{}, 0)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Stream >64 KiB of header bytes with no terminator: the parser
	// must give up and close the connection.
	junk := bytes.Repeat([]byte("X-Junk: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n"), 2048)
	if _, err := conn.Write(append([]byte("GET / HTTP/1.1\r\n"), junk...)); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server should close oversized request heads")
	}
}

func TestClientDisconnectMidRequest(t *testing.T) {
	// A client vanishing after half a request must not wedge the
	// server or leak its connection slot.
	srv := startServer(t, map[string][]byte{"/f": []byte("z")}, 0)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("GET /f HTT")); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()
	// The server must still serve others.
	conn2, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	br := bufio.NewReader(conn2)
	status, _ := get(t, conn2, br, "/f")
	if !strings.Contains(status, "200") {
		t.Fatalf("status after another client's abort: %q", status)
	}
}

// startServerIdle is startServer with an idle timeout configured.
func startServerIdle(t *testing.T, files map[string][]byte, idle time.Duration) *Server {
	t.Helper()
	return startServerCfg(t, Config{Files: files, IdleTimeout: idle, Backend: testBackend(t)}, nil)
}

func TestIdleTimeoutReapsSilentConnection(t *testing.T) {
	srv := startServerIdle(t, map[string][]byte{"/f": []byte("z")}, 100*time.Millisecond)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Say nothing: the color-serialized reaper must close the connection
	// (observed as EOF on our side) without any request ever parsed.
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("idle connection was not reaped")
	}
	if got := srv.IdleClosed(); got != 1 {
		t.Fatalf("IdleClosed = %d, want 1", got)
	}
}

func TestIdleTimeoutSparesActiveConnection(t *testing.T) {
	// A request every tenth of the timeout: a loaded runner has to stall
	// the client for 450ms before the budget runs out on a live connection.
	const idle = 500 * time.Millisecond
	srv := startServerIdle(t, map[string][]byte{"/f": []byte("z")}, idle)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	// Activity resets the budget, so the connection must survive several
	// timeout periods.
	deadline := time.Now().Add(3 * idle)
	for time.Now().Before(deadline) {
		status, _ := get(t, conn, br, "/f")
		if !strings.Contains(status, "200") {
			t.Fatalf("status = %q", status)
		}
		time.Sleep(idle / 10)
	}
	if got := srv.IdleClosed(); got != 0 {
		t.Fatalf("active connection reaped (IdleClosed = %d)", got)
	}
	// Now fall silent; the reaper must take this one too.
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("silent connection survived the idle timeout")
	}
	if got := srv.IdleClosed(); got != 1 {
		t.Fatalf("IdleClosed = %d, want 1", got)
	}
}

// goldenTrace runs the full request/idle-reap/close flow against one
// backend and returns each connection's logical handler-event trace,
// keyed by accept order. The flow covers every edge of the server:
// keep-alive requests, a 404, an idle reap, pipelined requests with a
// client-side close, and a bad request with a server-side close.
func goldenTrace(t *testing.T, backend netpoll.Backend) (traces [][]string, served int64) {
	t.Helper()
	var (
		mu    sync.Mutex
		byID  = map[uint64][]string{}
		order []uint64
	)
	record := func(conn *netpoll.Conn, event string) {
		mu.Lock()
		defer mu.Unlock()
		if _, seen := byID[conn.ID]; !seen {
			order = append(order, conn.ID)
		}
		byID[conn.ID] = append(byID[conn.ID], event)
	}
	// waitAccepts blocks until n connections have run their Accept
	// handler. OnAccept runs under color 1 and OnData under the
	// connection's color, so without this barrier their relative order
	// would be a cross-color scheduling accident, not a backend
	// property.
	waitAccepts := func(n int) {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			mu.Lock()
			accepts := 0
			for _, events := range byID {
				for _, e := range events {
					if e == "accept" {
						accepts++
					}
				}
			}
			mu.Unlock()
			if accepts >= n {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("accept %d not observed", n)
	}
	srv := startServerCfg(t, Config{
		Files:       map[string][]byte{"/a": []byte("A"), "/b": []byte("B")},
		IdleTimeout: 250 * time.Millisecond,
		Backend:     backend,
	}, record)

	// Connection 1: two keep-alive requests (one a 404), then silence —
	// the reaper must take it.
	c1, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	waitAccepts(1)
	br1 := bufio.NewReader(c1)
	if status, body := get(t, c1, br1, "/a"); !strings.Contains(status, "200") || string(body) != "A" {
		t.Fatalf("c1 /a: %q %q", status, body)
	}
	if status, _ := get(t, c1, br1, "/nope"); !strings.Contains(status, "404") {
		t.Fatalf("c1 /nope: %q", status)
	}

	// Connection 2: two keep-alive requests (strictly sequential, so
	// the trace is independent of read chunking), then the client
	// closes. (Pipelined segments are deliberately not in the golden
	// flow: how many request heads share one read event is a TCP
	// chunking accident on either backend, not a backend property.)
	c2, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	waitAccepts(2)
	br2 := bufio.NewReader(c2)
	for i := 0; i < 2; i++ {
		if status, body := get(t, c2, br2, "/b"); !strings.Contains(status, "200") || string(body) != "B" {
			t.Fatalf("c2 request %d: %q %q", i, status, body)
		}
	}
	_ = c2.Close()

	// Connection 3: malformed request; the server responds 400 and
	// closes.
	c3, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	waitAccepts(3)
	if _, err := fmt.Fprintf(c3, "BREW /coffee HTCPCP/1.0\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	if reply, _ := io.ReadAll(c3); !strings.Contains(string(reply), "400") {
		t.Fatalf("c3 reply: %q", reply)
	}

	// c1 goes silent: wait for the reaper, then for all three
	// connections to be fully torn down.
	_ = c1.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := c1.Read(make([]byte, 1)); err == nil {
		t.Fatal("c1 was not reaped")
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		decs := 0
		for _, events := range byID {
			if events[len(events)-1] == "dec" {
				decs++
			}
		}
		mu.Unlock()
		if decs == 3 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 {
		t.Fatalf("%d connections traced, want 3", len(order))
	}
	for _, id := range order {
		traces = append(traces, byID[id])
	}
	return traces, srv.Served()
}

// TestBackendParityGoldenTraces asserts the pump and epoll backends
// produce identical logical handler-event traces for the full sws
// request/idle-reap/close flow: handler code cannot tell the backends
// apart.
func TestBackendParityGoldenTraces(t *testing.T) {
	if !netpoll.EpollSupported() {
		t.Skip("epoll backend not supported on this platform; nothing to compare")
	}
	want := [][]string{
		{"accept", "request /a", "respond 200", "request /nope", "respond 404", "idle-reap", "dec"},
		{"accept", "request /b", "respond 200", "request /b", "respond 200", "dec"},
		{"accept", "bad-request", "respond 400", "dec"},
	}
	pumps, pumpsServed := goldenTrace(t, netpoll.BackendPumps)
	epoll, epollServed := goldenTrace(t, netpoll.BackendEpoll)
	if !reflect.DeepEqual(pumps, epoll) {
		t.Fatalf("backend traces diverge:\npumps: %v\nepoll: %v", pumps, epoll)
	}
	if !reflect.DeepEqual(pumps, want) {
		t.Fatalf("golden trace mismatch:\ngot:  %v\nwant: %v", pumps, want)
	}
	if pumpsServed != epollServed {
		t.Fatalf("served diverges: pumps %d, epoll %d", pumpsServed, epollServed)
	}
}
