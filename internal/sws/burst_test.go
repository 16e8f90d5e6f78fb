package sws

import (
	"bytes"
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

// The burst matrix: what a read holding several requests does to the
// replies — their order, their bytes, and how many writes carry them —
// on both netpoll backends.

// eachBackend runs fn as a subtest per backend (-backend restricts it
// to one).
func eachBackend(t *testing.T, fn func(t *testing.T, backend netpoll.Backend)) {
	backends := []netpoll.Backend{netpoll.BackendPumps, netpoll.BackendEpoll}
	if only := testBackend(t); only != netpoll.BackendAuto {
		backends = []netpoll.Backend{only}
	}
	for _, backend := range backends {
		t.Run(backend.String(), func(t *testing.T) {
			if backend == netpoll.BackendEpoll && !netpoll.EpollSupported() {
				t.Skip("epoll backend not supported on this platform")
			}
			fn(t, backend)
		})
	}
}

// eventLog collects the server's trace events (one connection per test).
type eventLog struct {
	mu     sync.Mutex
	events []string
}

func (l *eventLog) record(_ *netpoll.Conn, event string) {
	l.mu.Lock()
	l.events = append(l.events, event)
	l.mu.Unlock()
}

// with returns the events starting with prefix, in order.
func (l *eventLog) with(prefix string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, e := range l.events {
		if strings.HasPrefix(e, prefix) {
			out = append(out, e)
		}
	}
	return out
}

func (l *eventLog) all() []string { return l.with("") }

// numberedFiles returns n files /f0../f{n-1} of size bytes each, every
// one filled with its own byte.
func numberedFiles(n, size int) map[string][]byte {
	files := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		files[fmt.Sprintf("/f%d", i)] = bytes.Repeat([]byte{byte('a' + i%26)}, size)
	}
	return files
}

// getReq is one keep-alive GET; extra is appended as header lines.
func getReq(path string, extra ...string) string {
	return "GET " + path + " HTTP/1.1\r\nHost: t\r\n" + strings.Join(extra, "") + "\r\n"
}

// reply is the exact bytes the server sends for path.
func reply(files map[string][]byte, path string) []byte {
	if body, ok := files[path]; ok {
		return buildResponse(200, "OK", body)
	}
	return buildResponse(404, "Not Found", []byte("not found\n"))
}

// dialBurst connects to srv with a read deadline on everything.
func dialBurst(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(20 * time.Second))
	return conn
}

// expectReplies reads exactly the concatenation of want from conn.
func expectReplies(t *testing.T, conn net.Conn, want ...[]byte) {
	t.Helper()
	all := bytes.Join(want, nil)
	got := make([]byte, len(all))
	if n, err := io.ReadFull(conn, got); err != nil {
		t.Fatalf("read %d of %d reply bytes: %v", n, len(all), err)
	}
	if !bytes.Equal(got, all) {
		i := 0
		for got[i] == all[i] {
			i++
		}
		t.Fatalf("replies differ from the expected bytes at offset %d of %d (wrong order or content)", i, len(all))
	}
}

// expectEOF checks the server sends nothing more and closes.
func expectEOF(t *testing.T, conn net.Conn) {
	t.Helper()
	if rest, err := io.ReadAll(conn); err != nil || len(rest) != 0 {
		t.Fatalf("after the last expected reply: %d more bytes, err %v; want a clean close", len(rest), err)
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBurstLeavesInOneWrite is the counted proof of the mechanism: 16
// requests in one segment are answered by 16 byte-exact replies in
// order and exactly one gathering write ("flush 16"); a request alone
// in its read is answered by a plain Send of the prebuilt slice (no
// flush event). Both backends must log the same events.
func TestBurstLeavesInOneWrite(t *testing.T) {
	var logs [][]string
	eachBackend(t, func(t *testing.T, backend netpoll.Backend) {
		files := numberedFiles(16, 1024)
		var log eventLog
		srv := startServerCfg(t, Config{Files: files, Backend: backend}, log.record)
		conn := dialBurst(t, srv)
		// Accept runs under the listener's color, the reads under the
		// connection's: without this barrier where "accept" falls in
		// the log is a cross-color scheduling accident (see
		// waitAccepts in sws_test.go).
		waitUntil(t, "accept", func() bool { return len(log.with("accept")) == 1 })

		var burst string
		var want [][]byte
		for i := 0; i < 16; i++ {
			path := fmt.Sprintf("/f%d", (i*7)%16)
			burst += getReq(path)
			want = append(want, reply(files, path))
		}
		if _, err := conn.Write([]byte(burst)); err != nil {
			t.Fatal(err)
		}
		expectReplies(t, conn, want...)
		if got := log.with("flush "); !reflect.DeepEqual(got, []string{"flush 16"}) {
			t.Fatalf("writes for a 16-request read: %v, want exactly [flush 16]", got)
		}
		if got := len(log.with("respond 200")); got != 16 {
			t.Fatalf("%d responses traced, want 16", got)
		}

		// One request per read: today's path, no gather.
		for i := 0; i < 3; i++ {
			if _, err := conn.Write([]byte(getReq("/f3"))); err != nil {
				t.Fatal(err)
			}
			expectReplies(t, conn, reply(files, "/f3"))
		}
		if got := log.with("flush "); len(got) != 1 {
			t.Fatalf("single requests were gathered: %v", got)
		}
		if got := srv.Served(); got != 19 {
			t.Fatalf("Served = %d, want 19", got)
		}
		logs = append(logs, log.all())
	})
	if len(logs) == 2 && !reflect.DeepEqual(logs[0], logs[1]) {
		t.Fatalf("backend traces diverge:\npumps: %v\nepoll: %v", logs[0], logs[1])
	}
}

// TestBurstCutMidHead: a burst whose last request head is cut by the
// segment boundary. The complete requests' replies must arrive before
// the client sends the rest — none may be stranded in the gather
// waiting for a request that is not there yet.
func TestBurstCutMidHead(t *testing.T) {
	eachBackend(t, func(t *testing.T, backend netpoll.Backend) {
		files := numberedFiles(5, 512)
		var log eventLog
		srv := startServerCfg(t, Config{Files: files, Backend: backend}, log.record)
		conn := dialBurst(t, srv)

		whole := getReq("/f0") + getReq("/f1") + getReq("/f2") + getReq("/f3") + getReq("/f4")
		cut := len(getReq("/f0")+getReq("/f1")+getReq("/f2")) + 9 // inside /f3's request line
		if _, err := conn.Write([]byte(whole[:cut])); err != nil {
			t.Fatal(err)
		}
		expectReplies(t, conn, reply(files, "/f0"), reply(files, "/f1"), reply(files, "/f2"))
		if _, err := conn.Write([]byte(whole[cut:])); err != nil {
			t.Fatal(err)
		}
		expectReplies(t, conn, reply(files, "/f3"), reply(files, "/f4"))
		if got := log.with("flush "); !reflect.DeepEqual(got, []string{"flush 3", "flush 2"}) {
			t.Fatalf("writes: %v, want [flush 3 flush 2]", got)
		}
	})
}

// TestBurstCloseMidBurst: nothing after a closing request is answered,
// and everything up to it is — in order, then a clean close.
func TestBurstCloseMidBurst(t *testing.T) {
	for _, tt := range []struct {
		name    string
		closing string
	}{
		{"connection close", getReq("/f2", "Connection: close\r\n")},
		{"http 1.0", "GET /f2 HTTP/1.0\r\n\r\n"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			eachBackend(t, func(t *testing.T, backend netpoll.Backend) {
				files := numberedFiles(5, 512)
				var log eventLog
				srv := startServerCfg(t, Config{Files: files, Backend: backend}, log.record)
				conn := dialBurst(t, srv)
				burst := getReq("/f0") + getReq("/f1") + tt.closing + getReq("/f3") + getReq("/f4")
				if _, err := conn.Write([]byte(burst)); err != nil {
					t.Fatal(err)
				}
				expectReplies(t, conn, reply(files, "/f0"), reply(files, "/f1"), reply(files, "/f2"))
				expectEOF(t, conn)
				if got := log.with("request "); len(got) != 3 {
					t.Fatalf("requests parsed: %v, want the first three only", got)
				}
				if got := srv.Served(); got != 3 {
					t.Fatalf("Served = %d, want 3", got)
				}
			})
		})
	}
}

// TestBurstNotFoundMidBurst: a 404 keeps its place among the 200s.
func TestBurstNotFoundMidBurst(t *testing.T) {
	eachBackend(t, func(t *testing.T, backend netpoll.Backend) {
		files := numberedFiles(2, 512)
		srv := startServerCfg(t, Config{Files: files, Backend: backend}, nil)
		conn := dialBurst(t, srv)
		burst := getReq("/f0") + getReq("/nope") + getReq("/f1") + getReq("/nope")
		if _, err := conn.Write([]byte(burst)); err != nil {
			t.Fatal(err)
		}
		expectReplies(t, conn, reply(files, "/f0"), reply(files, "/nope"), reply(files, "/f1"), reply(files, "/nope"))
	})
}

// TestBadRequestKeepsItsPlace is the regression test for the 400 that
// overtook: the bad request's job went straight to WriteResponse while
// the request before it was still at CheckInCache, and its Shutdown
// dropped that request's 200.
func TestBadRequestKeepsItsPlace(t *testing.T) {
	eachBackend(t, func(t *testing.T, backend netpoll.Backend) {
		files := map[string][]byte{"/x": []byte("X")}
		srv := startServerCfg(t, Config{Files: files, Backend: backend}, nil)
		conn := dialBurst(t, srv)
		burst := getReq("/x") + "BREW /coffee HTCPCP/1.0\r\n\r\n" + getReq("/x")
		if _, err := conn.Write([]byte(burst)); err != nil {
			t.Fatal(err)
		}
		expectReplies(t, conn, reply(files, "/x"), buildResponse(400, "Bad Request", []byte("bad request\n")))
		expectEOF(t, conn) // the bad request closes: the GET after it is not answered
		if got := srv.Served(); got != 2 {
			t.Fatalf("Served = %d, want 2", got)
		}
	})
}

// TestShedKeepsItsPlace is the regression test for the 503 that
// overtook: ShedOverload answered from inside ParseRequest while
// earlier requests of the same read were still in the chain. On a
// runtime that lets one event per colour queue, the first requests of
// a burst are admitted and the later ones shed; reply i must still
// answer request i.
func TestShedKeepsItsPlace(t *testing.T) {
	eachBackend(t, func(t *testing.T, backend netpoll.Backend) {
		const n = 8
		files := numberedFiles(n, 256)
		srv := startServerOn(t,
			mely.Config{Cores: 2, MaxQueuedPerColor: 2, OverloadPolicy: mely.OverloadBlock},
			Config{Files: files, Backend: backend, ShedOverload: true}, nil, nil)
		conn := dialBurst(t, srv)
		var burst string
		for i := 0; i < n; i++ {
			burst += getReq(fmt.Sprintf("/f%d", i))
		}
		if _, err := conn.Write([]byte(burst)); err != nil {
			t.Fatal(err)
		}
		unavailable := buildResponse(503, "Service Unavailable", []byte("overloaded\n"))
		served, shed := 0, 0
		for i := 0; i < n; i++ {
			want := reply(files, fmt.Sprintf("/f%d", i))
			head := make([]byte, len("HTTP/1.1 200"))
			if _, err := io.ReadFull(conn, head); err != nil {
				t.Fatalf("reply %d: %v", i, err)
			}
			if strings.HasSuffix(string(head), "503") {
				want = unavailable
				shed++
			} else {
				served++
			}
			rest := make([]byte, len(want)-len(head))
			if _, err := io.ReadFull(conn, rest); err != nil {
				t.Fatalf("reply %d: %v", i, err)
			}
			if !bytes.Equal(append(head, rest...), want) {
				t.Fatalf("reply %d is neither the 503 nor the 200 for /f%d: a response left out of order", i, i)
			}
		}
		if served == 0 || shed == 0 {
			t.Fatalf("%d served, %d shed: the burst did not mix the two, nothing was tested", served, shed)
		}
		if got := srv.OverloadShed(); got != int64(shed) {
			t.Fatalf("OverloadShed = %d, client saw %d", got, shed)
		}
	})
}

// TestBurstOverGatherCap: a read whose replies exceed the gather cap
// leaves in several writes, the bytes still in order.
func TestBurstOverGatherCap(t *testing.T) {
	for _, tt := range []struct {
		name       string
		requests   int
		fileBytes  int
		wantWrites []string
	}{
		// 8 replies of 8 KiB plus headers pass 64 KiB.
		{"bytes", 16, 8 << 10, []string{"flush 8", "flush 8"}},
		{"slices", 100, 1, []string{"flush 64", "flush 36"}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			eachBackend(t, func(t *testing.T, backend netpoll.Backend) {
				files := numberedFiles(4, tt.fileBytes)
				var log eventLog
				srv := startServerCfg(t, Config{Files: files, Backend: backend}, log.record)
				conn := dialBurst(t, srv)
				var burst string
				var want [][]byte
				for i := 0; i < tt.requests; i++ {
					path := fmt.Sprintf("/f%d", i%4)
					burst += getReq(path)
					want = append(want, reply(files, path))
				}
				if _, err := conn.Write([]byte(burst)); err != nil {
					t.Fatal(err)
				}
				expectReplies(t, conn, want...)
				if got := log.with("flush "); !reflect.DeepEqual(got, tt.wantWrites) {
					t.Fatalf("writes: %v, want %v", got, tt.wantWrites)
				}
			})
		})
	}
}
