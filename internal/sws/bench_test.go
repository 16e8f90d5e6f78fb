package sws

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/melyruntime/mely"
	"github.com/melyruntime/mely/internal/netpoll"
)

func benchBackends() []netpoll.Backend {
	backends := []netpoll.Backend{netpoll.BackendPumps}
	if netpoll.EpollSupported() {
		backends = append(backends, netpoll.BackendEpoll)
	}
	return backends
}

// benchServer is startServerCfg without *testing.T plumbing, for
// benchmarks: it serves a 1 KiB /f; trace, when non-nil, is installed
// before Serve.
func benchServer(b *testing.B, backend netpoll.Backend, trace func(*netpoll.Conn, string)) *Server {
	b.Helper()
	rt, err := mely.New(mely.Config{})
	if err != nil {
		b.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rt.Stop)
	body := bytes.Repeat([]byte("x"), 1024)
	srv, err := New(Config{Runtime: rt, Files: map[string][]byte{"/f": body}, Backend: backend})
	if err != nil {
		b.Fatal(err)
	}
	srv.trace = trace
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Serve(ln); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = srv.Close() })
	return srv
}

// BenchmarkSWSThroughput measures end-to-end request throughput with
// 64 concurrent keep-alive connections, per backend — the acceptance
// comparison for the epoll reactor (it must be at least as fast as the
// pump backend at this concurrency).
func BenchmarkSWSThroughput(b *testing.B) {
	for _, backend := range benchBackends() {
		b.Run(backend.String(), func(b *testing.B) {
			srv := benchServer(b, backend, nil)
			const conns = 64
			// RunParallel spawns parallelism*GOMAXPROCS goroutines; size
			// it for 64 concurrent client connections.
			b.SetParallelism((conns + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				conn, err := net.Dial("tcp", srv.Addr().String())
				if err != nil {
					b.Error(err)
					return
				}
				defer conn.Close()
				br := bufio.NewReader(conn)
				for pb.Next() {
					if _, err := fmt.Fprintf(conn, "GET /f HTTP/1.1\r\nHost: b\r\n\r\n"); err != nil {
						b.Error(err)
						return
					}
					if err := skipResponse(br, 1024); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkSWSPipelined is the sws_pipelined shape of perf/ as a `go
// test` benchmark: one client writes 16 GETs in one segment and reads
// the 16 replies, b.N times. It reports ns/request and, counted on the
// server's trace hook, writes/request: 1/16 while a read's responses
// leave in one gathering write, 1 when each leaves on its own. (The
// hook costs a string concatenation per response, so ns/request reads
// higher here than under perf/, which runs without it.)
func BenchmarkSWSPipelined(b *testing.B) {
	const burst = 16
	for _, backend := range benchBackends() {
		b.Run(backend.String(), func(b *testing.B) {
			var responses, flushes, flushed atomic.Int64
			srv := benchServer(b, backend, func(_ *netpoll.Conn, event string) {
				if n, ok := strings.CutPrefix(event, "flush "); ok {
					k, _ := strconv.Atoi(n)
					flushes.Add(1)
					flushed.Add(int64(k))
				} else if strings.HasPrefix(event, "respond ") {
					responses.Add(1)
				}
			})
			conn, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			req := bytes.Repeat([]byte("GET /f HTTP/1.1\r\nHost: b\r\n\r\n"), burst)
			replies := make([]byte, burst*len(srv.built["/f"]))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := conn.Write(req); err != nil {
					b.Fatal(err)
				}
				if _, err := io.ReadFull(conn, replies); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			requests := float64(b.N * burst)
			// Every response not sent by a flush was sent by its own write.
			writes := responses.Load() - flushed.Load() + flushes.Load()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/requests, "ns/request")
			b.ReportMetric(float64(writes)/requests, "writes/request")
		})
	}
}
