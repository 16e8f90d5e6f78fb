package netpoll

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/melyruntime/mely"
)

// backendFlag restricts the suite to one backend; CI's epoll job runs
//
//	go test ./internal/netpoll -args -backend=epoll
//
// Empty (the default) tests every backend available on the platform.
var backendFlag = flag.String("backend", "", "restrict backend under test (pumps|epoll)")

// testBackends returns the backends the suite should cover.
func testBackends(t *testing.T) []Backend {
	t.Helper()
	switch *backendFlag {
	case "":
		backends := []Backend{BackendPumps}
		if EpollSupported() {
			backends = append(backends, BackendEpoll)
		}
		return backends
	case "pumps":
		return []Backend{BackendPumps}
	case "epoll":
		if !EpollSupported() {
			t.Skip("epoll backend not supported on this platform")
		}
		return []Backend{BackendEpoll}
	default:
		t.Fatalf("unknown -backend %q", *backendFlag)
		return nil
	}
}

// forEachBackend runs fn as a subtest per backend under test.
func forEachBackend(t *testing.T, fn func(t *testing.T, backend Backend)) {
	for _, backend := range testBackends(t) {
		t.Run(backend.String(), func(t *testing.T) { fn(t, backend) })
	}
}

type harness struct {
	rt       *mely.Runtime
	srv      *Server
	accept   atomic.Int64
	data     atomic.Int64
	closed   atomic.Int64
	bytes    atomic.Int64
	lastConn atomic.Value // *Conn most recently accepted
}

func startHarness(t *testing.T, backend Backend, maxConns int, dataColor func(*Conn) mely.Color) *harness {
	t.Helper()
	rt, err := mely.New(mely.Config{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)

	h := &harness{rt: rt}
	onAccept := rt.Register("accept", func(ctx *mely.Ctx) {
		h.lastConn.Store(ctx.Data().(*Conn)) // before the count: accept == n implies lastConn is set
		h.accept.Add(1)
	})
	onData := rt.Register("data", func(ctx *mely.Ctx) {
		msg := ctx.Data().(*Message)
		h.data.Add(1)
		h.bytes.Add(int64(len(msg.Data)))
		// Echo back.
		if err := msg.Conn.Send(msg.Data); err != nil {
			msg.Conn.Shutdown()
		}
		msg.Release()
	})
	onClose := rt.Register("close", func(ctx *mely.Ctx) { h.closed.Add(1) })

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(ln, Config{
		Runtime:     rt,
		OnAccept:    onAccept,
		AcceptColor: 1,
		OnData:      onData,
		OnClose:     onClose,
		DataColor:   dataColor,
		MaxConns:    maxConns,
		Backend:     backend,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.srv = srv
	t.Cleanup(func() {
		_ = srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = rt.Drain(ctx)
	})
	return h
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached")
}

func TestEchoRoundTrip(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend Backend) {
		h := startHarness(t, backend, 0, nil)
		conn, err := net.Dial("tcp", h.srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4)
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(buf); err != nil {
			t.Fatal(err)
		}
		if string(buf) != "ping" {
			t.Fatalf("echo = %q", buf)
		}
		// OnAccept runs under color 1 and the echo under the connection's
		// color: nothing orders them, so the accept may still be queued.
		waitFor(t, func() bool { return h.accept.Load() == 1 })
		// Address parity across backends: LocalAddr is the connected
		// socket's address (matching the listener here), RemoteAddr is
		// the dialing client.
		srvConn := h.lastConn.Load().(*Conn)
		if got, want := srvConn.LocalAddr().String(), h.srv.Addr().String(); got != want {
			t.Fatalf("LocalAddr = %s, want %s", got, want)
		}
		if got, want := srvConn.RemoteAddr().String(), conn.LocalAddr().String(); got != want {
			t.Fatalf("RemoteAddr = %s, want %s", got, want)
		}
	})
}

func TestOnClosePostedOncePerConn(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend Backend) {
		h := startHarness(t, backend, 0, nil)
		for i := 0; i < 5; i++ {
			conn, err := net.Dial("tcp", h.srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			// Confirm admission before closing: a conn closed before the
			// server ever saw it would not produce an OnClose.
			if _, err := conn.Write([]byte("x")); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 1)
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := conn.Read(buf); err != nil {
				t.Fatal(err)
			}
			_ = conn.Close()
		}
		waitFor(t, func() bool { return h.closed.Load() == 5 })
		waitFor(t, func() bool { return h.srv.Live() == 0 })
	})
}

func TestMaxConnsRejectsExcess(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend Backend) {
		h := startHarness(t, backend, 2, nil)
		keep := make([]net.Conn, 0, 2)
		for i := 0; i < 2; i++ {
			c, err := net.Dial("tcp", h.srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			// Confirm admission before opening the next one.
			if _, err := c.Write([]byte("x")); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 1)
			_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := c.Read(buf); err != nil {
				t.Fatal(err)
			}
			keep = append(keep, c)
		}
		over, err := net.Dial("tcp", h.srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer over.Close()
		_ = over.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 1)
		if _, err := over.Read(buf); err == nil {
			t.Fatal("connection over the limit must be closed")
		}
		_ = keep
	})
}

func TestDataColorOverride(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend Backend) {
		var sawColor atomic.Int32
		rt, err := mely.New(mely.Config{Cores: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Stop)
		onData := rt.Register("data", func(ctx *mely.Ctx) {
			sawColor.Store(int32(ctx.Color()))
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv, err := Serve(ln, Config{
			Runtime:     rt,
			OnAccept:    rt.Register("a", func(ctx *mely.Ctx) {}),
			AcceptColor: 1,
			OnData:      onData,
			DataColor:   func(*Conn) mely.Color { return 7 },
			Backend:     backend,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte("z")); err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool { return sawColor.Load() == 7 })
	})
}

func TestServeRequiresRuntime(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := Serve(ln, Config{}); err == nil {
		t.Fatal("nil runtime must fail")
	}
}

func TestCloseIsIdempotentAndWaits(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend Backend) {
		h := startHarness(t, backend, 0, nil)
		conn, err := net.Dial("tcp", h.srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		waitFor(t, func() bool { return h.srv.Live() == 1 })
		if err := h.srv.Close(); err != nil {
			t.Fatal(err)
		}
		if err := h.srv.Close(); err != nil {
			t.Fatalf("second close: %v", err)
		}
		waitFor(t, func() bool { return h.srv.Live() == 0 })
	})
}

// TestPollCountersOutliveServer: the runtime's poll counts do not drop
// when the server that reported them closes, and a second server on
// the same runtime adds to them. A runtime that forgot a closed
// server's counts (Stats summing only live servers) fails it.
func TestPollCountersOutliveServer(t *testing.T) {
	if !EpollSupported() {
		t.Skip("only the epoll backend counts poll wakeups")
	}
	h := startHarness(t, BackendEpoll, 0, nil)
	echo := func(addr string) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 4)
		for range 8 {
			if _, err := conn.Write([]byte("ping")); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(conn, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	type counts struct{ wakeups, events int64 }
	read := func() counts {
		s := h.rt.Stats()
		return counts{s.PollWakeups, s.PollEvents}
	}

	echo(h.srv.Addr().String())
	served := read()
	if served.wakeups == 0 || served.events < served.wakeups {
		t.Fatalf("after 8 echoes: %+v, want wakeups > 0 and events >= wakeups", served)
	}
	if err := h.srv.Close(); err != nil {
		t.Fatal(err)
	}
	closed := read()
	if closed.wakeups < served.wakeups || closed.events < served.events {
		t.Fatalf("counts dropped at Close: %+v -> %+v", served, closed)
	}

	nop := h.rt.Register("nop", func(*mely.Ctx) {})
	onData := h.rt.Register("echo", func(ctx *mely.Ctx) {
		msg := ctx.Data().(*Message)
		if err := msg.Conn.Send(msg.Data); err != nil {
			msg.Conn.Shutdown()
		}
		msg.Release()
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(ln, Config{Runtime: h.rt, OnAccept: nop, AcceptColor: 1, OnData: onData, OnClose: nop, Backend: BackendEpoll})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	echo(srv.Addr().String())
	second := read()
	if second.wakeups <= closed.wakeups || second.events <= closed.events {
		t.Fatalf("a second server did not add to the counts: %+v -> %+v", closed, second)
	}
}

func TestConnColorSkipsControlColors(t *testing.T) {
	c := &Conn{ID: 0}
	if c.Color() < 2 {
		t.Fatalf("color %d collides with control colors", c.Color())
	}
	c2 := &Conn{ID: 65533}
	if c2.Color() < 2 {
		t.Fatalf("wrapped color %d collides with control colors", c2.Color())
	}
}

func TestParseBackend(t *testing.T) {
	for _, tt := range []struct {
		give string
		want Backend
		ok   bool
	}{
		{"", BackendAuto, true},
		{"auto", BackendAuto, true},
		{"pumps", BackendPumps, true},
		{"PUMPS", BackendPumps, true},
		{"epoll", BackendEpoll, true},
		{"iocp", 0, false},
	} {
		got, err := ParseBackend(tt.give)
		if (err == nil) != tt.ok || (tt.ok && got != tt.want) {
			t.Errorf("ParseBackend(%q) = %v, %v", tt.give, got, err)
		}
	}
}

func TestAutoSelectsEpollOnLinux(t *testing.T) {
	if !EpollSupported() {
		t.Skip("no epoll on this platform")
	}
	h := startHarness(t, BackendAuto, 0, nil)
	if got := h.srv.Backend(); got != BackendEpoll {
		t.Fatalf("auto backend = %v, want epoll", got)
	}
}

// TestNoDataAfterClose is the regression test for the Shutdown
// vs in-flight-read race: a connection shut down while read events are
// queued must never deliver OnData after OnClose (run under -race in
// CI). The server shuts every connection down from the data handler
// itself while the client keeps writing — the old implementation
// posted OnClose under AcceptColor concurrently with queued OnData
// events and could execute them in either order.
func TestNoDataAfterClose(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend Backend) {
		type track struct {
			closed    atomic.Bool
			violation atomic.Bool
		}
		var tracks sync.Map // *Conn -> *track
		trackOf := func(c *Conn) *track {
			v, _ := tracks.LoadOrStore(c, &track{})
			return v.(*track)
		}

		rt, err := mely.New(mely.Config{Cores: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Stop)

		var closes atomic.Int64
		onData := rt.Register("data", func(ctx *mely.Ctx) {
			msg := ctx.Data().(*Message)
			tr := trackOf(msg.Conn)
			if tr.closed.Load() {
				tr.violation.Store(true)
			}
			msg.Release()
			// Kill the connection from under its own queued reads.
			msg.Conn.Shutdown()
		})
		onClose := rt.Register("close", func(ctx *mely.Ctx) {
			trackOf(ctx.Data().(*Conn)).closed.Store(true)
			closes.Add(1)
		})

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv, err := Serve(ln, Config{
			Runtime:     rt,
			OnAccept:    rt.Register("accept", func(ctx *mely.Ctx) {}),
			AcceptColor: 1,
			OnData:      onData,
			OnClose:     onClose,
			Backend:     backend,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })

		const clients = 32
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				conn, err := net.Dial("tcp", srv.Addr().String())
				if err != nil {
					return
				}
				defer conn.Close()
				// Stream until the server's Shutdown lands: several
				// writes usually get queued as distinct read events
				// racing the close.
				_ = conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
				for j := 0; j < 100; j++ {
					if _, err := conn.Write([]byte("payload")); err != nil {
						return
					}
				}
			}()
		}
		wg.Wait()
		waitFor(t, func() bool { return closes.Load() >= clients || srv.Live() == 0 })

		tracks.Range(func(_, v any) bool {
			if v.(*track).violation.Load() {
				t.Fatal("OnData delivered after OnClose for the same connection")
			}
			return true
		})
	})
}

// TestSendBackpressure exercises the epoll backend's pending-write
// path: responses to a reader that has stopped draining must queue,
// count a write stall, and still arrive intact once the reader
// resumes.
func TestSendBackpressure(t *testing.T) {
	if !EpollSupported() {
		t.Skip("backpressure path is epoll-specific")
	}
	rt, err := mely.New(mely.Config{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)

	// One request triggers a multi-megabyte burst of sends — far past
	// any kernel socket buffer.
	const chunk = 64 << 10
	const chunks = 64
	payload := make([]byte, chunk)
	for i := range payload {
		payload[i] = byte(i)
	}
	onData := rt.Register("data", func(ctx *mely.Ctx) {
		msg := ctx.Data().(*Message)
		for i := 0; i < chunks; i++ {
			if err := msg.Conn.Send(payload); err != nil {
				t.Errorf("Send: %v", err)
				msg.Conn.Shutdown()
				break
			}
		}
		msg.Release()
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(ln, Config{
		Runtime:     rt,
		OnAccept:    rt.Register("accept", func(ctx *mely.Ctx) {}),
		AcceptColor: 1,
		OnData:      onData,
		Backend:     BackendEpoll,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("go")); err != nil {
		t.Fatal(err)
	}
	// Let the server run into the full socket buffer before reading.
	waitFor(t, func() bool { return rt.Stats().WriteStalls > 0 })

	// Now drain and verify every byte arrived in order.
	_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	total := 0
	buf := make([]byte, 32<<10)
	for total < chunk*chunks {
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("read after %d bytes: %v", total, err)
		}
		for i := 0; i < n; i++ {
			if buf[i] != byte((total+i)%chunk) {
				t.Fatalf("corrupt byte at offset %d", total+i)
			}
		}
		total += n
	}
	if stats := rt.Stats(); stats.WriteStalls == 0 || stats.PollWakeups == 0 {
		t.Fatalf("stats not recorded: stalls=%d wakeups=%d", stats.WriteStalls, stats.PollWakeups)
	}
}

// TestPendingWriteBudgetShutsDown: a peer that never reads cannot make
// the server buffer without bound.
func TestPendingWriteBudgetShutsDown(t *testing.T) {
	if !EpollSupported() {
		t.Skip("backpressure path is epoll-specific")
	}
	rt, err := mely.New(mely.Config{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)

	payload := make([]byte, 64<<10)
	var sendErr atomic.Bool
	onData := rt.Register("data", func(ctx *mely.Ctx) {
		msg := ctx.Data().(*Message)
		for i := 0; i < 64; i++ { // 4 MiB total vs a 256 KiB budget
			if err := msg.Conn.Send(payload); err != nil {
				sendErr.Store(true)
				return
			}
		}
		msg.Release()
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(ln, Config{
		Runtime:              rt,
		OnAccept:             rt.Register("accept", func(ctx *mely.Ctx) {}),
		AcceptColor:          1,
		OnData:               onData,
		Backend:              BackendEpoll,
		maxPendingWriteBytes: 256 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("go")); err != nil {
		t.Fatal(err)
	}
	// Never read: the server must give up on us rather than buffer 4 MiB.
	waitFor(t, func() bool { return sendErr.Load() && srv.Live() == 0 })
}

// TestDataFinCoalescedTeardown is the regression test for the
// edge-triggered coalesced data+FIN case: a client that writes and
// closes immediately often delivers its last bytes and the hangup in
// ONE epoll event; the reactor must drain to EOF (not stop at the
// partial read) or the connection leaks forever.
func TestDataFinCoalescedTeardown(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend Backend) {
		h := startHarness(t, backend, 0, nil)
		const conns = 50
		for i := 0; i < conns; i++ {
			conn, err := net.Dial("tcp", h.srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write([]byte("bye")); err != nil {
				t.Fatal(err)
			}
			_ = conn.Close() // FIN races the data into the same event
		}
		waitFor(t, func() bool { return h.closed.Load() == conns })
		waitFor(t, func() bool { return h.srv.Live() == 0 })
	})
}

// startSender serves with an OnData handler that answers every read by
// calling reply on the connection, and returns a dialed client.
func startSender(t *testing.T, backend Backend, reply func(*Conn) error) net.Conn {
	t.Helper()
	rt, err := mely.New(mely.Config{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	onData := rt.Register("data", func(ctx *mely.Ctx) {
		msg := ctx.Data().(*Message)
		msg.Release()
		if err := reply(msg.Conn); err != nil {
			t.Errorf("reply: %v", err)
			msg.Conn.Shutdown()
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(ln, Config{
		Runtime:     rt,
		OnAccept:    rt.Register("accept", func(ctx *mely.Ctx) {}),
		AcceptColor: 1,
		OnData:      onData,
		Backend:     backend,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// TestSendvDeliversInOrder: the buffers of one Sendv arrive as their
// concatenation, empty elements included, and a Send after it stays
// behind it.
func TestSendvDeliversInOrder(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend Backend) {
		var want []byte
		build := func() [][]byte { // Sendv may consume its argument: a fresh one per call
			want = want[:0]
			var bufs [][]byte
			for i, size := range []int{1100, 0, 1, 70000, 0, 0, 333} {
				b := bytes.Repeat([]byte{byte('a' + i)}, size)
				bufs = append(bufs, b)
				want = append(want, b...)
			}
			want = append(want, "tail"...)
			return bufs
		}
		bufs := build()
		conn := startSender(t, backend, func(c *Conn) error {
			if err := c.Sendv(bufs); err != nil {
				return err
			}
			if err := c.Sendv(nil); err != nil { // nothing to send is not an error
				return err
			}
			return c.Send([]byte("tail"))
		})
		if _, err := conn.Write([]byte("go")); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(want))
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := io.ReadFull(conn, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("Sendv bytes differ from the concatenation of its buffers")
		}
	})
}

func TestSendvAfterShutdown(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend Backend) {
		h := startHarness(t, backend, 0, nil)
		conn, err := net.Dial("tcp", h.srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		waitFor(t, func() bool { return h.lastConn.Load() != nil })
		srvConn := h.lastConn.Load().(*Conn)
		srvConn.Shutdown()
		if err := srvConn.Sendv([][]byte{[]byte("late"), []byte("r")}); !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Sendv after Shutdown = %v, want net.ErrClosed", err)
		}
	})
}
