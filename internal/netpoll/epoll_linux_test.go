//go:build linux

package netpoll

import (
	"bytes"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/melyruntime/mely"
	"github.com/melyruntime/mely/internal/epoller"
)

// raiseNoFile lifts RLIMIT_NOFILE to want descriptors (best effort).
func raiseNoFile(want uint64) error {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return err
	}
	if lim.Cur >= want {
		return nil
	}
	if lim.Max < want {
		lim.Max = want // needs privilege; harmless to try
	}
	lim.Cur = want
	return syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim)
}

// TestEpollIdleConnectionsNeedNoGoroutines is the scaling acceptance
// test: with the epoll backend, 10k idle connections are held by
// O(PollerShards) poller goroutines — not one goroutine each.
func TestEpollIdleConnectionsNeedNoGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("10k connections; skipped in -short")
	}
	// 10k connections need ~2x that in descriptors (client + server
	// side live in this process). Raise the limit when we can; degrade
	// to what the hard limit allows when we can't (the full 10k runs on
	// CI, whose hard limit is ~1M).
	conns := 10_000
	if err := raiseNoFile(uint64(conns)*2 + 512); err != nil {
		var lim syscall.Rlimit
		_ = syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim)
		fit := (int(lim.Cur) - 512) / 2
		if fit < 4096 {
			t.Skipf("RLIMIT_NOFILE %d leaves room for only %d connections", lim.Cur, fit)
		}
		if fit < conns {
			t.Logf("RLIMIT_NOFILE %d: testing %d connections instead of %d", lim.Cur, fit, conns)
			conns = fit
		}
	}

	shards := runtime.NumCPU()
	before := runtime.NumGoroutine()
	h := startHarness(t, BackendEpoll, 0, nil)

	var wg sync.WaitGroup
	var dialErr atomic.Int64
	clientConns := make([]net.Conn, conns)
	const dialers = 64
	for d := 0; d < dialers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for i := d; i < conns; i += dialers {
				c, err := net.Dial("tcp", h.srv.Addr().String())
				if err != nil {
					dialErr.Add(1)
					continue
				}
				clientConns[i] = c
			}
		}(d)
	}
	wg.Wait()
	defer func() {
		for _, c := range clientConns {
			if c != nil {
				_ = c.Close()
			}
		}
	}()
	if n := dialErr.Load(); n > 0 {
		t.Fatalf("%d dials failed", n)
	}
	deadline := time.Now().Add(30 * time.Second)
	for h.srv.Live() != conns && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := h.srv.Live(); got != conns {
		t.Fatalf("live = %d, want %d", got, conns)
	}

	// The budget: the goroutines that existed before, one reactor per
	// shard, plus slack for the runtime's workers and test machinery.
	// The pump backend would sit at 10k+ here.
	budget := before + shards + 32
	if got := runtime.NumGoroutine(); got > budget {
		t.Fatalf("%d goroutines for %d idle connections (budget %d): connection count is driving goroutine count", got, conns, budget)
	}

	// The connections are not just parked — they still serve. Probe a
	// few with the echo handler.
	for _, i := range []int{0, conns / 2, conns - 1} {
		c := clientConns[i]
		if _, err := c.Write([]byte("ok")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 2)
		_ = c.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := c.Read(buf); err != nil {
			t.Fatalf("probe conn %d: %v", i, err)
		}
	}
}

// TestShardDistribution: connections spread across reactor shards
// round-robin (no shard owns everything).
func TestShardDistribution(t *testing.T) {
	rt, err := mely.New(mely.Config{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(ln, Config{
		Runtime:      rt,
		OnAccept:     rt.Register("accept", func(ctx *mely.Ctx) {}),
		AcceptColor:  1,
		OnData:       rt.Register("data", func(ctx *mely.Ctx) { ctx.Data().(*Message).Release() }),
		Backend:      BackendEpoll,
		PollerShards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	conns := make([]net.Conn, 8)
	for i := range conns {
		c, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
	}
	waitFor(t, func() bool { return srv.Live() == len(conns) })

	be := srv.backend.(*epollBackend)
	populated := 0
	for _, sh := range be.shards {
		sh.mu.Lock()
		if len(sh.conns) > 0 {
			populated++
		}
		sh.mu.Unlock()
	}
	if populated < 2 {
		t.Fatalf("8 conns landed on %d of 4 shards", populated)
	}
}

// looseConn is an epollConn over one end of a Unix socketpair, with a
// poller but no reactor and no server: the test plays both, calling
// drainLocked where an EPOLLOUT event would. A never-started runtime
// takes the stall counts. sndbuf shrinks the socket so a few KiB fill
// it.
func looseConn(t *testing.T, budget int) (ec *epollConn, peer int) {
	t.Helper()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fds[0]); syscall.Close(fds[1]) })
	_ = syscall.SetsockoptInt(fds[0], syscall.SOL_SOCKET, syscall.SO_SNDBUF, 4096)
	p, err := epoller.New()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Release)
	if err := p.Add(fds[0], 1, true, false); err != nil {
		t.Fatal(err)
	}
	rt, err := mely.New(mely.Config{Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	be := &epollBackend{s: &Server{cfg: Config{Runtime: rt, maxPendingWriteBytes: budget}}}
	sh := &pollShard{be: be, p: p, conns: map[uint64]*epollConn{}}
	ec = &epollConn{shard: sh, fd: fds[0], token: 1}
	ec.conn = &Conn{be: ec}
	return ec, fds[1]
}

// TestQueueRemainderAtEveryOffset: whatever prefix of a Sendv the
// kernel took — ending inside a buffer, on a boundary, before an empty
// element — the pending queue receives exactly the rest.
func TestQueueRemainderAtEveryOffset(t *testing.T) {
	bufs := [][]byte{[]byte("aaaa"), nil, []byte("b"), []byte("cccccc"), {}, []byte("dd")}
	all := bytes.Join(bufs, nil)
	for skip := 0; skip <= len(all); skip++ {
		ec, _ := looseConn(t, 1<<20)
		ec.pending = []byte("old")
		if err, closeAfter := ec.queueLocked(bufs, skip); err != nil || closeAfter {
			t.Fatalf("skip %d: queueLocked = %v, %v", skip, err, closeAfter)
		}
		if want := "old" + string(all[skip:]); string(ec.pending) != want {
			t.Fatalf("skip %d: pending = %q, want %q", skip, ec.pending, want)
		}
		if !ec.wantWrite {
			t.Fatalf("skip %d: EPOLLOUT not armed", skip)
		}
	}
}

// TestSendvShortWrite: a Sendv that overruns a tiny socket buffer is
// cut wherever the kernel pleases; the remainder waits in pending,
// later sends queue behind it, and the peer reads one ordered stream.
// Buffer sizes are co-prime with anything the kernel rounds to, so over
// the rounds the cut lands at many offsets of many buffers.
func TestSendvShortWrite(t *testing.T) {
	ec, peer := looseConn(t, 1<<20)
	var want, got []byte
	drain := func() {
		buf := make([]byte, 64<<10)
		for {
			n, err := epoller.Read(peer, buf)
			got = append(got, buf[:n]...)
			if err != nil {
				return // ErrWouldBlock: empty for now
			}
		}
	}
	for round := 0; round < 40; round++ {
		var bufs [][]byte
		for i := 0; i < 16; i++ {
			b := bytes.Repeat([]byte{byte(round*16 + i)}, 611+37*i+round)
			bufs = append(bufs, b)
			want = append(want, b...)
		}
		if err := ec.sendv(bufs); err != nil {
			t.Fatalf("round %d: sendv: %v", round, err)
		}
		tail := []byte{0xff, byte(round)}
		want = append(want, tail...)
		if err := ec.send(tail); err != nil { // behind the backlog, not past it
			t.Fatalf("round %d: send: %v", round, err)
		}
		for len(ec.pending) > 0 {
			drain()
			ec.wmu.Lock()
			closeAfter := ec.drainLocked()
			ec.wmu.Unlock()
			if closeAfter {
				t.Fatalf("round %d: drain failed", round)
			}
		}
		if ec.wantWrite {
			t.Fatalf("round %d: EPOLLOUT still armed on an empty queue", round)
		}
	}
	drain()
	if !bytes.Equal(got, want) {
		t.Fatalf("stream differs: read %d bytes, want %d", len(got), len(want))
	}
	if stalls := ec.shard.be.s.cfg.Runtime.Stats().WriteStalls; stalls < 40 {
		t.Fatalf("write stalls = %d: the socket buffer never filled, nothing was tested", stalls)
	}
}

// TestSendvPastBudgetShutsDown: a Sendv whose remainder does not fit
// the pending budget is refused whole and the connection shut down.
func TestSendvPastBudgetShutsDown(t *testing.T) {
	ec, _ := looseConn(t, 8<<10)
	big := bytes.Repeat([]byte("x"), 64<<10)
	if err := ec.sendv([][]byte{big, big}); err == nil {
		t.Fatal("Sendv past the budget succeeded")
	}
	if !ec.conn.IsClosed() || len(ec.pending) != 0 {
		t.Fatalf("closed = %v, pending = %d bytes", ec.conn.IsClosed(), len(ec.pending))
	}
}
