package netpoll

import (
	"net"
	"sync"
	"time"
)

// pumpBackend is the portable backend: one accept pump per listener
// and one read pump per connection, each a goroutine blocking in the
// Go netpoller and translating readiness into posted events. It is
// the fallback where the raw epoll reactor is unavailable; goroutine
// count scales with connection count.
type pumpBackend struct {
	s  *Server
	ln net.Listener

	mu     sync.Mutex
	conns  map[*Conn]struct{}
	closed bool

	wg sync.WaitGroup
}

// pumpPauseRecheck is how often a paused read pump re-checks its data
// color's saturation (the pump-world analogue of the epoll backend's
// bounded poll timeout).
const pumpPauseRecheck = 500 * time.Microsecond

func newPumpBackend(s *Server, ln net.Listener) *pumpBackend {
	b := &pumpBackend{s: s, ln: ln, conns: make(map[*Conn]struct{})}
	b.wg.Add(1)
	go b.acceptPump()
	return b
}

// pumpConn is the per-connection state: a plain net.Conn whose reads
// happen in a dedicated pump goroutine. send is a blocking net.Conn
// write — backpressure is the TCP window, applied to the calling
// handler's worker.
type pumpConn struct {
	nc net.Conn
}

func (p *pumpConn) send(b []byte) error {
	_, err := p.nc.Write(b)
	return err
}

// sendv hands the buffers to net.Buffers, which issues one writev(2) on
// a TCP connection (and consumes bufs as it goes).
func (p *pumpConn) sendv(bufs [][]byte) error {
	nb := net.Buffers(bufs)
	_, err := nb.WriteTo(p.nc)
	return err
}

// beginShutdown closes the socket; the read pump notices and runs the
// teardown path.
func (p *pumpConn) beginShutdown()       { _ = p.nc.Close() }
func (p *pumpConn) remoteAddr() net.Addr { return p.nc.RemoteAddr() }
func (p *pumpConn) localAddr() net.Addr  { return p.nc.LocalAddr() }

func (b *pumpBackend) addr() net.Addr { return b.ln.Addr() }

func (b *pumpBackend) close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		b.wg.Wait()
		return nil
	}
	b.closed = true
	conns := make([]*Conn, 0, len(b.conns))
	for c := range b.conns {
		conns = append(conns, c)
	}
	b.mu.Unlock()

	err := b.ln.Close()
	for _, c := range conns {
		c.Shutdown()
	}
	b.wg.Wait()
	return err
}

func (b *pumpBackend) acceptPump() {
	defer b.wg.Done()
	for {
		nc, err := b.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !b.s.admit() {
			_ = nc.Close()
			continue
		}
		conn := b.s.newConn(&pumpConn{nc: nc})
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			_ = nc.Close()
			return
		}
		b.conns[conn] = struct{}{}
		b.mu.Unlock()
		b.s.live.Add(1)

		if err := b.s.cfg.Runtime.PostEdge(b.s.cfg.OnAccept, b.s.cfg.AcceptColor, conn); err != nil {
			b.dropConn(conn)
			continue
		}
		b.wg.Add(1)
		go b.readPump(conn)
	}
}

func (b *pumpBackend) readPump(conn *Conn) {
	defer b.wg.Done()
	defer b.dropConn(conn)
	nc := conn.be.(*pumpConn).nc
	rt := b.s.cfg.Runtime
	for {
		// Read backpressure: while this connection's data color is
		// saturated, leave the bytes in the kernel buffer (the peer's
		// TCP window closes) instead of posting into a full queue.
		// Counted once per pause episode, like the epoll backend.
		if rt.Saturated(b.s.dataColor(conn)) && !conn.IsClosed() {
			rt.NoteReadPause()
			for rt.Saturated(b.s.dataColor(conn)) && !conn.IsClosed() {
				time.Sleep(pumpPauseRecheck)
			}
		}
		buf := getReadBuf(b.s.cfg.readBufBytes)
		n, err := nc.Read(buf)
		if n > 0 {
			if perr := b.s.postData(conn, buf[:n], buf); perr != nil {
				return
			}
		} else {
			putReadBuf(buf)
		}
		if err != nil {
			return // EOF, peer reset, or our own Shutdown
		}
	}
}

// dropConn runs the exactly-once teardown: the pump has exited (or
// never started), so no further OnData can be posted and the ordering
// relay in finishConn is safe to arm.
func (b *pumpBackend) dropConn(conn *Conn) {
	conn.Shutdown()
	b.mu.Lock()
	_, present := b.conns[conn]
	delete(b.conns, conn)
	b.mu.Unlock()
	if !present {
		return
	}
	b.s.finishConn(conn)
}
