//go:build linux

package netpoll

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"

	"github.com/melyruntime/mely"
	"github.com/melyruntime/mely/internal/epoller"
)

// acceptToken is the reserved epoll token for the listening socket on
// the accept shard; connection tokens start at 1.
const acceptToken = uint64(0)

// epollBackend is the Linux raw-epoll reactor: Config.PollerShards
// reactor goroutines, each owning one edge-triggered epoll instance.
// The accept shard (shard 0) also owns the listening socket; accepted
// connections are registered round-robin across all shards. Readiness
// is harvested in batches and posted as ordinary colored events, so
// the paper's "runtime owns the event loop" structure holds with
// O(shards) goroutines at any connection count.
type epollBackend struct {
	s      *Server
	ln     *net.TCPListener
	lnFile *os.File // dup'd listener fd (raw accept4 target); keeps the fd alive
	lnFd   int

	shards    []*pollShard
	nextShard atomic.Uint64

	// hWritable drains a connection's pending writes under its data
	// color when EPOLLOUT reports space.
	hWritable mely.Handler

	closed atomic.Bool
	wg     sync.WaitGroup
}

// pausedPollMsec bounds the reactor's wait while any connection is
// read-paused: paused connections are re-checked against their data
// color's saturation at least this often, so a drain resumes reads
// even when no new readiness arrives to wake the reactor.
const pausedPollMsec = 2

// pollShard is one reactor: an epoll instance, its goroutine, and the
// connections registered on it.
type pollShard struct {
	be *epollBackend
	id int
	p  *epoller.Poller

	mu        sync.Mutex
	conns     map[uint64]*epollConn
	nextToken uint64
	closeOps  []*epollConn

	// done is set once the reactor has exited (after finalTeardown).
	// A close request enqueued after that has no reactor to drain it,
	// so beginShutdown drains inline when done is set; the store/load
	// ordering against the mu-protected op queue guarantees every op
	// is drained by exactly one of the reactor's final pass or the
	// enqueuer (a connection accepted concurrently with Close would
	// otherwise leak its fd and live-count forever).
	done atomic.Bool

	// batch accumulates the round's OnData events; they are delivered
	// in one PostBatch at the end of the round — one lock hop and one
	// wakeup per destination core instead of one per read. This is the
	// batch-oriented readiness harvesting of the design: the poll batch
	// amortizes the syscall, the post batch amortizes delivery.
	batch []mely.BatchEvent

	// paused holds connections whose read readiness is withheld
	// because their data color is saturated (Runtime.Saturated): the
	// overload layer's read backpressure. Reactor-owned — only this
	// shard's goroutine touches it. While non-empty the reactor polls
	// with a bounded timeout and re-checks for resumption each round;
	// the unread bytes sit in the kernel buffer, closing the peer's
	// TCP window instead of growing the runtime's queues.
	paused map[uint64]*epollConn
}

// epollConn is the per-connection state of the epoll backend. The
// reactor owning the shard does all reads and the final teardown; Send
// may run on any goroutine (typically a handler under the connection's
// data color) and synchronizes with teardown through wmu.
type epollConn struct {
	conn   *Conn
	shard  *pollShard
	fd     int
	token  uint64
	remote net.Addr
	local  net.Addr

	closeReq atomic.Bool // teardown requested (op queued or imminent)

	wmu       sync.Mutex
	pending   []byte // bytes the kernel buffer would not take
	wantWrite bool   // EPOLLOUT armed
	fdDead    bool   // fd closed; no further syscalls allowed
}

// newEpollBackend does all the fallible setup (descriptors, pollers,
// listener registration) and nothing else: no handler registrations
// and no goroutines, so a failed Serve leaves no trace on the runtime
// (Register is append-only — there is no unregister). The caller runs
// start once the server's relay handler exists.
func newEpollBackend(s *Server, ln *net.TCPListener) (*epollBackend, error) {
	f, err := ln.File()
	if err != nil {
		return nil, fmt.Errorf("netpoll: listener fd: %w", err)
	}
	lnFd := int(f.Fd())
	if err := epoller.SetNonblock(lnFd); err != nil {
		f.Close()
		return nil, err
	}
	be := &epollBackend{s: s, ln: ln, lnFile: f, lnFd: lnFd}

	nshards := s.cfg.PollerShards
	be.shards = make([]*pollShard, nshards)
	for i := range be.shards {
		p, err := epoller.New()
		if err != nil {
			for _, sh := range be.shards[:i] {
				sh.p.Release() // reactors not started yet
			}
			f.Close()
			return nil, err
		}
		be.shards[i] = &pollShard{be: be, id: i, p: p, conns: make(map[uint64]*epollConn), nextToken: 1}
	}
	// The accept shard watches the listener. Edge-triggered like the
	// conns: the accept loop drains the backlog on every edge.
	if err := be.shards[0].p.Add(lnFd, acceptToken, true, false); err != nil {
		for _, sh := range be.shards {
			sh.p.Release() // reactors not started yet
		}
		f.Close()
		return nil, err
	}
	return be, nil
}

// start registers the backend's handler and launches the reactors.
// Infallible; called exactly once by Serve.
func (be *epollBackend) start() {
	be.hWritable = be.s.cfg.Runtime.Register("netpoll.Writable", be.drainWritable)
	be.wg.Add(len(be.shards))
	for _, sh := range be.shards {
		go sh.run()
	}
}

func (be *epollBackend) addr() net.Addr { return be.ln.Addr() }

// close stops accepting, tears down every connection from its owning
// reactor (posting the ordered OnClose relays), and waits for the
// reactors to exit.
func (be *epollBackend) close() error {
	if be.closed.Swap(true) {
		be.wg.Wait()
		return nil
	}
	// The dup'd accept fd shares the listening socket's open
	// description, so closing the original net.Listener alone would NOT
	// stop the kernel completing handshakes — shutdown(SHUT_RD) on the
	// shared description does, matching the pump backend's immediate
	// connection-refused during drain. The dup itself stays open until
	// the reactors have exited so no accept4 ever races a closed
	// descriptor.
	err := be.ln.Close()
	_ = syscall.Shutdown(be.lnFd, syscall.SHUT_RD)
	for _, sh := range be.shards {
		_ = sh.p.Close() // reactors observe ErrClosed and run final teardown
	}
	be.wg.Wait()
	_ = be.lnFile.Close()
	return err
}

// run is the reactor loop: harvest a readiness batch, process
// out-of-band close requests, then dispatch events. The indefinite
// Wait parks inside the Go runtime's netpoller (see epoller.Poller),
// so a waking reactor re-enters the scheduler like any unblocked
// goroutine instead of paying the raw-epoll_wait thread re-admission
// bubble.
func (sh *pollShard) run() {
	defer sh.be.wg.Done()
	// 512 so the batch histogram's >256 bucket is reachable (a smaller
	// harvest buffer would silently clip the distribution it reports).
	events := make([]epoller.Event, 512)
	for {
		msec := -1
		if len(sh.paused) > 0 {
			msec = pausedPollMsec
		}
		n, err := sh.p.Wait(events, msec)
		if err != nil {
			// ErrClosed (or the epfd died): tear down every remaining
			// connection so their OnClose relays are posted before the
			// backend's close() returns.
			sh.finalTeardown()
			return
		}
		if n > 0 {
			sh.be.s.cfg.Runtime.NotePollWakeup(n)
		}

		// Close requests first: a connection closed by a handler must
		// not have this batch's stale readiness delivered after it.
		// (Teardown posts the OnClose relay; reads harvested below are
		// batch-posted before the next round's teardowns run, so the
		// relay always trails every OnData of its connection.)
		sh.processCloseOps()
		sh.resumePaused()

		for i := 0; i < n; i++ {
			ev := events[i]
			if ev.Token == acceptToken && sh.id == 0 {
				sh.accept()
				continue
			}
			sh.mu.Lock()
			ec := sh.conns[ev.Token]
			sh.mu.Unlock()
			if ec == nil || ec.closeReq.Load() {
				continue // already torn down (or about to be)
			}
			if ev.Writable {
				sh.kickWriter(ec)
			}
			if ev.Readable || ev.Closed {
				// Read backpressure: a saturated data color pauses the
				// drain (the bytes wait in the kernel buffer) — except
				// on hangup, where teardown must proceed regardless.
				if !ev.Closed && sh.be.saturatedConn(ec) {
					sh.pauseConn(ec)
					continue
				}
				sh.readReady(ec, ev.Closed)
			}
		}
		sh.flushBatch()
	}
}

// saturatedConn reports whether ec's data color is saturated.
func (be *epollBackend) saturatedConn(ec *epollConn) bool {
	return be.s.cfg.Runtime.Saturated(be.s.dataColor(ec.conn))
}

// pauseConn withholds ec's read readiness until its data color drains.
// Counted once per pause episode.
func (sh *pollShard) pauseConn(ec *epollConn) {
	if sh.paused == nil {
		sh.paused = make(map[uint64]*epollConn)
	}
	if _, already := sh.paused[ec.token]; !already {
		sh.paused[ec.token] = ec
		sh.be.s.cfg.Runtime.NoteReadPause()
	}
}

// resumePaused re-checks paused connections and resumes (drains) the
// ones whose data color is no longer saturated. Under edge triggering
// the withheld event will not repeat, so the resume read happens here,
// not by re-arming.
func (sh *pollShard) resumePaused() {
	if len(sh.paused) == 0 {
		return
	}
	for token, ec := range sh.paused {
		if ec.closeReq.Load() {
			delete(sh.paused, token)
			continue
		}
		if sh.be.saturatedConn(ec) {
			continue
		}
		delete(sh.paused, token)
		sh.readReady(ec, false)
	}
}

// flushBatch delivers the round's accumulated OnData events. Edge
// posting: the reactor must never be blocked or rejected by an
// overload bound — its backpressure mechanism is pausing reads, and a
// blocked reactor would stall every connection on the shard.
func (sh *pollShard) flushBatch() {
	if len(sh.batch) == 0 {
		return
	}
	if err := sh.be.s.cfg.Runtime.PostBatchEdge(sh.batch); err != nil {
		// Runtime stopping: release the buffers and fold the conns.
		for _, be := range sh.batch {
			msg := be.Data.(*Message)
			conn := msg.Conn
			msg.Release()
			conn.Shutdown()
		}
	}
	clear(sh.batch)
	sh.batch = sh.batch[:0]
}

// accept drains the listen backlog (edge-triggered: all of it).
func (sh *pollShard) accept() {
	be := sh.be
	for {
		if be.closed.Load() {
			return
		}
		fd, sa, err := epoller.Accept(be.lnFd)
		if err != nil {
			return // ErrWouldBlock (drained) or listener closed
		}
		if !be.s.admit() {
			epoller.CloseFd(fd)
			continue
		}
		// Match net.TCPConn defaults: no Nagle delay on small writes.
		_ = syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1)

		target := be.shards[be.nextShard.Add(1)%uint64(len(be.shards))]
		ec := &epollConn{shard: target, fd: fd, remote: sockaddrToTCP(sa)}
		// getsockname, so LocalAddr reports the connected address (not
		// the possibly-wildcard listener address) — parity with the
		// pump backend's nc.LocalAddr on multi-homed hosts.
		if lsa, err := syscall.Getsockname(fd); err == nil {
			ec.local = sockaddrToTCP(lsa)
		} else {
			ec.local = be.ln.Addr()
		}
		conn := be.s.newConn(ec)
		ec.conn = conn

		target.mu.Lock()
		ec.token = target.nextToken
		target.nextToken++
		target.conns[ec.token] = ec
		target.mu.Unlock()
		be.s.live.Add(1)

		// Register with the poller BEFORE announcing the connection:
		// an OnAccept handler may Send immediately, and its EPOLLOUT
		// arming (epoll_ctl MOD) needs the fd already in the interest
		// set. The map insert above precedes both, so the target
		// reactor can resolve any readiness the Add unleashes.
		if err := target.p.Add(fd, ec.token, true, false); err != nil {
			// Never announced: unwind without OnAccept/OnClose so the
			// caller's accept-side bookkeeping stays balanced.
			target.mu.Lock()
			delete(target.conns, ec.token)
			target.mu.Unlock()
			ec.closeReq.Store(true)
			conn.closeOnce.Do(func() { conn.closed.Store(true) })
			be.s.live.Add(-1)
			epoller.CloseFd(fd)
			continue
		}
		if err := be.s.cfg.Runtime.PostEdge(be.s.cfg.OnAccept, be.s.cfg.AcceptColor, conn); err != nil {
			conn.Shutdown() // runtime stopping; tear the conn down
		}
	}
}

// boundedDrainFlush is the mid-drain batch flush threshold on bounded
// runtimes: flushing every few reads keeps the queued-events gauge
// live, so the per-chunk saturation check below can observe the
// pressure this very drain is creating and pause within a few reads of
// the bound instead of swallowing a whole socket buffer first.
const boundedDrainFlush = 8

// readReady drains one connection's socket (edge-triggered), queueing
// each read on the round's OnData batch. closing is the event's Closed
// flag: the peer hung up (FIN/RST), so this may be the last event the
// descriptor ever delivers and the drain must run to EOF. On a bounded
// runtime the drain re-checks the data color's saturation every chunk
// and pauses mid-socket (the rest of the bytes keep waiting in the
// kernel) — hangups excepted, since their drain is the teardown path.
func (sh *pollShard) readReady(ec *epollConn, closing bool) {
	be := sh.be
	bounded := be.s.cfg.Runtime.Bounded()
	for {
		if bounded && !closing {
			if len(sh.batch) >= boundedDrainFlush {
				sh.flushBatch()
			}
			if be.saturatedConn(ec) {
				sh.pauseConn(ec)
				return
			}
		}
		buf := getReadBuf(be.s.cfg.readBufBytes)
		n, err := epoller.Read(ec.fd, buf)
		if n > 0 {
			msg := &Message{Conn: ec.conn, Data: buf[:n], raw: buf}
			sh.batch = append(sh.batch, mely.BatchEvent{
				Handler: be.s.cfg.OnData,
				Color:   be.s.dataColor(ec.conn),
				Data:    msg,
			})
			if n < len(buf) && !closing {
				// Partial read: the socket was drained at syscall time,
				// and under edge triggering any byte arriving after it
				// raises a fresh event — skip the would-be-EAGAIN read.
				// Not valid when the peer hung up: final data and FIN
				// coalesce into one edge, and stopping short of the EOF
				// read would leak the connection forever.
				return
			}
			continue
		}
		putReadBuf(buf)
		if errors.Is(err, epoller.ErrWouldBlock) {
			if closing {
				// The kernel said hangup but the FIN is not readable
				// (EPOLLERR paths): trust the event, drop the conn.
				ec.conn.Shutdown()
			}
			return
		}
		// EOF, reset, or a dead fd: the connection is done. Shutdown
		// routes through this shard's close ops — processed after this
		// round's batch is posted, so the OnClose relay trails the
		// connection's last OnData.
		ec.conn.Shutdown()
		return
	}
}

// kickWriter posts the pending-write drain under the connection's data
// color (writes share the color's serialization, like everything else
// that touches the connection).
func (sh *pollShard) kickWriter(ec *epollConn) {
	be := sh.be
	if err := be.s.cfg.Runtime.PostEdge(be.hWritable, be.s.dataColor(ec.conn), ec.conn); err != nil {
		ec.conn.Shutdown()
	}
}

// drainWritable runs under the connection's data color: flush the
// pending queue into the kernel buffer, disarming EPOLLOUT when it
// empties. Shutdown must never be called with wmu held — when the
// owning reactor has already exited, beginShutdown tears down inline
// and teardown takes wmu (self-deadlock otherwise).
func (be *epollBackend) drainWritable(ctx *mely.Ctx) {
	conn := ctx.Data().(*Conn)
	ec, ok := conn.be.(*epollConn)
	if !ok {
		return
	}
	ec.wmu.Lock()
	closeAfter := ec.drainLocked()
	ec.wmu.Unlock()
	if closeAfter {
		conn.Shutdown()
	}
}

// drainLocked flushes pending under wmu; a true return asks the caller
// to shut the connection down (after releasing wmu).
func (ec *epollConn) drainLocked() (closeAfter bool) {
	if ec.fdDead {
		return false
	}
	if len(ec.pending) > 0 {
		n, err := epoller.Write(ec.fd, ec.pending)
		ec.pending = append(ec.pending[:0], ec.pending[n:]...)
		switch {
		case errors.Is(err, epoller.ErrWouldBlock):
			return false // still full; the next EPOLLOUT edge re-posts us
		case err != nil:
			return true
		}
	}
	if len(ec.pending) == 0 && ec.wantWrite {
		ec.wantWrite = false
		ec.pending = nil
		_ = ec.shard.p.Mod(ec.fd, ec.token, true, false)
	}
	return false
}

// send implements Conn.Send: write what the kernel will take, queue
// the rest, arm EPOLLOUT. Queued bytes beyond maxPendingWriteBytes
// mean the peer has stopped reading — the connection is shut down
// instead of buffering without bound.
func (ec *epollConn) send(p []byte) error {
	one := [1][]byte{p}
	return ec.sendv(one[:])
}

// sendv implements Conn.Sendv, and Send as its one-buffer case: the
// EAGAIN, pending-queue and budget handling exists once.
func (ec *epollConn) sendv(bufs [][]byte) error {
	ec.wmu.Lock()
	err, closeAfter := ec.sendLocked(bufs)
	ec.wmu.Unlock()
	if closeAfter {
		ec.conn.Shutdown() // outside wmu: see drainWritable
	}
	return err
}

func (ec *epollConn) sendLocked(bufs [][]byte) (err error, closeAfter bool) {
	if ec.fdDead {
		return net.ErrClosed, false
	}
	if len(ec.pending) > 0 {
		// Already backlogged: order behind the queue.
		return ec.queueLocked(bufs, 0)
	}
	var n int
	var werr error
	if len(bufs) == 1 {
		n, werr = epoller.Write(ec.fd, bufs[0]) // Send: plain write(2)
	} else {
		n, werr = epoller.Writev(ec.fd, bufs)
	}
	switch {
	case werr == nil:
		return nil, false
	case errors.Is(werr, epoller.ErrWouldBlock):
		return ec.queueLocked(bufs, n)
	default:
		return werr, false
	}
}

// queueLocked copies bufs, less their first skip bytes (already
// written), onto the pending buffer and ensures EPOLLOUT is armed.
// Caller holds wmu; a true closeAfter asks it to Shutdown once wmu is
// released. Every send that lands here counts one WriteStall — both the
// first EAGAIN and the sends queueing behind an existing backlog fell
// back to the pending queue.
func (ec *epollConn) queueLocked(bufs [][]byte, skip int) (err error, closeAfter bool) {
	ec.shard.be.s.cfg.Runtime.NoteWriteStall()
	total := len(ec.pending) - skip
	for _, b := range bufs {
		total += len(b)
	}
	if total > ec.shard.be.s.cfg.maxPendingWriteBytes {
		return fmt.Errorf("netpoll: pending-write budget exceeded (%d bytes)", total), true
	}
	for _, b := range bufs {
		if skip >= len(b) {
			skip -= len(b)
			continue
		}
		ec.pending = append(ec.pending, b[skip:]...)
		skip = 0
	}
	if !ec.wantWrite {
		ec.wantWrite = true
		_ = ec.shard.p.Mod(ec.fd, ec.token, true, true)
	}
	return nil, false
}

// beginShutdown (Conn.closeOnce path) requests teardown from the
// owning reactor. The reactor is the only goroutine that reads the fd
// or closes it, so routing the close through it removes the
// close-vs-in-flight-read race by construction.
func (ec *epollConn) beginShutdown() {
	if ec.closeReq.Swap(true) {
		return
	}
	sh := ec.shard
	sh.mu.Lock()
	sh.closeOps = append(sh.closeOps, ec)
	sh.mu.Unlock()
	_ = sh.p.Wake()
	if sh.done.Load() {
		// The reactor is gone; nobody else will drain this op.
		sh.processCloseOps()
	}
}

func (ec *epollConn) remoteAddr() net.Addr { return ec.remote }
func (ec *epollConn) localAddr() net.Addr  { return ec.local }

// processCloseOps runs queued teardowns on the reactor.
func (sh *pollShard) processCloseOps() {
	sh.mu.Lock()
	ops := sh.closeOps
	sh.closeOps = nil
	sh.mu.Unlock()
	for _, ec := range ops {
		sh.teardown(ec)
	}
}

// teardown releases one connection: deregister, close the fd (under
// wmu so no Send races the close), and fire the exactly-once OnClose
// relay. Runs on the reactor (or on finalTeardown's path after the
// reactor stopped).
func (sh *pollShard) teardown(ec *epollConn) {
	sh.mu.Lock()
	delete(sh.conns, ec.token)
	sh.mu.Unlock()

	ec.wmu.Lock()
	if !ec.fdDead {
		if len(ec.pending) > 0 {
			// Best-effort final flush: a half-closed peer (sent FIN,
			// still reading) deserves whatever the kernel buffer will
			// take — the pump backend's blocking write would have
			// delivered it. Bytes past EAGAIN are dropped; a full
			// lingering-close would stall the reactor on a dead peer.
			_, _ = epoller.Write(ec.fd, ec.pending)
		}
		ec.fdDead = true
		_ = sh.p.Del(ec.fd)
		epoller.CloseFd(ec.fd)
	}
	ec.pending = nil
	ec.wmu.Unlock()

	sh.be.s.finishConn(ec.conn)
}

// finalTeardown closes every connection still registered when the
// reactor exits (backend close).
func (sh *pollShard) finalTeardown() {
	sh.processCloseOps()
	sh.mu.Lock()
	remaining := make([]*epollConn, 0, len(sh.conns))
	for _, ec := range sh.conns {
		remaining = append(remaining, ec)
	}
	sh.mu.Unlock()
	for _, ec := range remaining {
		ec.conn.closeOnce.Do(func() { ec.conn.closed.Store(true) })
		if !ec.closeReq.Swap(true) {
			sh.teardown(ec)
		}
	}
	// Hand off to the enqueuers before the final drain: an op enqueued
	// after this store is drained inline by its enqueuer (beginShutdown
	// sees done), an op enqueued before it is visible to the drain
	// below — either way nothing is stranded.
	sh.done.Store(true)
	sh.processCloseOps()
}

// sockaddrToTCP converts an accept4 sockaddr.
func sockaddrToTCP(sa syscall.Sockaddr) net.Addr {
	switch sa := sa.(type) {
	case *syscall.SockaddrInet4:
		return &net.TCPAddr{IP: append([]byte(nil), sa.Addr[:]...), Port: sa.Port}
	case *syscall.SockaddrInet6:
		return &net.TCPAddr{IP: append([]byte(nil), sa.Addr[:]...), Port: sa.Port}
	default:
		return nil
	}
}
