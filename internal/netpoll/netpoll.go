// Package netpoll turns socket activity into colored events for the
// mely runtime.
//
// The paper's runtime owns the epoll loop: an Epoll handler under
// color 0 turns readiness into colored events dispatched to the
// Accept/ReadRequest handlers. This package gives the mely runtime the
// same position, with two interchangeable backends behind one Config:
//
//   - epoll (Linux, the primary backend): internal/epoller runs a raw
//     edge-triggered EpollWait loop over non-blocking sockets — one
//     reactor goroutine per poller shard (Config.PollerShards, default
//     NumCPU), each harvesting readiness in batches and posting it as
//     ordinary colored events. Connection count does not drive
//     goroutine count: ten thousand idle connections cost zero
//     goroutines beyond the shards. Writes get real backpressure — a
//     Send that fills the kernel buffer parks its bytes in a
//     per-connection pending queue drained on EPOLLOUT under the
//     connection's color.
//   - pumps (the portable fallback, and the former primary): one
//     accept pump per listener and one read pump per connection, each
//     a goroutine blocking in the Go netpoller and translating
//     readiness into posted events. Identical event semantics, but
//     goroutine count scales with connections.
//
// Either way the scheduling-relevant property holds: network activity
// enters the system as events with controllable colors — accept
// readiness under AcceptColor, read readiness under the connection's
// color — and everything downstream is handler code scheduled by the
// event-coloring runtime. Handler code cannot tell the backends apart
// (the parity suite in the tests asserts identical event traces).
//
// On a bounded runtime (mely.Config.MaxQueuedEvents and friends) both
// backends propagate overload to the network edge as read
// backpressure: a connection whose data color is saturated
// (mely.Runtime.Saturated) has its read readiness paused — the epoll
// reactor withholds the drain, the read pump sleeps — so unread bytes
// accumulate in the kernel socket buffer and close the peer's TCP
// window instead of growing the runtime's queues. Reads resume when
// the color drains; pause episodes are counted in Stats.ReadPauses.
package netpoll

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/melyruntime/mely"
	"github.com/melyruntime/mely/internal/epoller"
)

// Backend selects how readiness is harvested.
type Backend int

const (
	// BackendAuto picks epoll on Linux (for TCP listeners) and pumps
	// everywhere else.
	BackendAuto Backend = iota
	// BackendPumps is the portable goroutine-per-connection fallback.
	BackendPumps
	// BackendEpoll is the Linux raw-epoll reactor.
	BackendEpoll
)

func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendPumps:
		return "pumps"
	case BackendEpoll:
		return "epoll"
	default:
		return fmt.Sprintf("backend(%d)", int(b))
	}
}

// ParseBackend parses a backend name (auto|pumps|epoll).
func ParseBackend(s string) (Backend, error) {
	switch strings.ToLower(s) {
	case "auto", "":
		return BackendAuto, nil
	case "pumps", "pump":
		return BackendPumps, nil
	case "epoll":
		return BackendEpoll, nil
	default:
		return 0, fmt.Errorf("netpoll: unknown backend %q (auto|pumps|epoll)", s)
	}
}

// EpollSupported reports whether the epoll backend exists on this
// platform.
func EpollSupported() bool { return epoller.Supported }

// connBackend is the per-connection surface a backend provides.
type connBackend interface {
	// send writes with the backend's backpressure semantics.
	send(p []byte) error
	// sendv is send for several buffers, gathered into one write.
	sendv(bufs [][]byte) error
	// beginShutdown initiates teardown; called exactly once (via
	// Conn.closeOnce).
	beginShutdown()
	remoteAddr() net.Addr
	localAddr() net.Addr
}

// serverBackend is the per-server surface a backend provides.
type serverBackend interface {
	addr() net.Addr
	// close stops accepting, closes live connections, and waits until
	// every connection's OnClose has been posted.
	close() error
}

// Conn is an accepted connection.
type Conn struct {
	// ID is a dense connection identifier, usable as a color source
	// (the paper colors request handlers with the descriptor number).
	ID uint64

	// UserData is per-connection application state. It must only be
	// touched from handlers running under this connection's color —
	// colors serialize, so no further synchronization is needed.
	UserData any

	be        connBackend
	closeOnce sync.Once
	closed    atomic.Bool
}

// Color derives the connection's event color from its ID, skipping the
// reserved control colors 0 and 1. Colors are 64-bit, so every
// connection a server ever accepts gets its own color — no wraparound
// aliasing two clients onto one serialization domain.
func (c *Conn) Color() mely.Color {
	return mely.Color(2 + c.ID)
}

// Send writes through the backend. On the epoll backend the write is
// non-blocking with real backpressure: bytes the kernel buffer cannot
// take are queued per connection (bounded by a 4 MiB budget) and
// drained on writability under the
// connection's color. On the pump backend it is a plain blocking
// net.Conn write.
func (c *Conn) Send(p []byte) error {
	if c.closed.Load() {
		return net.ErrClosed
	}
	return c.be.send(p)
}

// Sendv is Send for several buffers at once: they go out in order as
// if concatenated, but in a single gathering write — writev(2) on the
// epoll backend (one system call per 64 buffers), net.Buffers on the
// pump backend — with no byte copied unless the kernel buffer fills.
// Backpressure is Send's: on epoll the part the kernel would not take
// is copied into the pending queue and drained on writability, against
// the same pending-write budget, counted as one write stall.
// Empty elements are skipped. The elements of bufs may be re-sliced by
// the call (the pump backend consumes them as it writes), so the
// caller must refill bufs before sending it again; the bytes they point
// at are never modified and not retained.
func (c *Conn) Sendv(bufs [][]byte) error {
	if c.closed.Load() {
		return net.ErrClosed
	}
	return c.be.sendv(bufs)
}

// Write is Send in io.Writer shape, for code written against the old
// embedded-net.Conn API.
func (c *Conn) Write(p []byte) (int, error) {
	if err := c.Send(p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Shutdown closes the connection once. The server's OnClose handler is
// posted strictly after every already-posted OnData for this
// connection has executed (teardown is relayed through the
// connection's data color), so handler code never sees data events on
// a connection it has watched die.
func (c *Conn) Shutdown() {
	c.closeOnce.Do(func() {
		c.closed.Store(true)
		c.be.beginShutdown()
	})
}

// IsClosed reports whether Shutdown has run. Deadline-driven reapers
// use it to stop their timer chains: a timer that fires after the
// connection died simply returns instead of re-arming.
func (c *Conn) IsClosed() bool { return c.closed.Load() }

// RemoteAddr reports the peer address.
func (c *Conn) RemoteAddr() net.Addr { return c.be.remoteAddr() }

// LocalAddr reports the local address.
func (c *Conn) LocalAddr() net.Addr { return c.be.localAddr() }

// Message is the payload of an OnData event: bytes read from a
// connection. Data is owned by the receiving handler. Its backing
// array comes from the per-core read-buffer pool — call Release once
// the bytes have been consumed (copied or parsed) to recycle it;
// dropping the message without Release is safe but allocates afresh
// on a later read.
type Message struct {
	Conn *Conn
	Data []byte

	raw []byte // pooled backing array; nil once released
}

// Release returns the message's buffer to the read-buffer pool. Data
// (and any slice of it) must not be touched afterwards; the Conn field
// stays valid — handlers routinely Release after copying the bytes and
// keep using the connection. Release belongs to the single handler
// that owns the message (color serialization makes that ownership
// unambiguous); it is not safe to race from other goroutines.
func (m *Message) Release() {
	if m.raw != nil {
		putReadBuf(m.raw)
		m.raw = nil
		m.Data = nil
	}
}

// Config wires a listener to runtime handlers.
type Config struct {
	Runtime *mely.Runtime

	// OnAccept is posted for each new connection with Data *Conn,
	// under AcceptColor (the paper's Accept handler, color 1).
	OnAccept    mely.Handler
	AcceptColor mely.Color

	// OnData is posted for each read with Data *Message, under the
	// connection's color (the paper's ReadRequest handler) unless
	// DataColor overrides the choice.
	OnData mely.Handler

	// DataColor, when non-nil, picks the color OnData is posted under
	// (e.g. SFS decodes all protocol input under the default color,
	// coloring only the CPU-intensive crypto per connection). It must
	// be a pure function of the connection: the close relay uses the
	// same color to order OnClose after the last OnData.
	DataColor func(*Conn) mely.Color

	// OnClose is posted once per connection (Data *Conn) when it dies,
	// under AcceptColor (like DecClientAccepted) — always after the
	// connection's last OnData handler has executed.
	OnClose mely.Handler

	// MaxConns bounds concurrent connections; excess connections are
	// closed immediately (the paper's "maximum number of simultaneous
	// clients"). Zero means unlimited.
	MaxConns int

	// Backend picks the readiness backend (default BackendAuto).
	Backend Backend

	// PollerShards is the number of epoll reactor shards (default
	// NumCPU). Each shard is one goroutine owning one epoll instance;
	// connections are spread across shards round-robin. Ignored by the
	// pump backend.
	PollerShards int

	// The two fields below are constants to users of the package, fixed
	// by Serve; they are fields so tests can make reads small or the
	// write budget tight.
	//
	// readBufBytes caps one read (readBufSize, 16 KiB).
	readBufBytes int
	// maxPendingWriteBytes bounds one connection's pending-write queue
	// on the epoll backend (4 MiB). A connection whose peer stops
	// reading past this budget is shut down rather than buffered without
	// bound. Ignored by the pump backend (writes block there).
	maxPendingWriteBytes int
}

// Server accepts connections and feeds their activity into the runtime.
type Server struct {
	cfg     Config
	backend serverBackend
	actual  Backend

	nextID atomic.Uint64
	live   atomic.Int64

	// hCloseRelay runs under a connection's data color after its last
	// OnData and forwards the user-visible OnClose to AcceptColor.
	hCloseRelay mely.Handler
}

// Serve starts accepting on ln. It returns immediately; Close stops
// accepting, closes live connections, and waits for teardown.
func Serve(ln net.Listener, cfg Config) (*Server, error) {
	if cfg.Runtime == nil {
		return nil, errors.New("netpoll: nil runtime")
	}
	if cfg.readBufBytes <= 0 {
		cfg.readBufBytes = readBufSize
	}
	if cfg.PollerShards <= 0 {
		cfg.PollerShards = runtime.NumCPU()
	}
	if cfg.maxPendingWriteBytes <= 0 {
		cfg.maxPendingWriteBytes = 4 << 20
	}
	backend := cfg.Backend
	if backend == BackendAuto {
		if epoller.Supported && isTCP(ln) {
			backend = BackendEpoll
		} else {
			backend = BackendPumps
		}
	}
	switch backend {
	case BackendPumps:
	case BackendEpoll:
		if !epoller.Supported {
			return nil, errors.New("netpoll: epoll backend requires linux")
		}
		if !isTCP(ln) {
			return nil, fmt.Errorf("netpoll: epoll backend needs a *net.TCPListener, have %T", ln)
		}
	default:
		return nil, fmt.Errorf("netpoll: unknown backend %v", cfg.Backend)
	}

	// Handler registrations are permanent (no unregister), so they
	// happen only after every fallible step: config validation above,
	// and the epoll backend's descriptor/poller setup below.
	s := &Server{cfg: cfg, actual: backend}
	if backend == BackendEpoll {
		be, err := newEpollBackend(s, ln.(*net.TCPListener))
		if err != nil {
			return nil, err
		}
		s.hCloseRelay = cfg.Runtime.Register("netpoll.CloseRelay", s.closeRelay)
		be.start()
		s.backend = be
	} else {
		s.hCloseRelay = cfg.Runtime.Register("netpoll.CloseRelay", s.closeRelay)
		s.backend = newPumpBackend(s, ln)
	}
	return s, nil
}

func isTCP(ln net.Listener) bool {
	_, ok := ln.(*net.TCPListener)
	return ok
}

// Addr reports the listener address.
func (s *Server) Addr() net.Addr { return s.backend.addr() }

// Live reports the number of open connections.
func (s *Server) Live() int { return int(s.live.Load()) }

// Backend reports the backend actually serving (never BackendAuto).
func (s *Server) Backend() Backend { return s.actual }

// Close stops the server and waits for all connections to tear down.
func (s *Server) Close() error { return s.backend.close() }

// dataColor is the color OnData (and the close relay) is posted under.
func (s *Server) dataColor(c *Conn) mely.Color {
	if s.cfg.DataColor != nil {
		return s.cfg.DataColor(c)
	}
	return c.Color()
}

// admit applies MaxConns.
func (s *Server) admit() bool {
	return s.cfg.MaxConns <= 0 || int(s.live.Load()) < s.cfg.MaxConns
}

// newConn allocates the shared connection shell.
func (s *Server) newConn(be connBackend) *Conn {
	return &Conn{ID: s.nextID.Add(1) - 1, be: be}
}

// finishConn is called exactly once per admitted connection when it is
// fully dead (its backend will post no further OnData). It decrements
// the live count and routes the user-visible OnClose through the
// connection's data color so it executes after every posted OnData.
func (s *Server) finishConn(conn *Conn) {
	s.live.Add(-1)
	if err := s.cfg.Runtime.PostEdge(s.hCloseRelay, s.dataColor(conn), conn); err != nil {
		// Runtime stopping: try the direct post so shutdown-time
		// bookkeeping has a chance; ordering no longer matters.
		s.postOnClose(conn)
	}
}

func (s *Server) closeRelay(ctx *mely.Ctx) {
	s.postOnClose(ctx.Data().(*Conn))
}

func (s *Server) postOnClose(conn *Conn) {
	if s.cfg.OnClose != (mely.Handler{}) {
		_ = s.cfg.Runtime.PostEdge(s.cfg.OnClose, s.cfg.AcceptColor, conn)
	}
}

// postData posts one read's bytes. The raw slice is the pooled backing
// array (released back to the pool if the post fails).
func (s *Server) postData(conn *Conn, data, raw []byte) error {
	msg := &Message{Conn: conn, Data: data, raw: raw}
	if err := s.cfg.Runtime.PostEdge(s.cfg.OnData, s.dataColor(conn), msg); err != nil {
		msg.Release()
		return err
	}
	return nil
}
