// Package sws is the real counterpart of the paper's SWS Web server
// (section V-C1): a static-content server supporting a subset of
// HTTP/1.1, with responses prebuilt at startup (an optimization the
// paper borrows from Flash) and error handling.
//
// The handler graph mirrors Figure 6 on the mely runtime:
//
//	readiness    -> Accept        (color 1: admission bookkeeping)
//	readiness    -> ReadRequest   (connection color)
//	             -> ParseRequest  (connection color)
//	             -> CheckInCache  (connection color)
//	             -> WriteResponse (connection color)
//	close        -> DecAccepted   (color 1)
//
// Readiness comes from internal/netpoll: on Linux its epoll backend
// plays exactly the role of Figure 6's Epoll/RegisterFdInEpoll
// handlers — reactor shards harvest raw epoll events and post them as
// colored events — and elsewhere the portable pump backend substitutes
// goroutines (Config.Backend selects). Requests from distinct clients
// are colored by connection, so they are served concurrently; the
// Accept-side bookkeeping serializes under one color, exactly as in
// the paper. Responses go out through Conn.Send, so a slow reader's
// backpressure queues bytes per connection instead of blocking a
// worker.
//
// Two rules hold per connection. Order: every response — 200, 404,
// 400, 503 — leaves in request order. A response ParseRequest decides
// itself (400 for a bad request, 503 under ShedOverload) is answered
// in place only when no earlier response of the connection is still on
// its way to WriteResponse (connState.inflight); otherwise it takes the
// same two hops behind them. A request that closes the connection ends
// the parsing: nothing after it is answered.
//
// One write per read: ParseRequest posts each request one step behind
// its parse, marked more when the next complete request of the same
// read has been parsed. WriteResponse appends a more response's
// prebuilt slice to the connection's gather (no byte is copied) and the
// first response without more sends the lot with one Conn.Sendv — one
// writev(2) for a pipelined burst instead of one write(2) per reply. A
// read holding one request never touches the gather: its response is a
// plain Send. A held response always has a flusher, because (1) more is
// set only after the next request of the pass exists, and each pass
// ends by releasing its last request without more, and (2) the
// connection's color is FIFO, so that last response reaches
// WriteResponse after every response marked more before it. (A pass cut
// short by a failed post shuts the connection down, which needs no
// flush.) The gather is also sent whenever it reaches 64 slices or
// 64 KiB.
package sws

import (
	"bytes"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/melyruntime/mely"
	"github.com/melyruntime/mely/internal/netpoll"
)

// Config configures the server.
type Config struct {
	Runtime *mely.Runtime
	// Files maps URL paths ("/index.html") to contents. Responses are
	// prebuilt for every entry at startup.
	Files map[string][]byte
	// MaxClients bounds simultaneous connections (0 = unlimited).
	MaxClients int
	// IdleTimeout reaps connections that stay silent for this long
	// (0 = never). The reaper is a color-serialized runtime timer per
	// connection (PostAfter under the connection's color), so it reads
	// the connection's parser state with no locks: the timeout handler
	// is serialized with the request handlers by construction.
	IdleTimeout time.Duration
	// Backend picks the netpoll readiness backend (default auto: epoll
	// on Linux, pumps elsewhere).
	Backend netpoll.Backend
	// PollerShards is the epoll backend's reactor count (default
	// NumCPU).
	PollerShards int
	// ShedOverload answers requests with 503 Service Unavailable while
	// the runtime is saturated (mely.Runtime.Saturated) instead of
	// queuing more pipeline work — HTTP-layer load shedding on top of
	// the runtime's queue bounds. Only meaningful on a bounded runtime;
	// netpoll's read backpressure still applies underneath (a client
	// flooding one connection is paused, a polite client is shed).
	ShedOverload bool
	// Stall and StallEvery are the scenario harness's slow-handler
	// fault injection: every StallEvery-th request sleeps Stall inside
	// CheckInCache, occupying that core and color as a stuck backend
	// call (a blocking disk read, a lock hiccup) would. Zero disables;
	// production paths never set these.
	Stall      time.Duration
	StallEvery int
}

// Server is a running SWS instance.
type Server struct {
	rt          *mely.Runtime
	built       map[string][]byte
	notFound    []byte
	badRequest  []byte
	unavailable []byte
	maxClients  int

	hAccept, hRead, hParse, hCache, hWrite, hDec, hIdle mely.Handler

	srv          *netpoll.Server
	idleTimeout  time.Duration
	backend      netpoll.Backend
	pollerShards int
	shedOverload bool
	stall        time.Duration
	stallEvery   int64
	stallCount   atomic.Int64

	accepted     atomic.Int64 // Figure 6's client count, kept by Accept and DecClientAccepted
	served       atomic.Int64
	idleClosed   atomic.Int64
	overloadShed atomic.Int64

	// trace, when non-nil, observes each connection's logical handler
	// events (accept, request, respond, flush n — a gathered write of n
	// responses — idle-reap, dec). It is test
	// instrumentation — the backend parity suite asserts that the pump
	// and epoll backends produce identical traces — and must be set
	// before Serve.
	trace func(conn *netpoll.Conn, event string)
}

// traceEvent reports one logical event to the test trace hook.
func (s *Server) traceEvent(conn *netpoll.Conn, event string) {
	if s.trace != nil {
		s.trace(conn, event)
	}
}

// connState accumulates request bytes per connection (partial reads).
// It is touched only by handlers of the connection's color, so the
// fields — including the idle-reaper bookkeeping — need no locks.
type connState struct {
	conn *netpoll.Conn
	buf  bytes.Buffer
	// lastActivity is the last time request bytes arrived from the
	// client; the idle reaper compares it against IdleTimeout.
	lastActivity time.Time
	// inflight counts responses posted down the chain and not yet at
	// WriteResponse; a 400 or 503 may be answered in place only at zero.
	inflight int
	// closing is set by the request that closes the connection (bad,
	// HTTP/1.0, Connection: close): nothing after it is parsed.
	closing bool
	// gather holds the prebuilt responses of the current read's earlier
	// requests (respondJob.more) until the read's last response sends
	// them all with one Sendv; gatherBytes is their total length and
	// gatherServed how many of them Served has counted.
	gather       [][]byte
	gatherBytes  int
	gatherServed int64
}

// A gather is sent early once it holds this much: 64 slices is one
// writev(2) on the epoll backend, and 64 KiB bounds what a connection
// holds back while the rest of its read is still in the pipeline.
const (
	maxGatherSlices = 64
	maxGatherBytes  = 64 << 10
)

// parseJob carries a message through the request pipeline. The parser
// releases the message's pooled buffer once its bytes are copied into
// the connection's accumulation buffer.
type parseJob struct {
	state *connState
	msg   *netpoll.Message
}

// respondJob is one response on its way to the client: path names the
// file to look up, unless pre says the response is already decided.
type respondJob struct {
	state *connState
	path  string
	pre   preResolved
	close bool
	// more says a later response of the same read follows this one down
	// the chain, so this one may wait in the gather for it.
	more bool
}

// preResolved marks a response parseRequest decided on its own.
type preResolved uint8

const (
	preNone        preResolved = iota
	preBadRequest              // 400
	preUnavailable             // 503, shed under overload
)

// New builds the server and registers its handlers.
func New(cfg Config) (*Server, error) {
	if cfg.Runtime == nil {
		return nil, fmt.Errorf("sws: nil runtime")
	}
	s := &Server{rt: cfg.Runtime, built: make(map[string][]byte, len(cfg.Files))}
	// Prebuild responses (sorted for deterministic startup).
	paths := make([]string, 0, len(cfg.Files))
	for p := range cfg.Files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		s.built[p] = buildResponse(200, "OK", cfg.Files[p])
	}
	s.notFound = buildResponse(404, "Not Found", []byte("not found\n"))
	s.badRequest = buildResponse(400, "Bad Request", []byte("bad request\n"))
	s.unavailable = buildResponse(503, "Service Unavailable", []byte("overloaded\n"))

	// Figure 6's handler graph, plus the idle reaper.
	s.hWrite = s.rt.Register("WriteResponse", s.writeResponse)
	s.hCache = s.rt.Register("CheckInCache", s.checkInCache)
	s.hParse = s.rt.Register("ParseRequest", s.parseRequest)
	s.hRead = s.rt.Register("ReadRequest", s.readRequest)
	s.hIdle = s.rt.Register("IdleTimeout", s.idleTimeoutFired)
	s.hAccept = s.rt.Register("Accept", func(ctx *mely.Ctx) {
		s.accepted.Add(1)
		s.traceEvent(ctx.Data().(*netpoll.Conn), "accept")
		if s.idleTimeout > 0 {
			// Arm the reaper under the connection's color: its firings
			// serialize with this connection's request handlers. The
			// handle is deliberately dropped — the chain terminates
			// itself when it finds the connection closed, which costs at
			// most one stale firing instead of a cross-color cancel
			// registry.
			conn := ctx.Data().(*netpoll.Conn)
			_, _ = ctx.PostAfter(s.hIdle, conn.Color(), s.idleTimeout, conn)
		}
	})
	s.hDec = s.rt.Register("DecClientAccepted", func(ctx *mely.Ctx) {
		s.accepted.Add(-1)
		s.traceEvent(ctx.Data().(*netpoll.Conn), "dec")
	})
	s.maxClients = cfg.MaxClients
	s.idleTimeout = cfg.IdleTimeout
	s.backend = cfg.Backend
	s.pollerShards = cfg.PollerShards
	s.shedOverload = cfg.ShedOverload
	if cfg.Stall > 0 && cfg.StallEvery > 0 {
		s.stall = cfg.Stall
		s.stallEvery = int64(cfg.StallEvery)
	}
	return s, nil
}

// idleTimeoutFired runs under the connection's color. If the connection
// produced no complete request for IdleTimeout it is reaped; otherwise
// the reaper re-arms for the remaining budget. Reading lastActivity
// needs no lock: this handler and parseRequest share the connection's
// color, so they never run concurrently.
func (s *Server) idleTimeoutFired(ctx *mely.Ctx) {
	conn := ctx.Data().(*netpoll.Conn)
	if conn.IsClosed() {
		return // the chain dies with the connection
	}
	st := connStateOf(conn)
	if !st.lastActivity.IsZero() {
		if idle := time.Since(st.lastActivity); idle < s.idleTimeout {
			_, _ = ctx.PostAfter(s.hIdle, ctx.Color(), s.idleTimeout-idle, conn)
			return
		}
	}
	// Silent since accept (or since its last request) for a full
	// timeout: reap.
	s.idleClosed.Add(1)
	s.traceEvent(conn, "idle-reap")
	conn.Shutdown()
}

// Serve starts accepting on ln (non-blocking). Close shuts down.
func (s *Server) Serve(ln net.Listener) error {
	srv, err := netpoll.Serve(ln, netpoll.Config{
		Runtime:      s.rt,
		OnAccept:     s.hAccept,
		AcceptColor:  1,
		OnData:       s.hRead,
		OnClose:      s.hDec,
		MaxConns:     s.maxClients,
		Backend:      s.backend,
		PollerShards: s.pollerShards,
	})
	if err != nil {
		return err
	}
	s.srv = srv
	return nil
}

// readRequest receives raw bytes from the read pump and forwards them
// to the parser with the connection's state attached.
func (s *Server) readRequest(ctx *mely.Ctx) {
	msg := ctx.Data().(*netpoll.Message)
	st := connStateOf(msg.Conn)
	if err := ctx.Post(s.hParse, msg.Conn.Color(), &parseJob{state: st, msg: msg}); err != nil {
		msg.Release()
		msg.Conn.Shutdown()
	}
}

// connStateOf returns the per-connection parser state. It is stored on
// the connection itself so only handlers of that connection's color
// touch it (colors serialize, so no lock is needed).
func connStateOf(c *netpoll.Conn) *connState {
	if st, ok := c.UserData.(*connState); ok {
		return st
	}
	st := &connState{conn: c}
	c.UserData = st
	return st
}

// parseRequest accumulates bytes and extracts complete HTTP requests.
// Each request's job is released one step behind its parse: with
// more=true once the next complete request of this read has been
// parsed, with more=false at the end of the pass. So more is a fact,
// and every response held back in the gather is followed, under this
// colour, by the response that sends it.
func (s *Server) parseRequest(ctx *mely.Ctx) {
	job := ctx.Data().(*parseJob)
	st := job.state
	if st.closing {
		job.msg.Release() // a closing request has been seen: the rest is not answered
		return
	}
	st.buf.Write(job.msg.Data)
	job.msg.Release()            // bytes copied; recycle the read buffer
	st.lastActivity = time.Now() // color-serialized with the idle reaper
	var held *respondJob         // parsed, not yet released
	for !st.closing {
		raw := st.buf.Bytes()
		end := bytes.Index(raw, []byte("\r\n\r\n"))
		if end < 0 {
			break
		}
		head := raw[:end]
		st.buf.Next(end + 4)

		path, keepAlive, ok := parseHead(head)
		next := &respondJob{state: st, path: path, close: !keepAlive}
		switch {
		case !ok:
			s.traceEvent(st.conn, "bad-request")
			next.pre, next.close = preBadRequest, true
		case s.shedOverload && s.rt.Saturated(ctx.Color()):
			// HTTP-layer load shedding: a 503 instead of a lookup. With
			// nothing of this connection in the pipeline it is answered
			// right here, so the overload sheds work instead of adding it.
			s.overloadShed.Add(1)
			s.traceEvent(st.conn, "shed")
			next.pre = preUnavailable
		case s.trace != nil: // guard: the concatenation must not cost the hot path
			s.trace(st.conn, "request "+path)
		}
		if held != nil && !s.release(ctx, held, true) {
			return
		}
		held = next
		st.closing = next.close
	}
	if held != nil && !s.release(ctx, held, false) {
		return
	}
	if st.closing {
		st.buf.Reset()
	} else if st.buf.Len() > 64<<10 {
		st.conn.Shutdown() // oversized request head
	}
}

// release sends a parsed request on: down Figure 6's chain, or — a
// pre-resolved response with no earlier response of its connection
// still in the chain to overtake — answered in place. It reports false
// after shutting the connection down because the post failed.
func (s *Server) release(ctx *mely.Ctx, job *respondJob, more bool) bool {
	st := job.state
	job.more = more
	if job.pre != preNone && st.inflight == 0 {
		s.respond(job)
		return true
	}
	st.inflight++
	if err := ctx.Post(s.hCache, ctx.Color(), job); err != nil {
		st.conn.Shutdown()
		return false
	}
	return true
}

// checkInCache resolves the prebuilt response.
func (s *Server) checkInCache(ctx *mely.Ctx) {
	if s.stallEvery > 0 && s.stallCount.Add(1)%s.stallEvery == 0 {
		time.Sleep(s.stall) // injected slow-handler fault
	}
	job := ctx.Data().(*respondJob)
	if err := ctx.Post(s.hWrite, ctx.Color(), job); err != nil {
		job.state.conn.Shutdown()
	}
}

// writeResponse sends the prebuilt bytes.
func (s *Server) writeResponse(ctx *mely.Ctx) {
	job := ctx.Data().(*respondJob)
	job.state.inflight--
	s.respond(job)
}

// respond writes job's response, or holds it for the write that ends
// its read. Responses of one connection reach it in request order.
func (s *Server) respond(job *respondJob) {
	st := job.state
	var resp []byte
	status := "200"
	switch job.pre {
	case preBadRequest:
		resp, status = s.badRequest, "400"
	case preUnavailable:
		resp, status = s.unavailable, "503"
	default:
		if built, ok := s.built[job.path]; ok {
			resp = built
		} else {
			resp, status = s.notFound, "404"
		}
	}
	if s.trace != nil { // guard: the concatenation must not cost the hot path
		s.trace(st.conn, "respond "+status)
	}
	// Counted before the write and taken back if it fails: a client
	// holding reply n must never read Served() < n. (A shed 503 counts
	// in OverloadShed instead.)
	var served int64
	if job.pre != preUnavailable {
		served = 1
		s.served.Add(1)
	}
	var err error
	if job.more || len(st.gather) > 0 {
		st.gather = append(st.gather, resp)
		st.gatherBytes += len(resp)
		st.gatherServed += served
		if job.more && len(st.gather) < maxGatherSlices && st.gatherBytes < maxGatherBytes {
			return // a later response of this read sends it
		}
		served = st.gatherServed
		err = s.flush(st)
	} else {
		// The only response of its read. Send writes through the netpoll
		// backend: on epoll, bytes the kernel buffer rejects queue per
		// connection and drain on EPOLLOUT under this same color — a slow
		// reader exerts backpressure without blocking the worker.
		err = st.conn.Send(resp)
	}
	if err != nil {
		s.served.Add(-served)
		st.conn.Shutdown()
		return
	}
	if job.close {
		st.conn.Shutdown()
	}
}

// flush sends the gathered responses with one Sendv (same backpressure
// as Send) and empties the gather, keeping the slice of slices for the
// next burst (what its stale elements point at is the server's prebuilt
// responses, which outlive the connection anyway).
func (s *Server) flush(st *connState) error {
	if s.trace != nil {
		s.trace(st.conn, "flush "+strconv.Itoa(len(st.gather)))
	}
	err := st.conn.Sendv(st.gather)
	st.gather, st.gatherBytes, st.gatherServed = st.gather[:0], 0, 0
	return err
}

// Served reports the number of responses written.
func (s *Server) Served() int64 { return s.served.Load() }

// IdleClosed reports the number of connections reaped by IdleTimeout.
func (s *Server) IdleClosed() int64 { return s.idleClosed.Load() }

// OverloadShed reports the number of requests answered 503 by the
// ShedOverload load shedder.
func (s *Server) OverloadShed() int64 { return s.overloadShed.Load() }

// Addr reports the listen address (valid after Serve).
func (s *Server) Addr() net.Addr { return s.srv.Addr() }

// NetBackend reports the netpoll backend actually serving (valid after
// Serve; never BackendAuto).
func (s *Server) NetBackend() netpoll.Backend { return s.srv.Backend() }

// Close stops accepting and closes all connections.
func (s *Server) Close() error { return s.srv.Close() }

var (
	crlf       = []byte("\r\n")
	connection = []byte("Connection")
	closeToken = []byte("close")
	keepToken  = []byte("keep-alive")
)

// parseHead parses an HTTP/1.x request head (request line + headers),
// scanning it in place: the path string is its only allocation.
func parseHead(head []byte) (path string, keepAlive, ok bool) {
	line, headers, _ := bytes.Cut(head, crlf)
	method, rest, _ := bytes.Cut(line, []byte(" "))
	target, version, found := bytes.Cut(rest, []byte(" "))
	if !found || len(target) == 0 || string(method) != "GET" {
		return "", false, false // an empty target is what a doubled space parses to
	}
	path = string(target)
	keepAlive = string(version) == "HTTP/1.1" // 1.1 default: persistent
	for len(headers) > 0 {
		line, headers, _ = bytes.Cut(headers, crlf)
		k, v, found := bytes.Cut(line, []byte(":"))
		if !found || !bytes.EqualFold(bytes.TrimSpace(k), connection) {
			continue
		}
		switch v = bytes.TrimSpace(v); {
		case bytes.EqualFold(v, closeToken):
			keepAlive = false
		case bytes.EqualFold(v, keepToken):
			keepAlive = true
		}
	}
	return path, keepAlive, true
}

// buildResponse prebuilds a full HTTP response.
func buildResponse(code int, status string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "HTTP/1.1 %d %s\r\n", code, status)
	b.WriteString("Server: sws/mely\r\n")
	b.WriteString("Content-Type: application/octet-stream\r\n")
	b.WriteString("Content-Length: " + strconv.Itoa(len(body)) + "\r\n")
	b.WriteString("\r\n")
	b.Write(body)
	return b.Bytes()
}
