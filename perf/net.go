package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"time"

	"github.com/melyruntime/mely"
	"github.com/melyruntime/mely/internal/sfs"
	"github.com/melyruntime/mely/internal/sws"
)

// All network traffic is host loopback: two client goroutines in this
// process, each with one connection, against the real server.
const (
	netClients     = 2
	swsPaths       = 16
	swsFileBytes   = 1 << 10
	swsReconnect   = 150 // sws_closed: requests per connection
	swsBurst       = 16  // sws_pipelined: requests per write
	swsOrderLen    = 4096
	sfsFileBytes   = 256 << 10
	sfsChunkBytes  = 64 << 10
	sfsReadAhead   = 4
	clientBufBytes = 64 << 10
)

// httpClient is an allocation-free HTTP/1.1 client for the server's
// prebuilt responses: it checks status, Content-Length and body bytes.
type httpClient struct {
	addr string
	conn net.Conn
	buf  []byte
	r, w int
	sent int // requests on this connection
}

func (c *httpClient) dial() error {
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		// Reset on close: a reconnecting closed loop would otherwise
		// leave a TIME_WAIT socket behind every 150 requests.
		_ = tc.SetLinger(0)
	}
	c.conn, c.r, c.w, c.sent = conn, 0, 0, 0
	return nil
}

func (c *httpClient) close() {
	if c.conn != nil {
		_ = c.conn.Close() // the loop is closed: every reply was read before this
		c.conn = nil
	}
}

var (
	errBadResponse = errors.New("response differs from the expected status, length or body")
	crlfcrlf       = []byte("\r\n\r\n")
	okStatus       = []byte("HTTP/1.1 200 ")
	lengthHeader   = []byte("Content-Length: ")
)

// fill reads more bytes, sliding unread data down when the buffer is
// full.
func (c *httpClient) fill() error {
	if c.w == len(c.buf) {
		if c.r == 0 {
			return errBadResponse // a response larger than the buffer
		}
		copy(c.buf, c.buf[c.r:c.w])
		c.w -= c.r
		c.r = 0
	}
	n, err := c.conn.Read(c.buf[c.w:])
	c.w += n
	if n > 0 {
		return nil
	}
	if err == nil {
		err = io.ErrNoProgress
	}
	return err
}

// readResponse consumes one response and compares it with want.
func (c *httpClient) readResponse(want []byte) error {
	var head int
	for {
		if i := bytes.Index(c.buf[c.r:c.w], crlfcrlf); i >= 0 {
			head = i
			break
		}
		if err := c.fill(); err != nil {
			return err
		}
	}
	hdr := c.buf[c.r : c.r+head]
	li := bytes.Index(hdr, lengthHeader)
	if !bytes.HasPrefix(hdr, okStatus) || li < 0 {
		return errBadResponse
	}
	num := hdr[li+len(lengthHeader):]
	if e := bytes.IndexByte(num, '\r'); e >= 0 {
		num = num[:e]
	}
	n := 0
	for _, d := range num {
		if d < '0' || d > '9' {
			return errBadResponse
		}
		n = n*10 + int(d-'0')
	}
	if n != len(want) {
		return errBadResponse
	}
	// fill may slide the buffer: locate the body relative to c.r.
	for c.w-c.r < head+4+n {
		if err := c.fill(); err != nil {
			return err
		}
	}
	body := c.buf[c.r+head+4 : c.r+head+4+n]
	c.r += head + 4 + n
	if c.r == c.w {
		c.r, c.w = 0, 0
	}
	if !bytes.Equal(body, want) {
		return errBadResponse
	}
	return nil
}

type swsWL struct {
	cfg       runCfg
	pipelined bool
	// addr overrides the server address (the guard test points the
	// clients at a server that corrupts its replies).
	addr string

	rt      *mely.Runtime
	srv     *sws.Server
	files   [][]byte
	reqs    [][]byte // one GET per path
	order   []int    // seeded path order, cycled
	bursts  [][]byte // pipelined: swsBurst requests per write, following order
	clients []*httpClient
	pos     []int // per client: position in order
	lat     []latBuf
	ops     int64 // since setup, to set against the server's own counter
	nreq    []uint64
}

func newSwsWL(pipelined bool, cfg runCfg) *swsWL { return &swsWL{cfg: cfg, pipelined: pipelined} }

func (w *swsWL) runtime() *mely.Runtime { return w.rt }

func (w *swsWL) setup() error {
	rng := rand.New(rand.NewSource(w.cfg.seed))
	rt, err := mely.New(w.cfg.melyConfig())
	if err != nil {
		return err
	}
	w.rt = rt
	if err := rt.Start(); err != nil {
		return err
	}
	files := make(map[string][]byte, swsPaths)
	for i := 0; i < swsPaths; i++ {
		body := make([]byte, swsFileBytes)
		rng.Read(body)
		path := "/file" + strconv.Itoa(i) + ".bin"
		files[path] = body
		w.files = append(w.files, body)
		w.reqs = append(w.reqs, []byte("GET "+path+" HTTP/1.1\r\nHost: perf\r\n\r\n"))
	}
	w.order = make([]int, swsOrderLen)
	for i := range w.order {
		w.order[i] = rng.Intn(swsPaths)
	}
	for i := 0; i+swsBurst <= len(w.order); i += swsBurst {
		var b []byte
		for _, p := range w.order[i : i+swsBurst] {
			b = append(b, w.reqs[p]...)
		}
		w.bursts = append(w.bursts, b)
	}
	addr := w.addr
	if addr == "" {
		w.srv, err = sws.New(sws.Config{Runtime: rt, Files: files, Backend: w.cfg.v.backend})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		if err := w.srv.Serve(ln); err != nil {
			_ = ln.Close() // Serve's error is the one to report
			return err
		}
		addr = w.srv.Addr().String()
	}
	w.lat = newLatBufs(netClients)
	w.pos = make([]int, netClients)
	w.nreq = make([]uint64, netClients)
	for i := 0; i < netClients; i++ {
		c := &httpClient{addr: addr, buf: make([]byte, clientBufBytes)}
		w.clients = append(w.clients, c)
		w.pos[i] = i * swsOrderLen / netClients
		if err := c.dial(); err != nil {
			return err
		}
	}
	return nil
}

func (w *swsWL) run(d time.Duration) counts {
	op := w.request
	if w.pipelined {
		op = w.burst
	}
	c := runClients(d, netClients, op)
	w.ops += c.ops
	return c
}

// fail counts n failed ops and replaces the connection, whose stream
// position is unknown after an error.
func (w *swsWL) fail(i int, c *counts, n int64) {
	c.failed += n
	w.clients[i].close()
	if err := w.clients[i].dial(); err != nil {
		time.Sleep(time.Millisecond) // the next op fails on the nil connection's redial; do not spin
	}
}

// request is one closed-loop GET: write, await the reply, compare.
func (w *swsWL) request(i int, c *counts) {
	cl := w.clients[i]
	c.attempted++
	if cl.conn == nil || cl.sent >= swsReconnect {
		cl.close()
		if err := cl.dial(); err != nil {
			w.fail(i, c, 1)
			return
		}
	}
	p := w.order[w.pos[i]]
	w.pos[i] = (w.pos[i] + 1) % len(w.order)
	tr := w.cfg.tr
	start := time.Now()
	var ts, tw int64
	if tr != nil {
		ts = tr.now()
	}
	_, err := cl.conn.Write(w.reqs[p])
	if tr != nil {
		tw = tr.now()
	}
	if err == nil {
		err = cl.readResponse(w.files[p])
	}
	if err != nil {
		w.fail(i, c, 1)
		return
	}
	cl.sent++
	w.lat[i].add(time.Since(start).Nanoseconds())
	c.ops++
	if tr != nil {
		w.traceRequest(i, ts, tw, tr.now())
	}
}

// burst is one pipelined round: swsBurst GETs in one write, then their
// replies in order.
func (w *swsWL) burst(i int, c *counts) {
	cl := w.clients[i]
	c.attempted += swsBurst
	if cl.conn == nil {
		if err := cl.dial(); err != nil {
			w.fail(i, c, swsBurst)
			return
		}
	}
	bi := w.pos[i] / swsBurst
	w.pos[i] = (w.pos[i] + swsBurst) % len(w.order)
	tr := w.cfg.tr
	start := time.Now()
	var ts, tw int64
	if tr != nil {
		ts = tr.now()
	}
	_, err := cl.conn.Write(w.bursts[bi])
	if tr != nil {
		tw = tr.now()
	}
	for k := 0; k < swsBurst && err == nil; k++ {
		err = cl.readResponse(w.files[w.order[bi*swsBurst+k]])
	}
	if err != nil {
		w.fail(i, c, swsBurst)
		return
	}
	w.lat[i].add(time.Since(start).Nanoseconds())
	c.ops += swsBurst
	if tr != nil {
		w.traceRequest(i, ts, tw, tr.now())
	}
}

func (w *swsWL) traceRequest(i int, start, written, end int64) {
	b := w.cfg.tr.client(i)
	w.nreq[i]++
	op := uint64(i)<<32 | w.nreq[i]
	root := b.add(spRequest, 0, op, start, end)
	b.add(spWrite, root, op, start, written)
	b.add(spReadWait, root, op, written, end)
}

func (w *swsWL) drainSamples(dst []int64) []int64 { return drainLat(w.lat, dst) }

func (w *swsWL) layerMetrics(m metrics, _ int64, _ time.Duration) {
	if w.srv != nil {
		m["sws.served_per_op"] = ratio(float64(w.srv.Served()), float64(w.ops))
	}
}

func (w *swsWL) finish(mely.Stats) []string { return nil }

func (w *swsWL) teardown() {
	for _, c := range w.clients {
		c.close()
	}
	if w.srv != nil {
		_ = w.srv.Close() // shutting down a loopback listener; the run's result does not depend on it
	}
	if w.rt != nil {
		w.rt.Stop()
	}
}

// sfs_read: two sfs.Client connections each reading the whole file in a
// closed loop; the client MAC-verifies and decrypts every chunk, and the
// bytes are compared with the file.
type sfsWL struct {
	cfg     runCfg
	rt      *mely.Runtime
	srv     *sfs.Server
	file    []byte
	psk     []byte
	clients []*sfs.Client
	lat     []latBuf
	nreq    []uint64
}

func newSfsWL(cfg runCfg) *sfsWL { return &sfsWL{cfg: cfg} }

func (w *sfsWL) runtime() *mely.Runtime { return w.rt }

func (w *sfsWL) setup() error {
	rng := rand.New(rand.NewSource(w.cfg.seed))
	rt, err := mely.New(w.cfg.melyConfig())
	if err != nil {
		return err
	}
	w.rt = rt
	if err := rt.Start(); err != nil {
		return err
	}
	w.file = make([]byte, sfsFileBytes)
	rng.Read(w.file)
	w.psk = make([]byte, 32)
	rng.Read(w.psk)
	w.srv, err = sfs.NewServer(sfs.ServerConfig{Runtime: rt, Files: map[string][]byte{"/data": w.file}, PSK: w.psk})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	if err := w.srv.Serve(ln); err != nil {
		_ = ln.Close() // Serve's error is the one to report
		return err
	}
	w.lat = newLatBufs(netClients)
	w.nreq = make([]uint64, netClients)
	w.clients = make([]*sfs.Client, netClients)
	for i := range w.clients {
		if err := w.dial(i); err != nil {
			return err
		}
	}
	return nil
}

func (w *sfsWL) dial(i int) error {
	c, err := sfs.Dial(w.srv.Addr().String(), w.psk)
	if err != nil {
		return err
	}
	c.SetChunk(sfsChunkBytes)
	c.SetReadAhead(sfsReadAhead)
	w.clients[i] = c
	return nil
}

func (w *sfsWL) run(d time.Duration) counts { return runClients(d, netClients, w.read) }

func (w *sfsWL) read(i int, c *counts) {
	c.attempted++
	if w.clients[i] == nil {
		if err := w.dial(i); err != nil {
			c.failed++
			time.Sleep(time.Millisecond)
			return
		}
	}
	tr := w.cfg.tr
	var ts int64
	if tr != nil {
		ts = tr.now()
	}
	start := time.Now()
	data, err := w.clients[i].ReadFile("/data", len(w.file))
	if err != nil || !bytes.Equal(data, w.file) {
		c.failed++
		_ = w.clients[i].Close() // the stream position is unknown after an error; the failure is already counted
		w.clients[i] = nil
		return
	}
	w.lat[i].add(time.Since(start).Nanoseconds())
	c.ops++
	if tr != nil {
		w.nreq[i]++
		tr.client(i).add(spRequest, 0, uint64(i)<<32|w.nreq[i], ts, tr.now())
	}
}

func (w *sfsWL) drainSamples(dst []int64) []int64 { return drainLat(w.lat, dst) }

func (w *sfsWL) layerMetrics(m metrics, ops int64, wall time.Duration) {
	m["sfs.mb_per_s"] = float64(ops) * sfsFileBytes / (1 << 20) / wall.Seconds()
	m["sfs.shed"] = float64(w.srv.Shed())
}

func (w *sfsWL) finish(mely.Stats) []string {
	if w.srv.Shed() != 0 {
		return []string{fmt.Sprintf("server shed %d reads on an unbounded runtime", w.srv.Shed())}
	}
	return nil
}

func (w *sfsWL) teardown() {
	for _, c := range w.clients {
		if c != nil {
			_ = c.Close() // closing an idle loopback connection at the end of the run
		}
	}
	if w.srv != nil {
		_ = w.srv.Close() // as above
	}
	if w.rt != nil {
		w.rt.Stop()
	}
}
