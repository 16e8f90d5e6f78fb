// Package loadgen is the closed-loop load injector of section V-C1: a
// set of virtual HTTP clients, each repeatedly connecting to the server
// and requesting a fixed number of files per connection, with a master
// that starts the clients together and collects their results. The
// simulator has its own client models (swsmodel/sfsmodel); this one
// drives the real servers (cmd/swsload).
package loadgen

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// HTTPConfig parameterizes an injection run.
type HTTPConfig struct {
	// Addr is the server's host:port.
	Addr string
	// Clients is the number of concurrent virtual clients.
	Clients int
	// RequestsPerConn is how many files each client requests before
	// reconnecting (the paper uses 150).
	RequestsPerConn int
	// Paths are requested round-robin (default "/").
	Paths []string
	// Duration bounds the run.
	Duration time.Duration
	// DialTimeout bounds one connection attempt.
	DialTimeout time.Duration
	// ThinkTime pauses each virtual client between requests, modeling
	// the idle periods of a real user session (and exercising server
	// idle-timeout paths). Zero keeps the classic closed loop that
	// hammers as fast as responses return.
	ThinkTime time.Duration
	// ThinkJitter adds a uniform random [0, ThinkJitter) on top of each
	// pause, de-synchronizing the clients so think times don't beat in
	// lockstep.
	ThinkJitter time.Duration
	// IdleConns opens this many extra connections that send nothing for
	// the whole run — the C10K shape, where the vast majority of
	// connections are idle at any instant and only readiness-driven
	// backends stay cheap. Idle holders count toward Connects but issue
	// no requests; a server that reaps or refuses them does not fail
	// the run.
	IdleConns int
	// Burst switches each client into open-loop burst mode: instead of
	// the classic one-request-await-response closed loop, the client
	// writes Burst pipelined requests in one gulp (offered load is not
	// gated on the server keeping up — the overload shape), then reads
	// the responses, pauses BurstPause, and repeats. This is how the
	// runtime's queue bounds are exercised from the CLI: a burst of B
	// requests from C clients lands B*C events on the server at once,
	// regardless of service rate. 0 keeps the closed loop.
	Burst int
	// BurstPause is the pause between one client's bursts (0 =
	// back-to-back bursts).
	BurstPause time.Duration
	// TrackLatency records per-request latencies and reports the P50
	// and P99 percentiles in the Result — the measurement the scenario
	// harness's SLO blocks gate on. In burst mode a response's latency
	// is measured from its burst's write, the offered-load view. Off
	// by default: the sample buffer costs memory at injection rates.
	TrackLatency bool
}

func (c *HTTPConfig) defaults() error {
	if c.Addr == "" {
		return errors.New("loadgen: no server address")
	}
	if c.Clients <= 0 {
		c.Clients = 1
	}
	if c.RequestsPerConn <= 0 {
		c.RequestsPerConn = 150
	}
	if len(c.Paths) == 0 {
		c.Paths = []string{"/"}
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.ThinkTime < 0 || c.ThinkJitter < 0 {
		return errors.New("loadgen: negative think time")
	}
	if c.IdleConns < 0 {
		return errors.New("loadgen: negative idle connection count")
	}
	if c.Burst < 0 || c.BurstPause < 0 {
		return errors.New("loadgen: negative burst parameters")
	}
	return nil
}

// Result aggregates an injection run.
type Result struct {
	Requests    int64
	Errors      int64
	Connects    int64
	BytesRead   int64
	Elapsed     time.Duration
	KRequestsPS float64
	// LatencyP50/LatencyP99 are request-latency percentiles, populated
	// only when HTTPConfig.TrackLatency is set (zero otherwise).
	LatencyP50 time.Duration
	LatencyP99 time.Duration
}

// latencySampleCap bounds the per-run latency buffer: at typical
// injection rates a measurement phase stays well under it, and a
// pathological run degrades to a prefix sample instead of unbounded
// memory.
const latencySampleCap = 1 << 20

// LatencyRecorder accumulates request latencies across the client
// goroutines of one load run, up to latencySampleCap samples. The zero
// value is ready; a nil recorder drops what it is given.
type LatencyRecorder struct {
	mu      sync.Mutex
	samples []time.Duration
}

// Add appends one client's batch of samples.
func (l *LatencyRecorder) Add(batch []time.Duration) {
	if l == nil || len(batch) == 0 {
		return
	}
	l.mu.Lock()
	if room := latencySampleCap - len(l.samples); room > 0 {
		if len(batch) > room {
			batch = batch[:room]
		}
		l.samples = append(l.samples, batch...)
	}
	l.mu.Unlock()
}

// Percentiles returns the P50 and P99 of the recorded samples (zero
// when there are none). Call it once every client has finished.
func (l *LatencyRecorder) Percentiles() (p50, p99 time.Duration) {
	if len(l.samples) == 0 {
		return 0, 0
	}
	sort.Slice(l.samples, func(i, j int) bool { return l.samples[i] < l.samples[j] })
	at := func(p float64) time.Duration {
		idx := int(float64(len(l.samples))*p/100) - 1
		return l.samples[min(max(idx, 0), len(l.samples)-1)]
	}
	return at(50), at(99)
}

// RunHTTP runs the closed-loop injection and aggregates the results.
func RunHTTP(ctx context.Context, cfg HTTPConfig) (Result, error) {
	if err := cfg.defaults(); err != nil {
		return Result{}, err
	}
	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	// The context's Err() flips only when its timer goroutine fires, but
	// dials and reads fail against the deadline *timestamp*; in between,
	// a closed-loop client would spin counting spurious errors. Gate the
	// loop and the error accounting on the wall clock as well.
	deadline, _ := runCtx.Deadline()

	var (
		requests, errCount, connects, bytesRead atomic.Int64
		wg                                      sync.WaitGroup
		start                                   = make(chan struct{})
		lat                                     *LatencyRecorder
	)
	if cfg.TrackLatency {
		lat = &LatencyRecorder{}
	}
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			<-start // master-synchronized start
			for runCtx.Err() == nil && time.Now().Before(deadline) {
				n, b, err := runConnection(runCtx, cfg, id, lat)
				requests.Add(n)
				bytesRead.Add(b)
				connects.Add(1)
				if err != nil && runCtx.Err() == nil && time.Now().Before(deadline) {
					errCount.Add(1)
				}
			}
		}(i)
	}
	// Idle holders: one goroutine dials the silent connections in
	// sequence (local dials are cheap; the point is the held-open
	// population, not dial concurrency) and keeps them open until the
	// deadline.
	if cfg.IdleConns > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			holdIdleConns(runCtx, cfg, &connects)
		}()
	}
	began := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(began)

	res := Result{
		Requests:  requests.Load(),
		Errors:    errCount.Load(),
		Connects:  connects.Load(),
		BytesRead: bytesRead.Load(),
		Elapsed:   elapsed,
	}
	if elapsed > 0 {
		res.KRequestsPS = float64(res.Requests) / elapsed.Seconds() / 1000
	}
	if lat != nil {
		res.LatencyP50, res.LatencyP99 = lat.Percentiles()
	}
	return res, nil
}

// holdIdleConns opens cfg.IdleConns silent connections and keeps them
// open until the context ends. Dial failures (e.g. the server's
// MaxClients refusing us) are tolerated: the point is offered idle
// load, not a guarantee.
func holdIdleConns(ctx context.Context, cfg HTTPConfig, connects *atomic.Int64) {
	d := net.Dialer{Timeout: cfg.DialTimeout}
	conns := make([]net.Conn, 0, cfg.IdleConns)
	defer func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}()
	for i := 0; i < cfg.IdleConns && ctx.Err() == nil; i++ {
		conn, err := d.DialContext(ctx, "tcp", cfg.Addr)
		if err != nil {
			continue
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetLinger(0) // see runConnection: avoid TIME_WAIT pileup
		}
		conns = append(conns, conn)
		connects.Add(1)
	}
	<-ctx.Done()
}

// runConnection performs up to RequestsPerConn requests on one
// connection, returning the number completed and bytes read.
func runConnection(ctx context.Context, cfg HTTPConfig, id int, lat *LatencyRecorder) (int64, int64, error) {
	d := net.Dialer{Timeout: cfg.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", cfg.Addr)
	if err != nil {
		return 0, 0, err
	}
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		// The client side initiates every close, so each reconnect cycle
		// would leave a TIME_WAIT socket; at injection rates that
		// exhausts the ephemeral port range within seconds and every
		// later dial fails. Linger 0 closes with RST instead.
		_ = tc.SetLinger(0)
	}
	if deadline, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(deadline)
	}
	br := bufio.NewReader(conn)
	if cfg.Burst > 0 {
		return runBurstConnection(ctx, cfg, conn, br, id, lat)
	}
	var done, read int64
	var samples []time.Duration
	if lat != nil {
		defer func() { lat.Add(samples) }()
	}
	for i := 0; i < cfg.RequestsPerConn; i++ {
		if ctx.Err() != nil {
			return done, read, nil
		}
		path := cfg.Paths[(id+i)%len(cfg.Paths)]
		sent := time.Now()
		if _, err := fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: load\r\n\r\n", path); err != nil {
			return done, read, err
		}
		n, err := readResponse(br)
		read += n
		if err != nil {
			return done, read, err
		}
		done++
		if lat != nil {
			samples = append(samples, time.Since(sent))
		}
		if pause := thinkPause(cfg); pause > 0 && i+1 < cfg.RequestsPerConn {
			// Think on the open connection (the idle-timeout shape),
			// but never sleep past the run deadline.
			if deadline, ok := ctx.Deadline(); ok {
				if remain := time.Until(deadline); pause >= remain {
					time.Sleep(max(remain, 0))
					return done, read, nil
				}
			}
			time.Sleep(pause)
		}
	}
	return done, read, nil
}

// runBurstConnection is the open-loop leg of runConnection: write a
// whole burst of pipelined requests at once (offered load decoupled
// from service rate), then collect the responses, pause, repeat until
// RequestsPerConn requests have been issued. A server shedding load
// (503) still answers each request, so the response loop stays in
// lockstep with the burst size.
func runBurstConnection(ctx context.Context, cfg HTTPConfig, conn net.Conn, br *bufio.Reader, id int, lat *LatencyRecorder) (int64, int64, error) {
	var done, read int64
	issued := 0
	var req bytes.Buffer
	var samples []time.Duration
	if lat != nil {
		defer func() { lat.Add(samples) }()
	}
	for issued < cfg.RequestsPerConn {
		if ctx.Err() != nil {
			return done, read, nil
		}
		burst := cfg.Burst
		if rem := cfg.RequestsPerConn - issued; burst > rem {
			burst = rem
		}
		req.Reset()
		for i := 0; i < burst; i++ {
			path := cfg.Paths[(id+issued+i)%len(cfg.Paths)]
			fmt.Fprintf(&req, "GET %s HTTP/1.1\r\nHost: load\r\n\r\n", path)
		}
		sent := time.Now()
		if _, err := conn.Write(req.Bytes()); err != nil {
			return done, read, err
		}
		issued += burst
		for i := 0; i < burst; i++ {
			n, err := readResponse(br)
			read += n
			if err != nil {
				return done, read, err
			}
			done++
			if lat != nil {
				samples = append(samples, time.Since(sent))
			}
		}
		if cfg.BurstPause > 0 && issued < cfg.RequestsPerConn {
			if deadline, ok := ctx.Deadline(); ok {
				if remain := time.Until(deadline); cfg.BurstPause >= remain {
					time.Sleep(max(remain, 0))
					return done, read, nil
				}
			}
			time.Sleep(cfg.BurstPause)
		}
	}
	return done, read, nil
}

// thinkPause draws one between-requests pause from the configured think
// time and jitter.
func thinkPause(cfg HTTPConfig) time.Duration {
	pause := cfg.ThinkTime
	if cfg.ThinkJitter > 0 {
		pause += time.Duration(rand.Int63n(int64(cfg.ThinkJitter)))
	}
	return pause
}

// readResponse consumes one HTTP response, returning its size.
func readResponse(br *bufio.Reader) (int64, error) {
	var total int64
	length := -1
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return total, err
		}
		total += int64(len(line))
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			break
		}
		if v, ok := strings.CutPrefix(strings.ToLower(trimmed), "content-length:"); ok {
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%d", &length); err != nil {
				return total, fmt.Errorf("loadgen: bad content length %q", v)
			}
		}
	}
	if length < 0 {
		return total, errors.New("loadgen: response without content length")
	}
	n, err := io.CopyN(io.Discard, br, int64(length))
	return total + n, err
}
