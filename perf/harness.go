package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/melyruntime/mely"
	"github.com/melyruntime/mely/internal/netpoll"
)

// cores is the load sizing of every workload: the sandbox has 2 vCPUs.
const cores = 2

// variant selects the few non-default configurations the cross-run
// layer rows need; the zero value is what users ship.
type variant struct {
	policy  mely.Policy     // 0 = default (PolicyMelyWS)
	obsOff  bool            // ObsSampleRate: -1, TraceRing: -1
	backend netpoll.Backend // 0 = auto (epoll on Linux)
}

// runCfg is what a workload is built from. The program under test sees
// only inputs generated from seed.
type runCfg struct {
	seed int64
	v    variant
	tr   *tracer // nil except in the traced pass
}

func (c runCfg) melyConfig() mely.Config {
	cfg := mely.Config{Cores: cores, Policy: c.v.policy}
	if c.v.obsOff {
		cfg.ObsSampleRate, cfg.TraceRing = -1, -1
	}
	return cfg
}

// counts is what one window did. attempted counts ops started, failed
// the ones that errored, were refused, or produced a wrong output.
type counts struct{ ops, attempted, failed int64 }

func (c *counts) add(o counts) {
	c.ops += o.ops
	c.attempted += o.attempted
	c.failed += o.failed
}

// workload is one live load against the real runtime or servers.
type workload interface {
	// setup builds everything up to the point where the first op can
	// be issued (runtime started, server listening, clients connected).
	setup() error
	// run issues ops for about d, blocking until the last one issued
	// has completed, and appends latency samples to the sample buffers.
	run(d time.Duration) counts
	// drainSamples appends the latency samples (ns) recorded since the
	// last call to dst and resets the buffers.
	drainSamples(dst []int64) []int64
	runtime() *mely.Runtime
	// layerMetrics adds the workload's own per-layer rows (server
	// counters) for a measured span of ops.
	layerMetrics(m metrics, ops int64, wall time.Duration)
	// finish runs the end-of-run guards and returns the violations.
	finish(st mely.Stats) []string
	teardown()
}

// runWaves issues waves until d has passed, always at least one.
func runWaves(d time.Duration, wave func() counts) counts {
	var c counts
	deadline := time.Now().Add(d)
	for {
		c.add(wave())
		if !time.Now().Before(deadline) {
			return c
		}
	}
}

// runClients runs op in a loop on n client goroutines until d has passed
// (each at least once) and returns when all of them have.
func runClients(d time.Duration, n int, op func(client int, c *counts)) counts {
	deadline := time.Now().Add(d)
	res := make([]counts, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				op(i, &res[i])
				if !time.Now().Before(deadline) {
					return
				}
			}
		}(i)
	}
	wg.Wait()
	var c counts
	for _, r := range res {
		c.add(r)
	}
	return c
}

// latBuf is one goroutine's preallocated latency sample buffer, padded
// so that neighbouring buffers do not share a cache line.
type latBuf struct {
	s []int64
	_ [64]byte
}

const latBufCap = 1 << 16

func newLatBufs(n int) []latBuf {
	b := make([]latBuf, n)
	for i := range b {
		b[i].s = make([]int64, 0, latBufCap)
	}
	return b
}

func (b *latBuf) add(ns int64) {
	if len(b.s) < cap(b.s) {
		b.s = append(b.s, ns)
	}
}

func drainLat(bufs []latBuf, dst []int64) []int64 {
	for i := range bufs {
		dst = append(dst, bufs[i].s...)
		bufs[i].s = bufs[i].s[:0]
	}
	return dst
}

// snapshot is the process-wide state read at window boundaries.
type snapshot struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	numGC   uint32
	gcPause uint64
}

func takeSnapshot() snapshot {
	var s snapshot
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.bytes = ms.Mallocs, ms.TotalAlloc
	s.numGC, s.gcPause = ms.NumGC, ms.PauseTotalNs
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s.at = time.Now()
	return s
}

// peakRSSMB is the process's resident high-water mark (ru_maxrss, which
// Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// window is one measured slice of a pass.
type window struct {
	c        counts
	wall     time.Duration
	cpu      time.Duration
	mallocs  uint64
	bytes    uint64
	p50, p99 float64 // µs
	samples  int
}

// pass is a measured run of one workload: a warm-up, then windows.
type pass struct {
	windows           []window
	total             counts
	wall              time.Duration
	before, after     mely.Stats
	gcBefore, gcAfter snapshot
}

// measure warms w up and measures nWin windows of winDur each. Samples
// are sorted and snapshots taken between windows, outside the measured
// time. afterWarm, if set, runs between the warm-up and the first window.
func measure(w workload, warm, winDur time.Duration, nWin int, afterWarm func()) pass {
	var p pass
	scratch := make([]int64, 0, cores*latBufCap)
	if warm > 0 {
		p.total.add(w.run(warm)) // warm-up ops still count toward attempted/failed
		scratch = w.drainSamples(scratch[:0])
	}
	if afterWarm != nil {
		afterWarm()
	}
	p.before = w.runtime().Stats()
	p.gcBefore = takeSnapshot()
	for i := 0; i < nWin; i++ {
		s0 := takeSnapshot()
		c := w.run(winDur)
		s1 := takeSnapshot()
		scratch = w.drainSamples(scratch[:0])
		sort.Slice(scratch, func(i, j int) bool { return scratch[i] < scratch[j] })
		win := window{
			c: c, wall: s1.at.Sub(s0.at), cpu: s1.cpu - s0.cpu,
			mallocs: s1.mallocs - s0.mallocs, bytes: s1.bytes - s0.bytes,
			p50: quantileUS(scratch, 0.50), p99: quantileUS(scratch, 0.99), samples: len(scratch),
		}
		p.windows = append(p.windows, win)
		p.total.add(c)
		p.wall += win.wall
	}
	p.gcAfter = takeSnapshot()
	p.after = w.runtime().Stats()
	return p
}

// measured is the ops/attempted/failed of the measured windows only.
func (p *pass) measured() counts {
	var c counts
	for _, w := range p.windows {
		c.add(w.c)
	}
	return c
}

func quantileUS(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / 1e3
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// endToEnd reduces the windows to the end-to-end metrics: each is its
// second-best window (the second highest ops_per_s, the second lowest of
// everything else). Noise on a shared 2-vCPU host is one-sided — bursts of
// interference lasting seconds slow everything, nothing speeds it up — so
// an upper quantile of the windows is steadier from run to run than
// their mean or their median; the second best rather than the best, so
// that one lucky window does not set the number.
func (p *pass) endToEnd(m metrics) {
	secondBest := func(f func(window) float64, higherIsBetter bool) float64 {
		v := make([]float64, len(p.windows))
		for i, w := range p.windows {
			v[i] = f(w)
		}
		sort.Float64s(v)
		if higherIsBetter {
			return v[max(len(v)-2, 0)]
		}
		return v[min(1, len(v)-1)]
	}
	col := func(f func(window) float64) float64 { return secondBest(f, false) }
	perOp := func(x float64, w window) float64 {
		if w.c.ops == 0 {
			return 0
		}
		return x / float64(w.c.ops)
	}
	m["ops_per_s"] = secondBest(func(w window) float64 { return float64(w.c.ops) / w.wall.Seconds() }, true)
	m["lat_p50_us"] = col(func(w window) float64 { return w.p50 })
	m["client.lat_p99_us"] = col(func(w window) float64 { return w.p99 })
	m["cpu_us_per_op"] = col(func(w window) float64 { return perOp(float64(w.cpu.Nanoseconds())/1e3, w) })
	m["go.allocs_per_op"] = col(func(w window) float64 { return perOp(float64(w.mallocs), w) })
	m["go.alloc_bytes_per_op"] = col(func(w window) float64 { return perOp(float64(w.bytes), w) })
	minSamples := p.windows[0].samples
	for _, w := range p.windows {
		minSamples = min(minSamples, w.samples)
	}
	m["client.samples"] = float64(minSamples)
	m["go.num_gc"] = float64(p.gcAfter.numGC - p.gcBefore.numGC)
	m["go.gc_pause_ms"] = float64(p.gcAfter.gcPause-p.gcBefore.gcPause) / 1e6
	c := p.measured()
	if c.attempted > 0 {
		m["client.failed_share"] = float64(c.failed) / float64(c.attempted)
	} else {
		m["client.failed_share"] = 0
	}
}

// timedSetup builds w and runs its first op (one request per client,
// one file read, or one wave), returning the seconds from workload start
// to that op's completion: what a user waits for the first result, lazy
// first-use work included.
func timedSetup(w workload) (float64, error) {
	t0 := time.Now()
	if err := w.setup(); err != nil {
		return 0, fmt.Errorf("setup: %w", err)
	}
	if c := w.run(0); c.failed > 0 || c.ops == 0 {
		return 0, fmt.Errorf("first op: %d of %d failed", c.failed, c.attempted)
	}
	return time.Since(t0).Seconds(), nil
}

// timeSetups builds, starts and tears down the workload at least reps
// times, and on while that has taken less than setupBudget (at most
// 4*reps times): a 2 ms set-up is repeated more often than an 80 ms one,
// because its median needs it. It returns the set-up times in seconds.
func timeSetups(mk func() workload, reps int) ([]float64, error) {
	var times []float64
	start := time.Now()
	for i := 0; i < reps || (i < 4*reps && time.Since(start) < setupBudget); i++ {
		runtime.GC() // each set-up starts from a collected heap, so the previous one's garbage is not charged to it
		w := mk()
		s, err := timedSetup(w)
		w.teardown()
		if err != nil {
			return nil, err
		}
		times = append(times, s)
	}
	return times, nil
}

const setupBudget = 500 * time.Millisecond

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
