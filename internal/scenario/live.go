package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/melyruntime/mely"
	"github.com/melyruntime/mely/internal/loadgen"
	"github.com/melyruntime/mely/internal/netpoll"
	"github.com/melyruntime/mely/internal/obs"
	"github.com/melyruntime/mely/internal/sfs"
	"github.com/melyruntime/mely/internal/sws"
)

// liveQuickDiv shrinks live phase durations under -quick, and
// liveQuickFloor keeps a shrunk phase long enough to measure anything.
const (
	liveQuickDiv   = 4
	liveQuickFloor = 250 * time.Millisecond
)

// liveObsInterval is the default collector sampling period for
// health-gated runs, and liveHealthPoll how often the harness polls
// each server's /debug/health while the run executes.
const (
	liveObsInterval = 50 * time.Millisecond
	liveHealthPoll  = 100 * time.Millisecond
)

// liveConfigName is the Config key a live record gates under: the first
// server's policy, normalized to the short alias spelling.
func liveConfigName(s *Spec) string {
	if len(s.Servers) == 0 || s.Servers[0].Policy == "" {
		return "melyws"
	}
	return strings.ToLower(s.Servers[0].Policy)
}

// liveServer is one materialized ServerSpec: a runtime, the server on
// top of it, and its loopback listen address.
type liveServer struct {
	spec *ServerSpec
	rt   *mely.Runtime
	sws  *sws.Server
	sfs  *sfs.Server
	addr string
	// paths is the sws request corpus; psk/fileBytes shape sfs reads.
	paths     []string
	psk       []byte
	fileBytes int
	// dbg is the observability side listener, mounted only when the
	// spec declares a metrics SLO (max_queue_delay_p99) or a trace SLO
	// (max_chain_depth / chain_complete): the gates scrape /metrics and
	// /debug/trace over real HTTP, the same surface -debug-addr serves
	// in production.
	dbg *obs.DebugServer
}

// shed reports the server's shed counter (503s or OVERLOADED statuses).
func (ls *liveServer) shed() int64 {
	if ls.sws != nil {
		return ls.sws.OverloadShed()
	}
	return ls.sfs.Shed()
}

func (ls *liveServer) close() {
	if ls.dbg != nil {
		_ = ls.dbg.Close()
	}
	if ls.sws != nil {
		_ = ls.sws.Close()
	}
	if ls.sfs != nil {
		_ = ls.sfs.Close()
	}
	if ls.rt != nil {
		_ = ls.rt.Close()
	}
}

// buildLiveServer materializes one ServerSpec on a loopback listener.
func buildLiveServer(s *Spec, sv *ServerSpec) (*liveServer, error) {
	pol, err := mely.ParsePolicy(sv.Policy)
	if err != nil {
		return nil, err
	}
	opol, err := mely.ParseOverloadPolicy(sv.Overload)
	if err != nil {
		return nil, err
	}
	cfg := mely.Config{
		Cores:             sv.Cores,
		Policy:            pol,
		MaxQueuedEvents:   sv.MaxQueued,
		MaxQueuedPerColor: sv.MaxQueuedColor,
		OverloadPolicy:    opol,
		SpillDir:          sv.SpillDir,
		StallThreshold:    mustDuration(sv.StallThreshold),
	}
	if s.wantsMetricsSLO() {
		// The queue-delay gate needs samples even in a short -quick
		// window; sample every event for the gated run.
		cfg.ObsSampleRate = 1
	}
	if s.wantsHealthSLO() {
		// The health gates poll /debug/health throughout the run, so the
		// collector must sample fast enough to evaluate the detectors
		// well within a -quick phase.
		cfg.ObsInterval = liveObsInterval
		if d := mustDuration(sv.ObsInterval); d > 0 {
			cfg.ObsInterval = d
		}
		cfg.ObsHistory = 256
	}
	rt, err := mely.New(cfg)
	if err != nil {
		return nil, err
	}
	ls := &liveServer{spec: sv, rt: rt}
	if s.wantsMetricsSLO() || s.wantsTraceSLO() || s.wantsHealthSLO() {
		// The gate scrapes exactly once per server; serve it fresh.
		ls.dbg, err = obs.StartDebugServer("127.0.0.1:0", rt, -1)
		if err != nil {
			rt.Close()
			return nil, err
		}
	}
	if err := rt.Start(); err != nil {
		ls.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ls.close()
		return nil, err
	}

	// The slow-handler fault is wired at build time (sws.Config knobs);
	// it targets one server and stays on for the whole run.
	stall, stallEvery := liveStall(s, sv.Name)

	switch sv.Kind {
	case "sws":
		files := sv.Files
		if files <= 0 {
			files = 150 // the paper's corpus size
		}
		fileBytes := sv.FileBytes
		if fileBytes <= 0 {
			fileBytes = 1024
		}
		corpus := make(map[string][]byte, files)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < files; i++ {
			content := make([]byte, fileBytes)
			rng.Read(content)
			path := fmt.Sprintf("/file%03d.bin", i)
			corpus[path] = content
			ls.paths = append(ls.paths, path)
		}
		backend, err := netpoll.ParseBackend(sv.Backend)
		if err != nil {
			ls.close()
			_ = ln.Close()
			return nil, err
		}
		srv, err := sws.New(sws.Config{
			Runtime:      rt,
			Files:        corpus,
			MaxClients:   sv.MaxClients,
			IdleTimeout:  mustDuration(sv.IdleTimeout),
			Backend:      backend,
			PollerShards: sv.PollerShards,
			ShedOverload: sv.ShedOverload,
			Stall:        stall,
			StallEvery:   stallEvery,
		})
		if err == nil {
			err = srv.Serve(ln)
		}
		if err != nil {
			ls.close()
			_ = ln.Close()
			return nil, err
		}
		ls.sws = srv
		ls.addr = srv.Addr().String()
	case "sfs":
		fileBytes := sv.FileBytes
		if fileBytes <= 0 {
			fileBytes = 1 << 20
		}
		content := make([]byte, fileBytes)
		rand.New(rand.NewSource(1)).Read(content)
		psk := sv.PSK
		if psk == "" {
			psk = "scenario"
		}
		srv, err := sfs.NewServer(sfs.ServerConfig{
			Runtime:       rt,
			Files:         map[string][]byte{"/data": content},
			PSK:           []byte(psk),
			CryptoPenalty: sv.CryptoPenalty,
			ShedOverload:  sv.ShedOverload,
		})
		if err == nil {
			err = srv.Serve(ln)
		}
		if err != nil {
			ls.close()
			_ = ln.Close()
			return nil, err
		}
		ls.sfs = srv
		ls.addr = srv.Addr().String()
		ls.psk = []byte(psk)
		ls.fileBytes = fileBytes
	}
	return ls, nil
}

// liveStall resolves the slow-handler fault targeting the named server
// (an empty fault server targets the fleet's first server).
func liveStall(s *Spec, serverName string) (time.Duration, int) {
	for _, f := range s.Faults {
		if f.Type != "slow-handler" {
			continue
		}
		target := f.Server
		if target == "" && len(s.Servers) > 0 {
			target = s.Servers[0].Name
		}
		if target != serverName {
			continue
		}
		every := f.EveryNth
		if every <= 0 {
			every = 1
		}
		return mustDuration(f.Stall), every
	}
	return 0, 0
}

// phaseDuration resolves a live phase's wall-clock length, applying the
// quick shrink.
func phaseDuration(p *PhaseSpec, quick bool) time.Duration {
	d := mustDuration(p.Duration)
	if quick {
		d /= liveQuickDiv
		if d < liveQuickFloor {
			d = liveQuickFloor
		}
	}
	return d
}

// loadAgg aggregates one phase's load-generator results.
type loadAgg struct {
	requests int64
	errors   int64
	connects int64
	p50, p99 time.Duration
	elapsed  time.Duration
}

// runLive materializes the fleet, runs the phases, and aggregates the
// measure phase into one gate-comparable record.
func runLive(s *Spec, opt Options) (*Record, error) {
	servers := make(map[string]*liveServer, len(s.Servers))
	defer func() {
		for _, ls := range servers {
			ls.close()
		}
	}()
	for i := range s.Servers {
		ls, err := buildLiveServer(s, &s.Servers[i])
		if err != nil {
			return nil, fmt.Errorf("%s: server %q: %w", s.Name, s.Servers[i].Name, err)
		}
		servers[s.Servers[i].Name] = ls
	}

	runCtx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()

	// Peak-heap sampler, run-wide (max_rss_mb gates on it).
	var peakHeap atomic.Uint64
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		ticker := time.NewTicker(100 * time.Millisecond)
		defer ticker.Stop()
		for {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			for {
				cur := peakHeap.Load()
				if ms.HeapInuse <= cur || peakHeap.CompareAndSwap(cur, ms.HeapInuse) {
					break
				}
			}
			select {
			case <-runCtx.Done():
				return
			case <-ticker.C:
			}
		}
	}()

	// Run-wide faults (phase "") live for the whole phase sequence.
	runFaults := startLiveFaults(runCtx, s, servers, "")

	// Health poller: with a health SLO declared, every server's real
	// /debug/health endpoint is polled for the whole run, so a
	// transient anomaly (one that clears before the final scrape) still
	// trips the gate — "was an anomaly ever detected" is a run-long
	// property, not an exit snapshot.
	var sawUnhealthy atomic.Bool
	var healthWG sync.WaitGroup
	if s.wantsHealthSLO() {
		healthWG.Add(1)
		go func() {
			defer healthWG.Done()
			ticker := time.NewTicker(liveHealthPoll)
			defer ticker.Stop()
			for {
				select {
				case <-runCtx.Done():
					return
				case <-ticker.C:
				}
				for _, ls := range servers {
					if h, _, err := scrapeHealth(ls.dbg.Addr()); err == nil && !h.Healthy {
						sawUnhealthy.Store(true)
					}
				}
			}
		}()
	}

	// stop ends the run-wide goroutines (faults, health poller, heap
	// sampler) and waits for them.
	stop := func() {
		cancelRun()
		runFaults.Wait()
		healthWG.Wait()
		samplerWG.Wait()
	}

	var measured loadAgg
	var sawMeasure bool
	for i := range s.Phases {
		ph := &s.Phases[i]
		d := phaseDuration(ph, opt.Quick)
		phCtx, cancelPhase := context.WithCancel(runCtx)
		phFaults := startLiveFaults(phCtx, s, servers, ph.Name)
		agg, err := runPhaseLoads(phCtx, s, servers, ph, d)
		cancelPhase()
		phFaults.Wait()
		if err != nil {
			stop()
			return nil, fmt.Errorf("%s: phase %q: %w", s.Name, ph.Name, err)
		}
		if ph.Measure {
			measured, sawMeasure = agg, true
		}
	}
	// The final health scrape happens BEFORE the run context cancels
	// the poller, while the detectors still see the faulted windows at
	// the head of the ring.
	health := healthView{healthyNow: true}
	if s.wantsHealthSLO() {
		health.sawUnhealthy = sawUnhealthy.Load()
		for name, ls := range servers {
			h, healthy, err := scrapeHealth(ls.dbg.Addr())
			if err != nil {
				stop()
				return nil, fmt.Errorf("%s: server %q: %w", s.Name, name, err)
			}
			health.healthyNow = health.healthyNow && healthy
			health.sawUnhealthy = health.sawUnhealthy || !healthy
			health.anomalies += h.TotalAnomalies
		}
	}
	stop()
	if !sawMeasure {
		return nil, fmt.Errorf("%s: %w: no measure phase ran", s.Name, ErrBadPhase)
	}

	var total mely.CoreStats
	var qdHist, etHist mely.LatencySnapshot
	var shed, served int64
	for _, ls := range servers {
		t := ls.rt.Stats().Total()
		total.StealAttempts += t.StealAttempts
		total.Steals += t.Steals
		total.StolenColors += t.StolenColors
		qdHist.Merge(t.QueueDelayHist)
		etHist.Merge(t.ExecTimeHist)
		shed += ls.shed()
		if ls.sws != nil {
			served += ls.sws.Served()
		}
		if ls.sfs != nil {
			served += ls.sfs.Sent()
		}
	}

	// The metrics gate reads the worst per-server queue-delay p99 off a
	// real /metrics scrape — the same HTTP surface and exposition path
	// dashboards use, not a shortcut through Stats().
	var scrapedQD time.Duration
	if s.wantsMetricsSLO() {
		for name, ls := range servers {
			qd, err := scrapeQueueDelayP99(ls.dbg.Addr())
			if err != nil {
				return nil, fmt.Errorf("%s: server %q: %w", s.Name, name, err)
			}
			scrapedQD = max(scrapedQD, qd)
		}
	}

	// The chain gates read each server's flight recorder off a real
	// /debug/trace scrape and reconstruct the causal flows; depth is the
	// fleet-wide deepest chain, completeness ANDs across servers.
	chainDepth, chainOK := 0, true
	if s.wantsTraceSLO() {
		for name, ls := range servers {
			d, ok, err := scrapeFlowChains(ls.dbg.Addr())
			if err != nil {
				return nil, fmt.Errorf("%s: server %q: %w", s.Name, name, err)
			}
			chainDepth = max(chainDepth, d)
			chainOK = chainOK && ok
		}
	}

	rssMB := float64(peakHeap.Load()) / (1 << 20)
	krps := 0.0
	if measured.elapsed > 0 {
		krps = float64(measured.requests) / measured.elapsed.Seconds() / 1000
	}
	rec := &Record{
		Scenario:         s.Name,
		Experiment:       s.Name,
		Config:           liveConfigName(s),
		Engine:           "live",
		KEventsPerSecond: krps,
		StealAttempts:    total.StealAttempts,
		Steals:           total.Steals,
		StolenColors:     total.StolenColors,
		Payload: map[string]float64{
			"requests": float64(measured.requests),
			"errors":   float64(measured.errors),
			"connects": float64(measured.connects),
			"served":   float64(served),
			"shed":     float64(shed),
			"p50_ms":   millis(measured.p50),
			"p99_ms":   millis(measured.p99),
			"rss_mb":   rssMB,
		},
	}
	// Server-side sampled latency, fleet-wide (bucket upper bounds;
	// zero when sampling is off or nothing was sampled). These land in
	// melybench -scenario-out next to the client-side percentiles.
	if qdHist.Count() > 0 {
		rec.Payload["queue_delay_p50_ms"] = millis(qdHist.Quantile(0.50))
		rec.Payload["queue_delay_p99_ms"] = millis(qdHist.Quantile(0.99))
	}
	if etHist.Count() > 0 {
		rec.Payload["exec_p50_ms"] = millis(etHist.Quantile(0.50))
		rec.Payload["exec_p99_ms"] = millis(etHist.Quantile(0.99))
	}
	if s.wantsTraceSLO() {
		rec.Payload["chain_depth"] = float64(chainDepth)
	}
	if s.wantsHealthSLO() {
		rec.Payload["anomalies"] = float64(health.anomalies)
		rec.Payload["saw_unhealthy"] = 0
		if health.sawUnhealthy {
			rec.Payload["saw_unhealthy"] = 1
		}
	}
	rec.SLOs = s.evalLiveSLOs(rec, measured, rssMB, scrapedQD, chainDepth, chainOK, health)
	return rec, violation(s.Name, rec.SLOs)
}

// runPhaseLoads drives every load attached to the phase (explicitly by
// name, or implicitly: loads without a phase run in the measure phase)
// and aggregates their results. Phases with no loads just hold the
// fleet idle for the duration — the idle-timeout/churn shape.
func runPhaseLoads(ctx context.Context, s *Spec, servers map[string]*liveServer, ph *PhaseSpec, d time.Duration) (loadAgg, error) {
	var loads []*LoadSpec
	for i := range s.Loads {
		ld := &s.Loads[i]
		if ld.Phase == ph.Name || (ld.Phase == "" && ph.Measure) {
			loads = append(loads, ld)
		}
	}
	agg := loadAgg{elapsed: d}
	if len(loads) == 0 {
		select {
		case <-ctx.Done():
		case <-time.After(d):
		}
		return agg, nil
	}

	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		loadErr error
	)
	for _, ld := range loads {
		ls := servers[ld.Server]
		wg.Add(1)
		go func(ld *LoadSpec) {
			defer wg.Done()
			var (
				res loadgen.Result
				err error
			)
			if ls.sws != nil {
				res, err = runHTTPLoad(ctx, ls, ld, d)
			} else {
				res, err = runSFSLoad(ctx, ls, ld, d)
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil && loadErr == nil {
				loadErr = err
			}
			agg.requests += res.Requests
			agg.errors += res.Errors
			agg.connects += res.Connects
			// Across generators the conservative aggregate is the worst
			// percentile (a latency SLO must hold for every generator).
			agg.p50 = max(agg.p50, res.LatencyP50)
			agg.p99 = max(agg.p99, res.LatencyP99)
		}(ld)
	}
	wg.Wait()
	return agg, loadErr
}

// runHTTPLoad drives one sws load generator for the phase.
func runHTTPLoad(ctx context.Context, ls *liveServer, ld *LoadSpec, d time.Duration) (loadgen.Result, error) {
	paths := ld.Paths
	if len(paths) == 0 {
		paths = ls.paths
	}
	burst := 0
	if ld.Mode == "open" {
		burst = ld.Burst
	}
	return loadgen.RunHTTP(ctx, loadgen.HTTPConfig{
		Addr:            ls.addr,
		Clients:         ld.Clients,
		RequestsPerConn: ld.RequestsPerConn,
		Paths:           paths,
		Duration:        d,
		ThinkTime:       mustDuration(ld.Think),
		ThinkJitter:     mustDuration(ld.ThinkJitter),
		IdleConns:       ld.IdleConns,
		Burst:           burst,
		BurstPause:      mustDuration(ld.BurstPause),
		TrackLatency:    true,
	})
}

// runSFSLoad drives one sfs load generator: closed-loop clients each
// reading /data whole-file over one persistent connection. Shed READs
// count as errors — the SLO block decides how many are acceptable.
func runSFSLoad(ctx context.Context, ls *liveServer, ld *LoadSpec, d time.Duration) (loadgen.Result, error) {
	return loadgen.RunSFS(ctx, loadgen.SFSConfig{
		Addr:      ls.addr,
		PSK:       ls.psk,
		Clients:   ld.Clients,
		Path:      "/data",
		FileBytes: ls.fileBytes,
		Chunk:     ld.Chunk,
		ReadAhead: ld.ReadAhead,
		Duration:  d,
		ThinkTime: mustDuration(ld.Think),
	})
}

// millis is d in the unit the records carry durations in.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// evalLiveSLOs evaluates the live SLO blocks against the measured
// aggregate. SLOs attach to phases for readability, but the metrics all
// come from the measure window (latency, errors, throughput) or the
// whole run (RSS).
func (s *Spec) evalLiveSLOs(rec *Record, m loadAgg, rssMB float64, scrapedQD time.Duration, chainDepth int, chainOK bool, health healthView) []SLOResult {
	var out []SLOResult
	flag := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	for _, slo := range s.SLOs {
		check := func(name string, limit, value float64, pass bool) {
			out = append(out, SLOResult{Phase: slo.Phase, Check: name, Limit: limit, Value: value, Pass: pass})
		}
		if slo.MinKEventsPerSec > 0 {
			check("min_kevents_per_sec", slo.MinKEventsPerSec, rec.KEventsPerSecond,
				rec.KEventsPerSecond >= slo.MinKEventsPerSec)
		}
		if slo.MaxP99 != "" {
			limit := mustDuration(slo.MaxP99)
			check("max_p99", millis(limit), millis(m.p99), m.p99 <= limit)
		}
		if slo.MaxErrorRatePct > 0 {
			pct := 0.0
			if total := m.requests + m.errors; total > 0 {
				pct = float64(m.errors) / float64(total) * 100
			}
			check("max_error_rate_pct", slo.MaxErrorRatePct, pct, pct <= slo.MaxErrorRatePct)
		}
		if slo.MaxRSSMB > 0 {
			check("max_rss_mb", float64(slo.MaxRSSMB), rssMB, rssMB <= float64(slo.MaxRSSMB))
		}
		if slo.MaxQueueDelayP99 != "" {
			limit := mustDuration(slo.MaxQueueDelayP99)
			check("max_queue_delay_p99", millis(limit), millis(scrapedQD), scrapedQD <= limit)
		}
		if slo.MaxChainDepth > 0 {
			check("max_chain_depth", float64(slo.MaxChainDepth), float64(chainDepth), chainDepth <= slo.MaxChainDepth)
		}
		if slo.ChainComplete {
			check("chain_complete", 1, flag(chainOK), chainOK)
		}
		if slo.HealthOK != nil {
			// Value 1 = the fleet stayed healthy on every poll AND at
			// exit; limit is the asserted state, so health_ok: false is
			// the detection gate of fault-injection scenarios.
			stayedHealthy := !health.sawUnhealthy && health.healthyNow
			check("health_ok", flag(*slo.HealthOK), flag(stayedHealthy), stayedHealthy == *slo.HealthOK)
		}
		if slo.MaxAnomalies != nil {
			check("max_anomalies", float64(*slo.MaxAnomalies), float64(health.anomalies),
				health.anomalies <= int64(*slo.MaxAnomalies))
		}
		if slo.MinAnomalies > 0 {
			check("min_anomalies", float64(slo.MinAnomalies), float64(health.anomalies),
				health.anomalies >= int64(slo.MinAnomalies))
		}
	}
	return out
}

// healthView is the fleet-wide health aggregate the gates read: the
// run-long "ever unhealthy" bit from the poller, the exit state, and
// the summed anomaly episode count.
type healthView struct {
	sawUnhealthy bool
	healthyNow   bool
	anomalies    int64
}

// wantsMetricsSLO reports whether any SLO gates on a live /metrics
// scrape (the servers then mount debug listeners and sample every
// event).
func (s *Spec) wantsMetricsSLO() bool {
	return slices.ContainsFunc(s.SLOs, func(slo SLOSpec) bool { return slo.MaxQueueDelayP99 != "" })
}

// wantsTraceSLO reports whether any SLO gates on a flight-recorder
// dump (max_chain_depth / chain_complete): the servers then mount
// debug listeners so the gate can scrape /debug/trace.
func (s *Spec) wantsTraceSLO() bool {
	return slices.ContainsFunc(s.SLOs, func(slo SLOSpec) bool { return slo.MaxChainDepth > 0 || slo.ChainComplete })
}

// wantsHealthSLO reports whether any SLO gates on the health engine
// (health_ok / max_anomalies / min_anomalies): the servers then arm
// their timeseries collectors and mount debug listeners so the gate
// polls the real /debug/health endpoint.
func (s *Spec) wantsHealthSLO() bool {
	return slices.ContainsFunc(s.SLOs, func(slo SLOSpec) bool {
		return slo.HealthOK != nil || slo.MaxAnomalies != nil || slo.MinAnomalies > 0
	})
}

// scrapeHealth GETs one server's /debug/health: the parsed report plus
// the endpoint's binary verdict (200 = healthy, 503 = anomalies
// firing) — the same contract a production load balancer consumes.
func scrapeHealth(addr string) (obs.HealthReport, bool, error) {
	var rep obs.HealthReport
	body, status, err := obs.Fetch("http://"+addr+"/debug/health", http.StatusOK, http.StatusServiceUnavailable)
	if err == nil {
		err = json.Unmarshal(body, &rep)
	}
	if err != nil {
		return rep, false, fmt.Errorf("health scrape: %w", err)
	}
	return rep, status == http.StatusOK, nil
}

// scrapeFlowChains GETs one server's /debug/trace, rebuilds the causal
// flows, and reports the deepest chain plus whether the busiest trace
// is fully connected. An empty dump (no traced spans yet) is depth 0
// and trivially complete — the SLO gates on load having run, not on
// the recorder surviving idle.
func scrapeFlowChains(addr string) (depth int, complete bool, err error) {
	body, _, err := obs.Fetch("http://" + addr + "/debug/trace")
	if err != nil {
		return 0, false, fmt.Errorf("trace scrape: %w", err)
	}
	idx, err := obs.ParseFlowDump(bytes.NewReader(body))
	if err != nil {
		return 0, false, fmt.Errorf("trace scrape %s: %w", addr, err)
	}
	for t := range idx.Traces {
		depth = max(depth, idx.Depth(t))
	}
	busiest := idx.BusiestTrace()
	return depth, busiest == 0 || idx.Connected(busiest), nil
}

// scrapeQueueDelayP99 GETs one server's /metrics and extracts the
// queue-delay p99 across its cores (a bucket upper bound, like any
// Prometheus histogram_quantile). A scrape with no samples gates at 0
// only if the histogram rendered at all; a missing histogram is an
// error — the gate must not silently pass on a broken exposition.
func scrapeQueueDelayP99(addr string) (time.Duration, error) {
	body, _, err := obs.Fetch("http://" + addr + "/metrics")
	if err != nil {
		return 0, fmt.Errorf("scrape: %w", err)
	}
	samples, err := obs.ParseExposition(string(body))
	if err != nil {
		return 0, fmt.Errorf("scrape %s: %w", addr, err)
	}
	qd, ok := obs.HistogramQuantile(samples, "mely_queue_delay_seconds", 0.99)
	if !ok {
		// Zero samples (an idle measure phase) is a trivial pass, but
		// only if the histogram actually rendered.
		for key := range samples {
			if strings.HasPrefix(key, "mely_queue_delay_seconds_count") {
				return 0, nil
			}
		}
		return 0, fmt.Errorf("scrape %s: no mely_queue_delay_seconds histogram", addr)
	}
	return time.Duration(qd * float64(time.Second)), nil
}

// startLiveFaults launches the fault injectors scoped to the named
// phase ("" = run-wide). The returned WaitGroup joins them after the
// scope's context is canceled. slow-handler is wired at server build
// time, not here.
func startLiveFaults(ctx context.Context, s *Spec, servers map[string]*liveServer, phase string) *sync.WaitGroup {
	var wg sync.WaitGroup
	for i := range s.Faults {
		f := &s.Faults[i]
		if f.Phase != phase {
			continue
		}
		switch f.Type {
		case "conn-churn":
			target := f.Server
			if target == "" {
				target = s.Servers[0].Name
			}
			ls := servers[target]
			wg.Add(1)
			go func() {
				defer wg.Done()
				churnConnections(ctx, ls.addr, f.Rate)
			}()
		case "core-pressure":
			for n := 0; n < f.Spinners; n++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					spin(ctx)
				}()
			}
		}
	}
	return &wg
}

// churnConnections dials and immediately drops rate connections per
// second against addr — the accept/reap pressure fault. Dial failures
// are part of the fault (a MaxClients server refusing churn is correct
// behavior), so they are ignored.
func churnConnections(ctx context.Context, addr string, rate int) {
	interval := time.Second / time.Duration(rate)
	if interval <= 0 {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	d := net.Dialer{Timeout: time.Second}
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			continue
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetLinger(0) // RST-close: churn must not exhaust TIME_WAIT ports
		}
		_ = conn.Close()
	}
}

// spin burns one OS-scheduled goroutine's worth of CPU — the mid-run
// core-pressure fault (an antagonist process stealing cores).
func spin(ctx context.Context) {
	var sink uint64
	for ctx.Err() == nil {
		for i := 0; i < 1<<16; i++ {
			sink += uint64(i)
		}
	}
	_ = sink
}
