package scenario

import (
	"cmp"
	"fmt"

	"github.com/melyruntime/mely/internal/equeue"
	"github.com/melyruntime/mely/internal/metrics"
	"github.com/melyruntime/mely/internal/policy"
	"github.com/melyruntime/mely/internal/sim"
	"github.com/melyruntime/mely/internal/topology"
	"github.com/melyruntime/mely/internal/workload"
)

// Options configures a run of the harness, for a scenario spec and for
// an internal/bench report alike.
type Options struct {
	// Topology defaults to the paper's 8-core Xeon E5410.
	Topology *topology.Topology
	// Params defaults to the calibrated cost model.
	Params sim.Params
	// Seed makes runs reproducible (default 42, the gate baseline's).
	Seed int64
	// Quick shrinks workloads and windows for tests and smoke runs:
	// cycle windows divide by ten (Windows) and each workload's
	// population shrinks by the quick rule of its registry entry.
	Quick bool
}

// WithDefaults resolves the zero fields to their documented defaults.
func (o Options) WithDefaults() Options {
	if o.Topology == nil {
		o.Topology = topology.IntelXeonE5410()
	}
	if o.Params.CyclesPerSecond == 0 {
		o.Params = sim.DefaultParams()
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// Windows scales a full-size (warm-up, measure) horizon in cycles to
// the run's size.
func (o Options) Windows(warm, win int64) (int64, int64) {
	if o.Quick {
		return warm / 10, win / 10
	}
	return warm, win
}

// simFaults is the deterministic sim fault plan derived from a spec:
// pure cycle perturbations, so a faulted scenario stays exactly
// reproducible and gate-comparable.
type simFaults struct {
	spillExtra   int64 // per spill append and per reload batch
	handlerExtra int64 // added to every nth work event
	handlerNth   int
	handlerSeen  int // work events so far (slowHandler's counter)
	restartAt    int // crash+recover the spill store at this spill count
}

func (s *Spec) simFaultPlan() simFaults {
	var f simFaults
	for _, fault := range s.Faults {
		switch fault.Type {
		case "spill-disk-latency":
			f.spillExtra += fault.ExtraCycles
		case "slow-handler":
			f.handlerExtra += fault.ExtraCycles
			f.handlerNth = max(fault.EveryNth, 1)
		case "spill-crash-restart":
			f.restartAt = fault.AtSpilled
		}
	}
	return f
}

// slowHandler charges the slow-handler fault to every nth work event.
func (f *simFaults) slowHandler(ctx *sim.Ctx) {
	if f.handlerExtra > 0 {
		if f.handlerSeen++; f.handlerSeen%f.handlerNth == 0 {
			ctx.Charge(f.handlerExtra)
		}
	}
}

// simRun is one measurement's inputs: a spec, one policy, the resolved
// options, and what the spec's phases and faults come to.
type simRun struct {
	spec      *Spec
	pol       policy.Config
	opt       Options
	warm, win int64 // cycles before and inside the measure phase, scaled
	drain     bool  // a drain phase follows the window
	faults    simFaults
}

// engine is a bare simulator for the run's policy, topology and seed.
func (r *simRun) engine() (*sim.Engine, error) {
	return sim.New(sim.Config{Topology: r.opt.Topology, Policy: r.pol, Params: r.opt.Params, Seed: r.opt.Seed})
}

// simWorkload is one workload the sim engine can run. The registry
// below is the one place a workload's name (the spec's sim.workload and
// the key of its parameter block), its quick rule and its measurement
// meet: Validate, Run and every internal/bench report go through it.
type simWorkload struct {
	// set reports whether a spec carries this workload's parameter
	// block, negative (nil = it cannot) whether that block holds a
	// negative count.
	set, negative func(*SimSpec) bool
	// measure builds the workload and runs warm-up and window. Only
	// overload returns its admission state, for the spill SLOs.
	measure func(*simRun) (*metrics.Run, *overloadState, error)
}

var workloads = map[string]simWorkload{
	"unbalanced": paperWorkload(
		func(ss *SimSpec) *workload.UnbalancedSpec { return ss.Unbalanced },
		func(u *workload.UnbalancedSpec) { u.EventsPerRound = cmp.Or(u.EventsPerRound, 2000) },
		workload.BuildUnbalanced),
	"penalty": paperWorkload(
		func(ss *SimSpec) *workload.PenaltySpec { return ss.Penalty },
		func(p *workload.PenaltySpec) { p.NumA = cmp.Or(p.NumA, 64) },
		workload.BuildPenalty),
	"cacheeff": paperWorkload(
		func(ss *SimSpec) *workload.CacheEfficientSpec { return ss.CacheEff },
		func(c *workload.CacheEfficientSpec) { c.APerCore = cmp.Or(c.APerCore, 20) },
		workload.BuildCacheEfficient),
	"timer": {
		set: func(ss *SimSpec) bool { return ss.Timer != nil },
		negative: func(ss *SimSpec) bool {
			t := ss.Timer
			return t.Clients < 0 || t.WorkCost < 0 || t.ThinkCost < 0 || t.ThinkSpan < 0
		},
		measure: measureTimer,
	},
	"connscale": {
		set: func(ss *SimSpec) bool { return ss.ConnScale != nil },
		negative: func(ss *SimSpec) bool {
			c := ss.ConnScale
			return c.Conns < 0 || c.WorkCost < 0 || c.ThinkCost < 0 || c.ThinkSpan < 0
		},
		measure: measureConnScale,
	},
	"overload": {
		set: func(ss *SimSpec) bool { return ss.Overload != nil },
		negative: func(ss *SimSpec) bool {
			o := ss.Overload
			return o.Bound < 0 || o.Colors < 0 || o.Tick < 0 ||
				o.PerTick < 0 || o.Ticks < 0 || o.WorkCost < 0 || o.ProdCost < 0
		},
		measure: measureOverload,
	},
}

// paperWorkload is the registry entry of one of the paper's three
// microbenchmarks: block finds its workload.*Spec in a spec (nil = the
// paper's values), quick shrinks the population a spec left at its
// default, build is the internal/workload constructor.
func paperWorkload[S any](block func(*SimSpec) *S, quick func(*S),
	build func(*topology.Topology, policy.Config, sim.Params, int64, S) (*sim.Engine, error)) simWorkload {
	return simWorkload{
		set: func(ss *SimSpec) bool { return block(ss) != nil },
		measure: func(r *simRun) (*metrics.Run, *overloadState, error) {
			var spec S
			if b := block(r.spec.Sim); b != nil {
				spec = *b
			}
			if r.opt.Quick {
				quick(&spec)
			}
			eng, err := build(r.opt.Topology, r.pol, r.opt.Params, r.opt.Seed, spec)
			if err != nil {
				return nil, nil, err
			}
			return sim.Measure(eng, r.warm, r.win), nil, nil
		},
	}
}

// Run materializes the scenario and measures every configuration,
// returning one record per policy (sim) or one per scenario (live).
// SLO violations fail the run with an error, but the returned Result
// still carries every record measured (including the failed SLO
// evaluations) so artifacts can be written for diagnosis.
func Run(s *Spec, opt Options) (*Result, error) {
	opt = opt.WithDefaults()
	if s.Seed != 0 {
		opt.Seed = s.Seed
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	res := &Result{Schema: RecordSchema, Name: s.Name, Engine: s.Engine, Seed: opt.Seed, Quick: opt.Quick}
	if s.Engine == "live" {
		rec, err := runLive(s, opt)
		if rec != nil {
			res.Records = append(res.Records, *rec)
		}
		return res, err
	}
	var sloErr error
	for _, polName := range s.Sim.Policies {
		pol, err := policy.Parse(polName)
		if err != nil {
			return res, err
		}
		run, slos, err := measureSim(s, pol, opt)
		if err != nil {
			return res, fmt.Errorf("%s/%s: %w", s.Name, polName, err)
		}
		t := run.Total()
		res.Records = append(res.Records, Record{
			Scenario:         s.Name,
			Experiment:       s.Name,
			Config:           pol.String(),
			Engine:           "sim",
			KEventsPerSecond: run.KEventsPerSecond(),
			StealAttempts:    t.StealAttempts,
			Steals:           t.Steals,
			StolenColors:     t.StolenColors,
			Payload:          run.Payload,
			SLOs:             slos,
		})
		if sloErr == nil {
			sloErr = violation(s.Name+"/"+polName, slos)
		}
	}
	return res, sloErr
}

// violation is the error of the first failed SLO check, nil when all
// passed.
func violation(who string, slos []SLOResult) error {
	for _, slo := range slos {
		if !slo.Pass {
			return fmt.Errorf("%s: SLO %s on phase %q violated: %g (limit %g)",
				who, slo.Check, slo.Phase, slo.Value, slo.Limit)
		}
	}
	return nil
}

// MeasureSim measures a sim scenario's workload, at the size and over
// the window the spec gives, under one policy of the caller's choosing:
// a row of an internal/bench report is measured by the code that
// measures a gate record, whatever policies the spec itself lists. SLO
// violations are returned as an error.
func MeasureSim(s *Spec, pol policy.Config, opt Options) (*metrics.Run, error) {
	run, slos, err := measureSim(s, pol, opt.WithDefaults())
	if err == nil {
		err = violation(s.Name, slos)
	}
	if err != nil {
		return nil, err
	}
	return run, nil
}

func measureSim(s *Spec, pol policy.Config, opt Options) (*metrics.Run, []SLOResult, error) {
	w, ok := workloads[s.Sim.Workload]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownWorkload, s.Sim.Workload)
	}
	r := &simRun{spec: s, pol: pol, opt: opt, faults: s.simFaultPlan()}
	// Warm-up is every phase before the measure window.
	for _, p := range s.Phases {
		switch {
		case p.Measure:
			r.win = p.Cycles
		case p.Drain:
			r.drain = true
		case r.win == 0:
			r.warm += p.Cycles
		}
	}
	r.warm, r.win = opt.Windows(r.warm, r.win)
	run, ost, err := w.measure(r)
	if err != nil {
		return nil, nil, err
	}
	return run, s.evalSimSLOs(run, ost), nil
}

// evalSimSLOs evaluates the declared SLO blocks against the measured
// run (and, for overload, the post-drain admission state).
func (s *Spec) evalSimSLOs(run *metrics.Run, ost *overloadState) []SLOResult {
	var out []SLOResult
	for _, slo := range s.SLOs {
		check := func(name string, limit, value float64, pass bool) {
			out = append(out, SLOResult{Phase: slo.Phase, Check: name, Limit: limit, Value: value, Pass: pass})
		}
		if slo.MinKEventsPerSec > 0 {
			v := run.KEventsPerSecond()
			check("min_kevents_per_sec", slo.MinKEventsPerSec, v, v >= slo.MinKEventsPerSec)
		}
		if slo.ZeroLoss && ost != nil {
			ls := ost.layer.Stats()
			lost := float64(ost.produced-ost.consumed) + float64(ls.Spilled-ls.Reloaded) + float64(ls.Queued)
			check("zero_loss", 0, lost, lost == 0)
		}
		if slo.MaxInMem > 0 && ost != nil {
			check("max_inmem", float64(slo.MaxInMem), float64(ost.maxInMem), ost.maxInMem <= int64(slo.MaxInMem))
		}
	}
	return out
}

// thinkLoop is the shape the timer and connscale workloads share: a
// closed loop of clients, one color each, that think between requests
// and re-arrive as timed events (ctx.PostAfter).
type thinkLoop struct {
	handler                        string
	clients                        int
	workCost, thinkCost, thinkSpan int64
	// color homes client i; firstArrival staggers its first request.
	color        func(i int) equeue.Color
	firstArrival func(i int) int64
}

func (l thinkLoop) measure(r *simRun) (*metrics.Run, *overloadState, error) {
	eng, err := r.engine()
	if err != nil {
		return nil, nil, err
	}
	var work equeue.HandlerID
	work = eng.Register(l.handler, func(ctx *sim.Ctx, ev *equeue.Event) {
		r.faults.slowHandler(ctx)
		// The client thinks, then its next request arrives by deadline.
		delay := l.thinkCost + ctx.Rand().Int63n(l.thinkSpan)
		ctx.PostAfter(delay, sim.Ev{Handler: work, Color: ev.Color, Cost: l.workCost})
	}, sim.HandlerOpts{})
	eng.Seed(func(ctx *sim.Ctx) {
		for i := 0; i < l.clients; i++ {
			ctx.PostAfter(l.firstArrival(i), sim.Ev{Handler: work, Color: l.color(i), Cost: l.workCost})
		}
	})
	return sim.Measure(eng, r.warm, r.win), nil, nil
}

// measureTimer is the deadline-driven closed loop: 48 clients,
// 20k-cycle requests, 150k±100k-cycle think pauses, every color homed
// on core 0 so that workstealing is what spreads the load.
func measureTimer(r *simRun) (*metrics.Run, *overloadState, error) {
	var t TimerParams
	if r.spec.Sim.Timer != nil {
		t = *r.spec.Sim.Timer
	}
	l := thinkLoop{
		handler:   "timer-work",
		clients:   cmp.Or(t.Clients, 48),
		workCost:  cmp.Or(t.WorkCost, 20_000),
		thinkCost: cmp.Or(t.ThinkCost, 150_000),
		thinkSpan: cmp.Or(t.ThinkSpan, 100_000),
	}
	// First arrivals stagger across one think interval of the unscaled
	// population.
	step := l.thinkCost / int64(l.clients)
	l.firstArrival = func(i int) int64 { return int64(i) * step }
	if r.opt.Quick {
		l.clients = l.clients / 4 * 3 // keep more than one core of load
	}
	// Colors ≡ 0 (mod ncores) home on core 0 under the simulator's
	// paper placement.
	ncores := r.opt.Topology.NumCores()
	l.color = func(i int) equeue.Color { return equeue.Color((i + 1) * ncores) }
	return l.measure(r)
}

// measureConnScale is the C10K shape: 10k mostly-idle connection
// colors, 5k-cycle requests, 2M±1M-cycle pauses, of which only a sliver
// is active at any instant.
func measureConnScale(r *simRun) (*metrics.Run, *overloadState, error) {
	var c ConnScaleParams
	if r.spec.Sim.ConnScale != nil {
		c = *r.spec.Sim.ConnScale
	}
	l := thinkLoop{
		handler:   "connscale-work",
		clients:   cmp.Or(c.Conns, 10_000),
		workCost:  cmp.Or(c.WorkCost, 5_000),
		thinkCost: cmp.Or(c.ThinkCost, 2_000_000),
		thinkSpan: cmp.Or(c.ThinkSpan, 1_000_000),
		// Sequential colors spread across all cores (the paper's
		// color%ncores placement), like connection ids in the real
		// servers.
		color: func(i int) equeue.Color { return equeue.Color(i + 2) },
	}
	l.firstArrival = func(i int) int64 { return int64(i) % l.thinkCost }
	if r.opt.Quick {
		l.clients /= 4
	}
	return l.measure(r)
}
