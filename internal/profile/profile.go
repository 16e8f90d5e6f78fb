// Package profile implements the measurement side of the time-left
// heuristic (sections III-B and IV-B of the paper):
//
//   - per-handler average execution times, which the paper obtains "by
//     first profiling the application and then annotating the code of
//     handlers", and which section VII proposes to learn online — both
//     modes are provided (static annotation and EWMA learning);
//   - the average cost of stealing one set of events, obtained "from the
//     runtime built-in monitoring facilities".
package profile

import "sync/atomic"

// ewmaShift controls the exponential moving average weight: the new
// sample contributes 1/2^ewmaShift. 1/8 follows common RTT estimators.
const ewmaShift = 3

// ewmaStep moves the estimate old toward sample by 1/2^ewmaShift of the
// gap, and by one when the gap is too small for the shift to see, so
// the estimate always reaches a stable sample.
func ewmaStep(old, sample int64) int64 {
	next := old + (sample-old)>>ewmaShift
	if next == old && sample != old {
		if sample > old {
			return old + 1
		}
		return old - 1
	}
	return next
}

// HandlerProfile tracks the estimated execution time of one handler in
// cycles. Reads and updates are lock-free so cores can update profiles
// concurrently in the real runtime; the simulator uses them
// single-threaded.
type HandlerProfile struct {
	// estCycles is the current estimate. Annotated handlers start at
	// the annotation; unannotated ones learn from zero.
	estCycles atomic.Int64
	// annotated freezes the estimate to the programmer's annotation
	// (the paper's mode); when false the estimate is learned (EWMA).
	annotated atomic.Bool
	samples   atomic.Int64
}

// Annotate pins the handler's estimate to the given cycle count, as the
// paper's programmer does after a profiling phase.
func (p *HandlerProfile) Annotate(cycles int64) {
	p.estCycles.Store(cycles)
	p.annotated.Store(true)
}

// Annotated reports whether the estimate is pinned.
func (p *HandlerProfile) Annotated() bool { return p.annotated.Load() }

// Observe folds a measured execution time into the estimate (ignored for
// annotated handlers). The underlying assumption, which the paper states,
// is that a given handler has a relatively stable execution time.
func (p *HandlerProfile) Observe(cycles int64) {
	p.samples.Add(1)
	if p.annotated.Load() {
		return
	}
	for {
		old := p.estCycles.Load()
		next := cycles // the first sample is the estimate
		if old != 0 {
			next = ewmaStep(old, cycles)
		}
		if p.estCycles.CompareAndSwap(old, next) {
			return
		}
	}
}

// Estimate returns the current per-execution estimate in cycles.
func (p *HandlerProfile) Estimate() int64 { return p.estCycles.Load() }

// Samples reports how many executions have been observed.
func (p *HandlerProfile) Samples() int64 { return p.samples.Load() }

// StealCostMonitor estimates the average time to steal one set of events,
// the threshold against which the time-left heuristic classifies colors
// as worthy. It seeds from a configured default until real measurements
// arrive.
type StealCostMonitor struct {
	est     atomic.Int64
	seeded  atomic.Bool
	samples atomic.Int64
}

// NewStealCostMonitor returns a monitor seeded with the given estimate.
func NewStealCostMonitor(seed int64) *StealCostMonitor {
	m := &StealCostMonitor{}
	m.est.Store(seed)
	return m
}

// Observe folds the measured cost of one steal into the estimate.
func (m *StealCostMonitor) Observe(cycles int64) {
	m.samples.Add(1)
	if !m.seeded.Swap(true) {
		m.est.Store(cycles)
		return
	}
	for {
		old := m.est.Load()
		if m.est.CompareAndSwap(old, ewmaStep(old, cycles)) {
			return
		}
	}
}

// Estimate returns the current steal-cost estimate in cycles.
func (m *StealCostMonitor) Estimate() int64 { return m.est.Load() }

// Samples reports the number of observed steals.
func (m *StealCostMonitor) Samples() int64 { return m.samples.Load() }

// Table bundles the profiles of all registered handlers.
type Table struct {
	profiles []*HandlerProfile
}

// NewTable returns a table with capacity for n handlers.
func NewTable(n int) *Table {
	t := &Table{profiles: make([]*HandlerProfile, n)}
	for i := range t.profiles {
		t.profiles[i] = &HandlerProfile{}
	}
	return t
}

// Grow ensures the table covers handler ids up to n-1.
func (t *Table) Grow(n int) {
	for len(t.profiles) < n {
		t.profiles = append(t.profiles, &HandlerProfile{})
	}
}

// Handler returns the profile for handler id h.
func (t *Table) Handler(h int) *HandlerProfile { return t.profiles[h] }

// Len reports the number of profiled handlers.
func (t *Table) Len() int { return len(t.profiles) }
