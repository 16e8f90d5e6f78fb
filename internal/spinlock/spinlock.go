// Package spinlock provides the per-core queue lock of the real
// runtime: a padded test-and-test-and-set spinlock. The paper's runtime
// spins without yielding ("there is no interest in yielding cores, only
// one thread per core, if energy is not a concern"); on a Go runtime we
// must eventually yield to the scheduler — a worker goroutine may share
// an OS thread with the lock holder, in particular when GOMAXPROCS is
// smaller than the worker count — so the spin is bounded.
package spinlock

import (
	"runtime"
	"sync/atomic"
)

// spinsBeforeYield bounds the busy-wait between scheduler yields. It is
// sized to outlast the runtime's longest common critical sections — the
// owner filing a batch's arrivals, a steal's detach; a 32-event batch
// filed under the lock held it 7.6µs on average on events_chain (2
// vCPUs) — because a contender that yields sooner gives its processor
// away on every collision, and with goroutine workers a producer and a
// worker then run in lock-step. No bound outlasts a holder that is
// descheduled with the lock held, which keeps it for milliseconds: the
// yield is what lets that holder run again.
const spinsBeforeYield = 4096

// Lock is a TTAS spinlock padded to its own cache line so that locks of
// neighboring cores do not false-share.
type Lock struct {
	state atomic.Int32
	_     [60]byte // pad to a 64-byte line
}

// Lock acquires l, spinning with bounded busy-wait.
func (l *Lock) Lock() {
	for {
		if l.state.CompareAndSwap(0, 1) {
			return
		}
		spins := 0
		for l.state.Load() != 0 {
			spins++
			if spins >= spinsBeforeYield {
				runtime.Gosched()
				spins = 0
			}
		}
	}
}

// TryLock acquires l if it is free.
func (l *Lock) TryLock() bool {
	return l.state.CompareAndSwap(0, 1)
}

// Unlock releases l. It must be held.
func (l *Lock) Unlock() {
	l.state.Store(0)
}
