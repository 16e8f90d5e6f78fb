package equeue

// StealingQueue indexes, per core, the ColorQueues that are currently
// worth stealing: colors whose cumulative (penalty-weighted) processing
// time exceeds the estimated cost of stealing the set (the time-left
// heuristic, section III-B). To balance insertion and lookup costs the
// queue is only partially ordered: it is split into three time-left
// intervals, and ColorQueues are unordered within an interval
// (section IV-B). Thieves take from the highest interval first.
//
// Interval i holds colors with cumCost in [stealCost*4^i, stealCost*4^(i+1))
// (the last interval is unbounded above).
type StealingQueue struct {
	intervals [MaxStealIntervals]stealList
	size      int

	// levels is the number of intervals in use (default
	// NumStealIntervals; configurable for the ablation study).
	levels int

	// stealCost is the current estimate of the time needed to steal one
	// set of events, obtained from the runtime's built-in monitoring.
	stealCost int64
}

// NumStealIntervals is the paper's interval count.
const NumStealIntervals = 3

// MaxStealIntervals bounds the configurable interval count.
const MaxStealIntervals = 8

// intervalGrowth is the geometric width of each interval.
const intervalGrowth = 4

// Len reports how many worthy colors are indexed.
func (s *StealingQueue) Len() int { return s.size }

// SetIntervals reconfigures the interval count (1..MaxStealIntervals).
// Call only on an empty queue; existing classifications are not redone.
func (s *StealingQueue) SetIntervals(n int) {
	if n < 1 {
		n = 1
	}
	if n > MaxStealIntervals {
		n = MaxStealIntervals
	}
	s.levels = n
}

func (s *StealingQueue) numLevels() int {
	if s.levels == 0 {
		return NumStealIntervals
	}
	return s.levels
}

// Interval reports which interval a cumulative cost falls into, or -1 if
// the color is not worthy (cumCost does not exceed the steal cost).
func (s *StealingQueue) Interval(cumCost int64) int {
	threshold := s.stealCost
	if threshold <= 0 {
		threshold = 1
	}
	if cumCost <= threshold {
		return -1
	}
	levels := s.numLevels()
	bound := threshold * intervalGrowth
	for i := 0; i < levels-1; i++ {
		if cumCost < bound {
			return i
		}
		bound *= intervalGrowth
	}
	return levels - 1
}

// reclassify moves cq into the interval matching its current cumCost,
// inserting or removing it as needed. O(1).
func (s *StealingQueue) reclassify(cq *ColorQueue) {
	want := s.Interval(cq.cumCost)
	if want == cq.interval {
		return
	}
	s.remove(cq)
	if want < 0 {
		return
	}
	s.intervals[want].pushBack(cq)
	cq.interval = want
	s.size++
}

// remove unlinks cq from the StealingQueue if present.
func (s *StealingQueue) remove(cq *ColorQueue) {
	if cq.interval < 0 {
		return
	}
	s.intervals[cq.interval].unlink(cq)
	cq.interval = -1
	s.size--
}

// HasWorthy reports whether a steal candidate exists (time-left
// can_be_stolen): some worthy color other than the running one. It
// inspects at most two entries per interval (the running color can block
// only one).
func (s *StealingQueue) HasWorthy(running Color, hasRunning bool) bool {
	for i := s.numLevels() - 1; i >= 0; i-- {
		for cq := s.intervals[i].head; cq != nil; cq = cq.sqNext {
			if !hasRunning || cq.color != running {
				return true
			}
		}
	}
	return false
}

// CollectWorthy appends to buf up to max steal candidates, richest
// intervals first, skipping the running color, and returns the filled
// slice: a steal selects its whole set in one pass over the intervals
// instead of re-walking the queue once per stolen color. The entries stay
// linked; the caller detaches the ones it actually migrates.
func (s *StealingQueue) CollectWorthy(running Color, hasRunning bool, max int, buf []*ColorQueue) []*ColorQueue {
	for i := s.numLevels() - 1; i >= 0 && len(buf) < max; i-- {
		for cq := s.intervals[i].head; cq != nil && len(buf) < max; cq = cq.sqNext {
			if hasRunning && cq.color == running {
				continue
			}
			buf = append(buf, cq)
		}
	}
	return buf
}

type stealList struct {
	head, tail *ColorQueue
}

func (l *stealList) pushBack(cq *ColorQueue) {
	cq.sqPrev = l.tail
	cq.sqNext = nil
	if l.tail != nil {
		l.tail.sqNext = cq
	} else {
		l.head = cq
	}
	l.tail = cq
}

func (l *stealList) unlink(cq *ColorQueue) {
	if cq.sqPrev != nil {
		cq.sqPrev.sqNext = cq.sqNext
	} else {
		l.head = cq.sqNext
	}
	if cq.sqNext != nil {
		cq.sqNext.sqPrev = cq.sqPrev
	} else {
		l.tail = cq.sqPrev
	}
	cq.sqNext, cq.sqPrev = nil, nil
}
