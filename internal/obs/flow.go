package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// FlowSpan is one executed event reconstructed from a flight-recorder
// dump: the exec slice plus its causal identifiers. Times are
// microseconds since the runtime epoch (the dump's native unit).
type FlowSpan struct {
	Trace  uint64
	Span   uint64
	Parent uint64

	Handler string
	Color   uint64
	Core    int
	Stolen  bool

	Start float64 // exec start
	End   float64 // exec end
	// PostTs is the sampled post timestamp when the event was picked by
	// the latency sampler; negative when the dump has no post record
	// for this span (unsampled — the common case).
	PostTs float64

	Children []*FlowSpan
}

// ExecMicros is the span's handler wall time.
func (s *FlowSpan) ExecMicros() float64 { return s.End - s.Start }

// FlowIndex reconstructs causal chains from a Chrome trace-event dump
// produced by WriteChrome: spans keyed by id, grouped per trace, with
// parent→child edges resolved.
type FlowIndex struct {
	// Spans maps span id → span for every exec record in the dump.
	Spans map[uint64]*FlowSpan
	// Traces groups spans per trace id, sorted by exec start.
	Traces map[uint64][]*FlowSpan
	// Roots holds, per trace, the spans with no parent (ingress posts).
	Roots map[uint64][]*FlowSpan
	// Orphans are spans with a nonzero Parent that is absent from the
	// dump — a broken chain (or a parent already overwritten in the
	// ring; callers decide how strict to be).
	Orphans []*FlowSpan
}

// ParseFlowDump reads a Chrome trace-event array written by WriteChrome
// and rebuilds the causal-flow index from the exec records' trace/span/
// parent args (and the sampled post instants' timestamps).
func ParseFlowDump(r io.Reader) (*FlowIndex, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var events []ChromeEvent
	if err := json.Unmarshal(raw, &events); err != nil {
		return nil, fmt.Errorf("obs: flow dump is not a Chrome trace-event array: %w", err)
	}
	argU64 := func(args map[string]any, key string) uint64 {
		if v, ok := args[key]; ok {
			if f, ok := v.(float64); ok && f > 0 {
				return uint64(f)
			}
		}
		return 0
	}
	idx := &FlowIndex{
		Spans:  map[uint64]*FlowSpan{},
		Traces: map[uint64][]*FlowSpan{},
		Roots:  map[uint64][]*FlowSpan{},
	}
	postTs := map[uint64]float64{} // span id → sampled post timestamp
	for _, ev := range events {
		span := argU64(ev.Args, "span")
		if span == 0 {
			continue
		}
		switch ev.Phase {
		case "X":
			_, stolen := ev.Args["stolen"]
			idx.Spans[span] = &FlowSpan{
				Trace:   argU64(ev.Args, "trace"),
				Span:    span,
				Parent:  argU64(ev.Args, "parent"),
				Handler: ev.Name,
				Color:   argU64(ev.Args, "color"),
				Core:    ev.TID,
				Stolen:  stolen,
				Start:   ev.TsMicros,
				End:     ev.TsMicros + ev.DurUs,
				PostTs:  -1,
			}
		case "i":
			// Sampled post instants carry the post time for the span
			// they created, and a timer instant's timestamp is the
			// moment the fired event entered its queue; either gives an
			// exact queue delay. Other instants (spill, stall) carry
			// span ids too but not enqueue times — skip them.
			if !strings.HasPrefix(ev.Name, "post ") && ev.Name != "timer" {
				continue
			}
			if ts, ok := postTs[span]; !ok || ev.TsMicros < ts {
				postTs[span] = ev.TsMicros
			}
		}
	}
	for _, s := range idx.Spans {
		if ts, ok := postTs[s.Span]; ok {
			s.PostTs = ts
		}
		idx.Traces[s.Trace] = append(idx.Traces[s.Trace], s)
		if s.Parent == 0 {
			idx.Roots[s.Trace] = append(idx.Roots[s.Trace], s)
			continue
		}
		if p, ok := idx.Spans[s.Parent]; ok {
			p.Children = append(p.Children, s)
		} else {
			idx.Orphans = append(idx.Orphans, s)
		}
	}
	for _, spans := range idx.Traces {
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	}
	for _, s := range idx.Spans {
		sort.Slice(s.Children, func(i, j int) bool { return s.Children[i].Start < s.Children[j].Start })
	}
	sort.Slice(idx.Orphans, func(i, j int) bool { return idx.Orphans[i].Start < idx.Orphans[j].Start })
	return idx, nil
}

// QueueDelayMicros is the time the span's event sat queued before its
// handler ran: exact (exec start − post time) when the event was picked
// by the latency sampler, otherwise estimated as the gap between the
// parent handler's return and this span's exec start (clamped at zero —
// a handler can post mid-execution). Zero for unsampled roots.
func (idx *FlowIndex) QueueDelayMicros(s *FlowSpan) float64 {
	if s.PostTs >= 0 {
		if d := s.Start - s.PostTs; d > 0 {
			return d
		}
		return 0
	}
	if p, ok := idx.Spans[s.Parent]; ok {
		if d := s.Start - p.End; d > 0 {
			return d
		}
	}
	return 0
}

// Connected reports whether every span of the trace with a nonzero
// parent has that parent present in the dump — i.e. the trace renders
// as one connected flow with no broken arrows.
func (idx *FlowIndex) Connected(trace uint64) bool {
	for _, s := range idx.Traces[trace] {
		if s.Parent != 0 {
			if _, ok := idx.Spans[s.Parent]; !ok {
				return false
			}
		}
	}
	return len(idx.Traces[trace]) > 0
}

// Depth is the longest root→leaf chain length in the trace (a lone
// root counts 1). Orphan subtrees are measured from the orphan.
func (idx *FlowIndex) Depth(trace uint64) int {
	var walk func(s *FlowSpan) int
	walk = func(s *FlowSpan) int {
		best := 0
		for _, c := range s.Children {
			if d := walk(c); d > best {
				best = d
			}
		}
		return best + 1
	}
	best := 0
	for _, s := range idx.Traces[trace] {
		if s.Parent != 0 {
			if _, ok := idx.Spans[s.Parent]; ok {
				continue // counted from its root
			}
		}
		if d := walk(s); d > best {
			best = d
		}
	}
	return best
}

// BusiestTrace returns the trace id with the most spans (ties broken
// toward the lower id for determinism), or zero on an empty index.
func (idx *FlowIndex) BusiestTrace() uint64 {
	var best uint64
	bestN := 0
	for t, spans := range idx.Traces {
		if t == 0 {
			continue
		}
		if len(spans) > bestN || (len(spans) == bestN && t < best) {
			best, bestN = t, len(spans)
		}
	}
	return best
}

// CriticalPath is the chain from the trace's root to the span that
// finished last — the hops that bound the trace's end-to-end latency.
// Returned root-first; empty when the trace is unknown. Timestamps are
// whole microseconds, so a span can end in the tick an ancestor ends
// in: of two equal ends the deeper span finished last (it ended after
// its ancestor began), and of two equally deep ones the lower span id
// wins, so that the answer does not depend on the order of the dump.
func (idx *FlowIndex) CriticalPath(trace uint64) []*FlowSpan {
	depth := func(s *FlowSpan) (d int) {
		for p := idx.Spans[s.Parent]; p != nil && d < len(idx.Spans); p = idx.Spans[p.Parent] {
			d++
		}
		return d
	}
	after := func(a, b *FlowSpan) bool {
		if a.End != b.End {
			return a.End > b.End
		}
		if da, db := depth(a), depth(b); da != db {
			return da > db
		}
		return a.Span < b.Span
	}
	var last *FlowSpan
	for _, s := range idx.Traces[trace] {
		if last == nil || after(s, last) {
			last = s
		}
	}
	if last == nil {
		return nil
	}
	var path []*FlowSpan
	seen := map[uint64]bool{}
	for s := last; s != nil && !seen[s.Span]; {
		seen[s.Span] = true
		path = append(path, s)
		s = idx.Spans[s.Parent]
	}
	// Reverse to root-first order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}
