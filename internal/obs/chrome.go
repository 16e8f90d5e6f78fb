package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// ChromeEvent is one entry of the Chrome trace-event JSON array: "X"
// complete events, "i" instants, "M" track names and "s"/"f" flow
// arrows, with microsecond timestamps. Live flight-recorder dumps and
// simulator runs are both written through it, and ParseFlowDump and
// melytrace -validate-trace read them back through it.
type ChromeEvent struct {
	Name     string         `json:"name"`
	Phase    string         `json:"ph"`
	Cat      string         `json:"cat,omitempty"`
	ID       string         `json:"id,omitempty"`
	BindPt   string         `json:"bp,omitempty"`
	TsMicros float64        `json:"ts"`
	DurUs    float64        `json:"dur,omitempty"`
	PID      int            `json:"pid"`
	TID      int            `json:"tid"`
	Scope    string         `json:"s,omitempty"`
	Args     map[string]any `json:"args,omitempty"`
}

// Track is one row of a dump: a name ("core 0", "io/spill") and its
// decoded records, oldest first. A track's index is its Chrome tid.
type Track struct {
	Name   string
	Events []Event
}

// ChromeConfig parameterizes a dump.
type ChromeConfig struct {
	// HandlerName resolves a handler id to a span label; nil or an
	// empty return falls back to "handler <id>".
	HandlerName func(id uint32) string
}

func (c ChromeConfig) handlerName(id uint32) string {
	if c.HandlerName != nil {
		if s := c.HandlerName(id); s != "" {
			return s
		}
	}
	return fmt.Sprintf("handler %d", id)
}

const microsPerNano = 1e-3

// WriteChrome writes the tracks — a runtime's per-core rings plus its
// auxiliary spill/reload/poll ring, or a simulator's per-core timeline —
// as a Chrome trace-event JSON array. Timestamps are nanoseconds since
// the run's epoch, rendered in microseconds.
func WriteChrome(w io.Writer, tracks []Track, cfg ChromeConfig) error {
	out := []ChromeEvent{} // never nil: an empty dump must encode as []
	// Flow-arrow bookkeeping: an exec record whose Parent names another
	// exec record's Span becomes a Perfetto flow edge, rendered as an
	// arrow from the parent slice to the child slice across tracks.
	type execLoc struct {
		tid        int
		start, end float64
	}
	type flowEdge struct {
		parent, child uint64
		childTID      int
		childTs       float64
	}
	spanLocs := map[uint64]execLoc{}
	var edges []flowEdge
	flowIDs := func(ev Event, args map[string]any) {
		if ev.Trace != 0 {
			args["trace"] = ev.Trace
		}
		if ev.Span != 0 {
			args["span"] = ev.Span
		}
		if ev.Parent != 0 {
			args["parent"] = ev.Parent
		}
	}
	decode := func(tid int, evs []Event) {
		for _, ev := range evs {
			ce := ChromeEvent{
				Phase:    "X",
				TsMicros: float64(ev.Ts) * microsPerNano,
				DurUs:    float64(ev.Dur) * microsPerNano,
				TID:      tid,
			}
			// Executions and steals are spans; every other record is a
			// thread-scoped instant (its Dur, if any, rides in the args).
			if ev.Kind != KindExec && ev.Kind != KindSteal {
				ce.Phase, ce.Scope, ce.DurUs = "i", "t", 0
			}
			switch ev.Kind {
			case KindExec:
				id := ev.N &^ StolenFlag
				ce.Name = cfg.handlerName(id)
				ce.Args = map[string]any{"color": ev.Arg}
				if ev.N&StolenFlag != 0 {
					ce.Args["stolen"] = true
				}
				flowIDs(ev, ce.Args)
				if ev.Span != 0 {
					spanLocs[ev.Span] = execLoc{tid, ce.TsMicros, ce.TsMicros + ce.DurUs}
					if ev.Parent != 0 {
						edges = append(edges, flowEdge{ev.Parent, ev.Span, tid, ce.TsMicros})
					}
				}
			case KindSteal:
				if ev.N == 0 {
					ce.Name = "steal (failed)"
					break
				}
				ce.Name = fmt.Sprintf("STEAL ×%d", ev.N)
				ce.Args = map[string]any{"victim": ev.Arg, "colors": ev.N}
			case KindPost:
				ce.Name = "post " + cfg.handlerName(ev.N)
				ce.Args = map[string]any{"color": ev.Arg}
				flowIDs(ev, ce.Args)
			case KindReHome:
				ce.Name = "re-home"
				ce.Args = map[string]any{"color": ev.Arg, "home": ev.N}
			case KindSpill:
				ce.Name = "spill"
				ce.Args = map[string]any{"color": ev.Arg, "disk_depth": ev.N}
				flowIDs(ev, ce.Args)
			case KindReload:
				ce.Name = fmt.Sprintf("reload ×%d", ev.N)
				ce.Args = map[string]any{"color": ev.Arg}
			case KindTimerFire:
				ce.Name = "timer"
				ce.Args = map[string]any{
					"color":  ev.Arg,
					"lag_us": float64(ev.Dur) * microsPerNano,
				}
				flowIDs(ev, ce.Args)
			case KindPollWake:
				ce.Name = fmt.Sprintf("poll ×%d", ev.N)
			case KindStall:
				ce.Name = "STALL"
				ce.Args = map[string]any{
					"core":       ev.Arg,
					"handler":    ev.N,
					"stalled_us": float64(ev.Dur) * microsPerNano,
				}
				flowIDs(ev, ce.Args)
			default:
				continue
			}
			out = append(out, ce)
		}
	}
	for tid, tr := range tracks {
		out = append(out, ChromeEvent{
			Name:  "thread_name",
			Phase: "M",
			TID:   tid,
			Args:  map[string]any{"name": tr.Name},
		})
		decode(tid, tr.Events)
	}
	// Emit one flow "s"/"f" pair per parent→child edge whose parent
	// exec record is still in the rings. The start point is clamped
	// inside the parent slice (a handler usually posts before it
	// returns, and Perfetto drops arrows that run backwards in time);
	// the finish binds to the enclosing child slice (bp "e").
	for _, e := range edges {
		loc, ok := spanLocs[e.parent]
		if !ok {
			continue
		}
		sTs := loc.end
		if e.childTs < sTs {
			sTs = e.childTs
		}
		if sTs < loc.start {
			sTs = loc.start
		}
		id := fmt.Sprintf("%x", e.child)
		out = append(out,
			ChromeEvent{Name: "flow", Phase: "s", Cat: "flow", ID: id,
				TsMicros: sTs, TID: loc.tid},
			ChromeEvent{Name: "flow", Phase: "f", Cat: "flow", ID: id, BindPt: "e",
				TsMicros: e.childTs, TID: e.childTID})
	}
	// Perfetto tolerates unordered input, but sorted output diffs
	// cleanly and streams better in chrome://tracing.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Phase == "M" != (out[j].Phase == "M") {
			return out[i].Phase == "M"
		}
		return out[i].TsMicros < out[j].TsMicros
	})
	enc := json.NewEncoder(w)
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("obs: encode trace: %w", err)
	}
	return nil
}
