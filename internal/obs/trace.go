package obs

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// TraceRecorder keeps the first N packets' hop-by-hop traces. Start hands
// out a *Trace until N have been started; each trace is then appended to
// by exactly one goroutine, the walker carrying its packet, and End
// publishes it. Traces shows ended traces only, so a reader never copies
// hops another goroutine is still appending.
type TraceRecorder struct {
	mu       sync.Mutex
	capacity int
	started  int
	ended    []*Trace
}

// Start begins a new trace for a packet described by summary (typically
// the five-tuple). Returns nil when the recorder is nil or full: it never
// frees a slot, so once Start returns nil it always will.
func (tr *TraceRecorder) Start(summary string) *Trace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.started >= tr.capacity {
		return nil
	}
	t := &Trace{ID: tr.started, Packet: summary}
	tr.started++
	return t
}

// End publishes a trace Start handed out, once its packet's trip is over;
// the trace must not change afterwards. Nil-safe, and inlined, so an
// untraced walk pays one nil check.
func (tr *TraceRecorder) End(t *Trace) {
	if tr != nil && t != nil {
		tr.end(t)
	}
}

func (tr *TraceRecorder) end(t *Trace) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.ended = append(tr.ended, t)
}

// Traces returns copies of the ended traces, in Start order.
func (tr *TraceRecorder) Traces() []Trace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]Trace, len(tr.ended))
	for i, t := range tr.ended {
		out[i] = *t
		out[i].Hops = append([]*Hop(nil), t.Hops...)
	}
	slices.SortFunc(out, func(a, b Trace) int { return a.ID - b.ID })
	return out
}

// Trace is one packet's trip through the deployment.
type Trace struct {
	ID     int    `json:"id"`
	Packet string `json:"packet"`
	Hops   []*Hop `json:"hops"`
}

// Hop appends a hop at the given site and simulated time. Nil-safe.
func (t *Trace) Hop(site string, atNs int64) *Hop {
	if t == nil {
		return nil
	}
	h := &Hop{Site: site, AtNs: atNs}
	t.Hops = append(t.Hops, h)
	return h
}

// Format renders the trace as indented text with per-hop deltas.
func (t *Trace) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace #%d %s\n", t.ID, t.Packet)
	var t0 int64
	if len(t.Hops) > 0 {
		t0 = t.Hops[0].AtNs
	}
	for _, h := range t.Hops {
		fmt.Fprintf(&b, "  +%-9.2fµs %-12s", float64(h.AtNs-t0)/1000, h.Site)
		if h.Action != "" {
			fmt.Fprintf(&b, " action=%s", h.Action)
		}
		if h.Steps > 0 {
			fmt.Fprintf(&b, " steps=%d", h.Steps)
		}
		for _, l := range h.Lookups {
			outcome := "miss"
			if l.Hit {
				outcome = "hit"
			}
			fmt.Fprintf(&b, " %s=%s", l.Table, outcome)
		}
		if h.Note != "" {
			fmt.Fprintf(&b, " (%s)", h.Note)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Hop is one stage of a packet's trip: a pipeline pass, the server, or a
// terminal event (deliver/drop).
type Hop struct {
	Site    string      `json:"site"`
	AtNs    int64       `json:"at_ns"`
	Action  string      `json:"action,omitempty"`
	Steps   int         `json:"steps,omitempty"`
	Lookups []HopLookup `json:"lookups,omitempty"`
	Note    string      `json:"note,omitempty"`
}

// HopLookup is one table lookup performed during a hop.
type HopLookup struct {
	Table string `json:"table"`
	Hit   bool   `json:"hit"`
}

// Lookup records a table lookup outcome. Nil-safe.
func (h *Hop) Lookup(table string, hit bool) {
	if h == nil {
		return
	}
	h.Lookups = append(h.Lookups, HopLookup{Table: table, Hit: hit})
}

// SetNote attaches free-form detail (e.g. the measured latency). Nil-safe.
func (h *Hop) SetNote(n string) {
	if h == nil {
		return
	}
	h.Note = n
}
