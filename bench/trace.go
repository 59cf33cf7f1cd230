package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span names: one per public call the walker wraps, plus the packet's
// root span.
const (
	spanPacket uint8 = iota
	spanDecode
	spanSerialize
	spanPre
	spanServer
	spanWriteback
	spanFold
	spanPost
	spanSweep
)

var spanNames = [...]string{
	spanPacket:    "packet",
	spanDecode:    "packet.decode",
	spanSerialize: "packet.serialize",
	spanPre:       "switchsim.pre",
	spanServer:    "serverrt.process",
	spanWriteback: "switchsim.writeback",
	spanFold:      "switchsim.fold",
	spanPost:      "switchsim.post",
	spanSweep:     "flowstate.sweep",
}

// span is one timed call into a layer's public function. start and end
// are ns since the tracer was made; parent indexes the span that caused
// it (-1 for a packet's root); req is the packet's sequence number, so
// the spans of one packet share an identifier.
type span struct {
	start, end int64
	req        int64
	parent     int32
	name       uint8
}

// tracer keeps spans in memory; they are written out when the run ends.
// With on false, begin and end do nothing: the same walker code then
// runs untraced, which is how the tracing overhead is measured.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	// clockNs is what one clock read costs here. A span's measured
	// duration contains about one read that is not the callee's time;
	// selfTimes takes it back out.
	clockNs float64
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
	const reads = 200_000
	var sink time.Duration
	for i := 0; i < reads; i++ {
		sink += time.Since(t.t0)
	}
	t.clockNs = float64(time.Since(t.t0)) / reads
	if sink < 0 {
		t.clockNs = 0
	}
	return t
}

func (t *tracer) begin(name uint8, parent int32, req int64) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, req: req, start: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].end = int64(time.Since(t.t0))
	}
}

// layerRow is one line of the layer budget: a layer's self time per
// packet (its spans' durations minus the part their children cover).
type layerRow struct {
	Layer      string  `json:"layer"`
	NsPerPkt   float64 `json:"self_ns_per_pkt"`
	CallsPerPk float64 `json:"calls_per_pkt"`
}

// selfTimes folds spans[lo:hi] (whole packets) into per-layer self time
// per root span (packet), each span's duration less one clock read. The
// root's own self time is the walker's loop and its children's clock
// reads: it is reported as "bench.walker".
func (t *tracer) selfTimes(lo, hi int) (rows []layerRow, packets int) {
	self := map[string]float64{}
	calls := map[string]float64{}
	spans := t.spans[lo:hi]
	child := make([]int64, len(spans))
	for i := range spans {
		if p := spans[i].parent; p >= 0 {
			child[int(p)-lo] += spans[i].end - spans[i].start
		}
	}
	for i := range spans {
		sp := &spans[i]
		name := spanNames[sp.name]
		d := float64(sp.end - sp.start - child[i])
		if sp.parent < 0 {
			packets++
			name = "bench.walker"
		} else {
			d = max(0, d-t.clockNs)
		}
		self[name] += d
		calls[name]++
	}
	if packets == 0 {
		return nil, 0
	}
	for name, ns := range self {
		rows = append(rows, layerRow{Layer: name, NsPerPkt: ns / float64(packets), CallsPerPk: calls[name] / float64(packets)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].NsPerPkt > rows[j].NsPerPkt })
	return rows, packets
}

// write stores the spans, and the budget derived from them, as one JSON
// document.
func (t *tracer) write(path, workload string, budget []layerRow) error {
	type jsonSpan struct {
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int32  `json:"parent"`
		Req    int64  `json:"req"`
	}
	out := make([]jsonSpan, len(t.spans))
	for i, sp := range t.spans {
		out[i] = jsonSpan{spanNames[sp.name], sp.start, sp.end, sp.parent, sp.req}
	}
	data, err := json.Marshal(struct {
		Workload    string     `json:"workload"`
		ClockReadNs float64    `json:"clock_read_ns"`
		Budget      []layerRow `json:"budget"`
		Spans       []jsonSpan `json:"spans"`
	}{workload, t.clockNs, budget, out})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
