package netsim

import (
	"fmt"

	"gallium/internal/ir"
	"gallium/internal/obs"
	"gallium/internal/packet"
	"gallium/internal/serverrt"
	"gallium/internal/switchsim"
)

// Committer is the one thing the runtimes that drive a Walker differ in:
// who carries a slow-path packet's replicated-state updates to the switch,
// and when they become visible (§4.3.3). Both of internal/engine's drivers
// stage at once; its sequential Testbed flips at a scheduled virtual time,
// each engine worker on its own switch lane before the packet is delivered.
type Committer interface {
	// Due makes every control batch due by virtual time tNs visible to the
	// data plane. The walker calls it before each switch pass; it is the
	// only committer call a fast-path packet makes.
	Due(tNs int64)
	// Commit ships the updates the stage's server recorded for the packet
	// in flight — punt marks a §7 cache-mode batch, whose read-through
	// fills never stall — and returns how many control-plane operations
	// output commit holds the packet for (0: released at once). doneNs is
	// when the server finished with the packet.
	Commit(stage int, updates []switchsim.Update, punt bool, doneNs int64) (stallOps int, err error)
}

// Stage is one middlebox of a walker's pipeline: the compiled switch and
// server pair, or (Switch nil) the software baseline with the switch as a
// plain forwarder.
type Stage struct {
	Switch   *switchsim.Switch
	Server   *serverrt.Server
	Software *serverrt.Software
	// Touch, when non-nil, fires for every switch table hit so the
	// flow-state lifecycle can stamp fast-path liveness.
	Touch func(table string, key ir.MapKey)
	// pass is the walker's own pass context on Switch (set by NewWalker).
	pass *switchsim.Pass
}

// State returns the stage's authoritative middlebox state.
func (st *Stage) State() *ir.State {
	if st.Server != nil {
		return st.Server.State
	}
	return st.Software.State
}

// Verdict is one stage's outcome for a packet.
type Verdict uint8

const (
	// Continue advances the packet to the next stage (or delivery).
	Continue Verdict = iota
	// MBDrop means the stage's middlebox logic dropped the packet.
	MBDrop
	// QueueDrop means the server core's (virtual-time) queue overflowed.
	QueueDrop
)

// Trip describes one packet's trip through one stage.
type Trip struct {
	Verdict Verdict
	// TookSlow means the packet left the switch fast path in this stage.
	TookSlow bool
}

// Walker is the execution core every runtime shares: it carries one packet
// through the paper's Figure 1 trip — links, switch pre-pass, the §7 punt,
// the server core's virtual-time queue, the gallium_a/gallium_b wire hops,
// the server, the output-commit release, the switch post-pass — under the
// cost model, and accounts the result. A Walker is single-goroutine; the
// engine runs one per worker.
type Walker struct {
	Model  CostModel
	Stages []Stage
	// Stats accumulates every walked packet. The control-plane fields are
	// the committer's to fill.
	Stats Stats

	commit Committer
	// coreFreeNs models each server core's occupancy in virtual time.
	// Chained stages share the core, as chained middlebox elements share a
	// DPDK core in the paper's runtime.
	coreFreeNs []int64
	// jitter drives the deterministic endpoint-stack latency noise.
	jitter uint64
	// frame holds the wire bytes of the slow path's switch-server hops.
	frame packet.SerializeBuffer

	// Observability handles (nil-safe; see Instrument).
	hWait *obs.Histogram // server ingress queue wait
	// hStall is the output-commit stall: time a packet is held past server
	// completion waiting for its write-back batch to flip (§4.3.3). Its
	// count is the number of packets held.
	hStall   *obs.Histogram
	corePkts []*obs.Counter
	coreBusy []*obs.Counter
}

// NewWalker builds a walker over the pipeline with the given number of
// server cores. shard selects the switch lane the passes account into; jitterSeed decorrelates the
// endpoint-noise streams of walkers sharing a deployment.
func NewWalker(model CostModel, stages []Stage, cores, shard int, jitterSeed uint64, c Committer) Walker {
	for i := range stages {
		if sw := stages[i].Switch; sw != nil {
			stages[i].pass = sw.NewPass(shard)
		}
	}
	return Walker{Model: model, Stages: stages, commit: c,
		coreFreeNs: make([]int64, cores), jitter: jitterSeed}
}

// Flush publishes the stages' switch-pass counts into the switches' shard
// counters (see switchsim.Pass). The walker's driver calls it wherever a
// reader of Switch.Stats may synchronise with it.
func (w *Walker) Flush() {
	for i := range w.Stages {
		if p := w.Stages[i].pass; p != nil {
			p.Flush()
		}
	}
}

// Instrument registers the server-side queueing and output-commit metrics.
func (w *Walker) Instrument(reg *obs.Registry) {
	w.hWait = reg.Histogram("server.queue.wait_ns", nil)
	w.hStall = reg.Histogram("switch.ctl.stall_ns", nil)
	w.corePkts = make([]*obs.Counter, len(w.coreFreeNs))
	w.coreBusy = make([]*obs.Counter, len(w.coreFreeNs))
	for i := range w.coreFreeNs {
		w.corePkts[i] = reg.Counter(fmt.Sprintf("core.%d.packets", i))
		w.coreBusy[i] = reg.Counter(fmt.Sprintf("core.%d.busy_ns", i))
	}
}

// stackNs returns the endpoint stack latency with deterministic jitter
// (an xorshift stream scaled into ±StackJitterFrac/2).
func (w *Walker) stackNs() float64 {
	m := &w.Model
	if m.StackJitterFrac == 0 {
		return m.EndpointStackNs
	}
	x := w.jitter*2862933555777941757 + 3037000493
	w.jitter = x
	u := float64(x>>11) / float64(1<<53) // [0,1)
	return m.EndpointStackNs * (1 + m.StackJitterFrac*(u-0.5))
}

// Walk runs one packet from the source application at tNs through every
// stage to the sink host. A packet that survives stage i feeds stage i+1
// with its rewritten headers; any stage may drop it. tr, when non-nil,
// receives the hop-by-hop trace.
func (w *Walker) Walk(tNs int64, pkt *packet.Packet, tr *obs.Trace) (Delivery, error) {
	m := &w.Model
	w.Stats.Injected++
	size := pkt.WireLen()
	w.Stats.BytesIn += int64(size)

	// Source stack + first link.
	t := float64(tNs) + w.stackNs() + m.SerializationNs(size) + m.LinkPropNs

	// The fast/slow counters are per packet, not per stage, so a chained
	// pipeline counts like a single middlebox would.
	slow := false
	for si := range w.Stages {
		trip, err := w.stage(si, pkt, &t, tr)
		if err != nil {
			return Delivery{}, err
		}
		if trip.TookSlow && !slow {
			slow = true
			w.Stats.SlowPath++
		}
		switch trip.Verdict {
		case MBDrop:
			w.Stats.MBDrops++
			if !slow {
				w.Stats.FastPath++
			}
			return Delivery{MBDropped: true, FastPath: !slow}, nil
		case QueueDrop:
			w.Stats.QueueDrops++
			return Delivery{QueueDropped: true}, nil
		}
	}
	if !slow {
		w.Stats.FastPath++
	}

	// Final link into the sink host.
	t += m.SerializationNs(pkt.WireLen()) + m.LinkPropNs + w.stackNs()
	d := Delivery{Delivered: true, FastPath: !slow, DeliverNs: int64(t), LatencyNs: int64(t) - tNs}
	w.Stats.Delivered++
	w.Stats.BytesOut += int64(pkt.WireLen())
	if w.Stats.FirstDeliverNs == 0 || d.DeliverNs < w.Stats.FirstDeliverNs {
		w.Stats.FirstDeliverNs = d.DeliverNs
	}
	if d.DeliverNs > w.Stats.LastDeliverNs {
		w.Stats.LastDeliverNs = d.DeliverNs
	}
	if tr != nil { // guard: the Sprintf must not run on the untraced path
		tr.Hop("deliver", d.DeliverNs).SetNote(fmt.Sprintf("latency %.2fµs", float64(d.LatencyNs)/1000))
	}
	return d, nil
}

// pass runs one switch pipeline pass at virtual time atNs, after making
// due control batches visible. The switch's shared trace-hop slot is
// written only when a trace is live, so concurrent untraced walkers never
// touch it.
func (w *Walker) pass(st *Stage, post bool, pkt *packet.Packet, atNs int64, tr *obs.Trace) (switchsim.PreResult, error) {
	w.commit.Due(atNs)
	var hop *obs.Hop
	if tr != nil {
		site := "switch-pre"
		if post {
			site = "switch-post"
		}
		hop = tr.Hop(site, atNs)
		st.Switch.TraceHop(hop)
	}
	var r switchsim.PreResult
	var err error
	if post {
		r, err = st.pass.Post(pkt, st.Touch)
	} else {
		r, err = st.pass.Pre(pkt, st.Touch)
	}
	if hop != nil {
		st.Switch.TraceHop(nil)
		hop.SetSteps(r.Steps)
		if r.Punt {
			hop.SetAction("punt")
		} else {
			hop.SetAction(r.Action.String())
		}
	}
	return r, err
}

// stage carries the packet through one stage: the switch pre-pass, then —
// when the compiled pipeline can't finish it — the slow-path trip to the
// server core and the post-pass back through the switch. On Continue, *t
// is the virtual time at which the packet leaves the stage and pkt
// carries its rewritten headers.
func (w *Walker) stage(si int, pkt *packet.Packet, t *float64, tr *obs.Trace) (Trip, error) {
	m := &w.Model
	st := &w.Stages[si]
	var trip Trip
	software := st.Switch == nil
	punt := false
	if software {
		// The FastClick baseline: plain forwarding through the switch, which
		// the packet reaches on a whole nanosecond.
		*t = float64(int64(*t)) + m.SwitchPipelineNs + m.SerializationNs(pkt.WireLen()) + m.LinkPropNs
	} else {
		pre, err := w.pass(st, false, pkt, int64(*t), tr)
		if err != nil {
			return trip, err
		}
		*t += m.SwitchPipelineNs
		switch {
		case pre.Punt:
			// §7 cache mode: the unmodified packet goes to the server,
			// which runs the full middlebox.
			punt = true
		case pre.Action == ir.ActionDropped:
			tr.Hop("drop", int64(*t)).SetNote("middlebox drop on switch")
			trip.Verdict = MBDrop
			return trip, nil
		case pre.Action == ir.ActionSent:
			return trip, nil
		}
		trip.TookSlow = true
		*t += m.SerializationNs(pkt.WireLen()) + m.LinkPropNs
	}

	// The server core's ingress queue, in virtual time. The NIC steers the
	// frame as it arrives (RSS), so the core follows the pre-pass rewrites.
	core := RSSShard(pkt, len(w.coreFreeNs))
	arrive := int64(*t)
	start := arrive
	if w.coreFreeNs[core] > start {
		start = w.coreFreeNs[core]
	}
	if float64(start-arrive) > m.MaxQueueDelayNs {
		tr.Hop("drop", start).SetNote("server queue overflow")
		trip.Verdict = QueueDrop
		return trip, nil
	}
	trip.TookSlow = true // the baseline counts only packets its server took

	// The frame crosses the switch-server link carrying gallium_a (nothing
	// on a punt), so the server sees the packet the wire format carries.
	site := "server"
	var res serverrt.Result
	var err error
	switch {
	case software:
		res, err = st.Software.Process(pkt)
	case punt:
		site = "server-full"
		if err = w.hop(pkt, nil); err == nil {
			res, err = st.Server.ProcessFull(pkt)
		}
	default:
		if err = w.hop(pkt, st.Server.Res.FormatA); err == nil {
			res, err = st.Server.Process(pkt)
		}
	}
	if err != nil {
		return trip, fmt.Errorf("netsim: stage %d server: %w", si, err)
	}
	// The core is busy only for the CPU service time; the fixed datapath
	// latency (NIC, PCIe, DPDK polling) is pipelined on top.
	busyUntil := start + int64(m.ServerServiceNs(res.Steps))
	w.coreFreeNs[core] = busyUntil
	done := busyUntil + int64(m.ServerDatapathNs)
	w.Stats.ServerCycles += m.ServerCycles(res.Steps)
	if w.corePkts != nil {
		w.corePkts[core].Inc()
		w.coreBusy[core].Add(uint64(busyUntil - start))
		w.hWait.Observe(start - arrive)
	}

	// Output commit (§4.3.3): the packet is held until the control plane
	// has made its replicated-state updates visible on the switch.
	release := done
	if len(res.Updates) > 0 {
		n, err := w.commit.Commit(si, res.Updates, punt, done)
		if err != nil {
			return trip, err
		}
		release = done + int64(m.CtlBatchNs(n))
	}
	if release > done {
		w.hStall.Observe(release - done)
	}
	if tr != nil {
		hop := tr.Hop(site, start)
		hop.SetSteps(res.Steps)
		hop.SetAction(res.Action.String())
		switch {
		case release > done:
			hop.SetNote(fmt.Sprintf("output commit stalled %.2fµs", float64(release-done)/1000))
		case start > arrive:
			hop.SetNote(fmt.Sprintf("queued %.2fµs on core %d", float64(start-arrive)/1000, core))
		}
	}

	if res.Action == ir.ActionDropped {
		tr.Hop("drop", done).SetNote("middlebox drop on server")
		trip.Verdict = MBDrop
		return trip, nil
	}
	if software || punt || res.Action == ir.ActionSent {
		// The server owned the terminator: back out through the switch as
		// plain forwarding.
		*t = float64(release) + m.SerializationNs(pkt.WireLen()) + m.LinkPropNs + m.SwitchPipelineNs
		return trip, nil
	}

	// Back to the switch, carrying gallium_b, for post-processing.
	tBack := float64(release) + m.SerializationNs(pkt.WireLen()) + m.LinkPropNs
	if err := w.hop(pkt, st.Server.Res.FormatB); err != nil {
		return trip, fmt.Errorf("netsim: stage %d switch rx from server: %w", si, err)
	}
	post, err := w.pass(st, true, pkt, int64(tBack), tr)
	if err != nil {
		return trip, err
	}
	tBack += m.SwitchPipelineNs
	if post.Action == ir.ActionDropped {
		tr.Hop("drop", int64(tBack)).SetNote("middlebox drop on switch post-pass")
		trip.Verdict = MBDrop
		return trip, nil
	}
	*t = tBack
	return trip, nil
}

// hop carries pkt over the switch-server link: it serializes the packet
// into the walker's frame buffer and decodes the frame back into pkt, with
// f the Gallium header layout the link carries (nil for none). The ingress
// tag rides outside the wire format, so it survives the hop.
func (w *Walker) hop(pkt *packet.Packet, f *packet.HeaderFormat) error {
	ingress := pkt.Ingress
	err := pkt.Decode(pkt.SerializeTo(&w.frame), f)
	pkt.Ingress = ingress
	return err
}
