package engine

import (
	"fmt"

	"gallium/internal/ir"
	"gallium/internal/obs"
	"gallium/internal/packet"
	"gallium/internal/serverrt"
	"gallium/internal/switchsim"
)

// committer is the one thing the drivers of a walker differ in: who
// carries a slow-path packet's replicated-state updates to the switch, and
// when they become visible (§4.3.3). Both drivers stage at once; the
// sequential Testbed flips at a scheduled virtual time, each engine worker
// on its own switch lane before the packet is delivered.
type committer interface {
	// Due makes every control batch due by virtual time tNs visible to the
	// data plane. The walker calls it before each switch pass; it is the
	// only committer call a fast-path packet makes.
	Due(tNs int64)
	// ship carries the updates the stage's server recorded for the packet
	// in flight — punt marks a §7 cache-mode batch, whose read-through
	// fills never stall — and returns how many control-plane operations
	// output commit holds the packet for (0: released at once). doneNs is
	// when the server finished with the packet. The updates are the
	// server's to reuse once ship returns.
	ship(stage int, updates []switchsim.Update, punt bool, doneNs int64) (stallOps int, err error)
}

// walkStage is one middlebox of a walker's pipeline: the compiled switch
// and server pair, or (Switch nil) the software baseline with the switch as
// a plain forwarder.
type walkStage struct {
	Switch   *switchsim.Switch
	Server   *serverrt.Server
	Software *serverrt.Software
	// Touch, when non-nil, fires for every switch table hit so the
	// flow-state lifecycle can stamp fast-path liveness.
	Touch func(table string, key ir.MapKey)
	// pass is the walker's own pass context on Switch (set by newWalker).
	pass *switchsim.Pass
}

// State returns the stage's authoritative middlebox state.
func (st *walkStage) State() *ir.State {
	if st.Server != nil {
		return st.Server.State
	}
	return st.Software.State
}

// verdict is one stage's outcome for a packet.
type verdict uint8

const (
	// continued advances the packet to the next stage (or delivery).
	continued verdict = iota
	// mbDrop means the stage's middlebox logic dropped the packet.
	mbDrop
	// queueDrop means the server core's (virtual-time) queue overflowed.
	queueDrop
)

// walker is the execution core both drivers share: it carries one packet
// through the paper's Figure 1 trip — links, switch pre-pass, the §7 punt,
// the server core's virtual-time queue, the gallium_a/gallium_b wire hops,
// the server, the output-commit release, the switch post-pass — under the
// cost model, and accounts the result. A walker is single-goroutine; the
// engine runs one per worker.
type walker struct {
	Model  CostModel
	Stages []walkStage
	// Stats accumulates every walked packet. The control-plane fields are
	// the committer's to fill.
	Stats Stats

	commit committer
	// coreFreeNs models each server core's occupancy in virtual time.
	// Chained stages share the core, as chained middlebox elements share a
	// DPDK core in the paper's runtime.
	coreFreeNs []int64
	// jitter drives the deterministic endpoint-stack latency noise.
	jitter uint64
	// frame holds the wire bytes of the slow path's switch-server hops.
	frame packet.SerializeBuffer

	// Metrics are the walker's own observations, which its driver
	// registers (merged with its other walkers') by name.
	Metrics walkMetrics
	// tracer hands out hop traces once Instrument has found tracing on;
	// the walker drops it when the recorder is full.
	tracer *obs.TraceRecorder
}

// walkMetrics are one walker's parts of its deployment's metrics. The
// latency histograms are always kept (reports read them); the rest stay nil
// until Instrument, so an unobserved walker pays one nil check for them.
type walkMetrics struct {
	// Fast and Slow hold the end-to-end latency of delivered packets that
	// did and did not stay on the switch fast path.
	Fast, Slow *obs.Histogram
	// Wait is the server ingress queue wait. Stall is the output-commit
	// stall: time a packet is held past server completion waiting for its
	// write-back batch to flip (§4.3.3); its count is the packets held.
	Wait, Stall *obs.Histogram
	// Cores counts each simulated server core's packets and busy time.
	Cores []coreCounts
}

// coreCounts are one server core's packet count and busy virtual time.
type coreCounts struct {
	Packets, BusyNs obs.Counter
}

// newWalker builds a walker over the pipeline with the given number of
// server cores. shard selects the switch lane the passes account into; jitterSeed decorrelates the
// endpoint-noise streams of walkers sharing a deployment.
func newWalker(model CostModel, stages []walkStage, cores, shard int, jitterSeed uint64, c committer) walker {
	for i := range stages {
		if sw := stages[i].Switch; sw != nil {
			stages[i].pass = sw.NewPass(shard)
		}
	}
	return walker{Model: model, Stages: stages, commit: c,
		coreFreeNs: make([]int64, cores), jitter: jitterSeed,
		Metrics: walkMetrics{Fast: obs.NewHistogram(nil), Slow: obs.NewHistogram(nil)}}
}

// Flush publishes the stages' switch-pass counts into the switches' shard
// counters (see switchsim.Pass). The walker's driver calls it wherever a
// reader of Switch.Stats may synchronise with it.
func (w *walker) Flush() {
	for i := range w.Stages {
		if p := w.Stages[i].pass; p != nil {
			p.Flush()
		}
	}
}

// Instrument registers the stages' servers with reg, takes hop traces from
// its tracer, and starts the walker's queue-wait, stall and per-core
// metrics. It must run before the walker's first packet.
func (w *walker) Instrument(reg *obs.Registry) {
	for _, st := range w.Stages {
		if st.Server != nil {
			st.Server.Instrument(reg)
		} else {
			st.Software.Instrument(reg)
		}
	}
	w.tracer = reg.Tracer()
	w.Metrics.Wait, w.Metrics.Stall = obs.NewHistogram(nil), obs.NewHistogram(nil)
	w.Metrics.Cores = make([]coreCounts, len(w.coreFreeNs))
}

// stackNs returns the endpoint stack latency with deterministic jitter
// (an xorshift stream scaled into ±StackJitterFrac/2).
func (w *walker) stackNs() float64 {
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
// stage to the sink host and sets its fate in d, a zero Delivery whose
// other fields the driver fills (filling the caller's d spares a copy of
// the whole struct per packet). A packet that survives stage i feeds
// stage i+1 with its rewritten headers; any stage may drop it. A delivered
// packet's latency lands in Metrics.Fast or .Slow; while the registry's
// recorder has room, the packet's hops land in a trace the walk ends.
func (w *walker) Walk(tNs int64, pkt *packet.Packet, d *Delivery) error {
	var tr *obs.Trace
	if w.tracer != nil {
		tr = w.startTrace(tNs, pkt)
	}
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
		v, tookSlow, err := w.stage(si, pkt, &t, tr)
		if err != nil {
			w.tracer.End(tr)
			return err
		}
		if tookSlow && !slow {
			slow = true
			w.Stats.SlowPath++
		}
		switch v {
		case mbDrop:
			w.Stats.MBDrops++
			if !slow {
				w.Stats.FastPath++
			}
			w.tracer.End(tr)
			d.MBDropped, d.FastPath = true, !slow
			return nil
		case queueDrop:
			w.Stats.QueueDrops++
			w.tracer.End(tr)
			d.QueueDropped = true
			return nil
		}
	}
	if !slow {
		w.Stats.FastPath++
	}

	// Final link into the sink host.
	t += m.SerializationNs(pkt.WireLen()) + m.LinkPropNs + w.stackNs()
	deliverNs := int64(t)
	latencyNs := deliverNs - tNs
	d.Delivered, d.FastPath, d.DeliverNs, d.LatencyNs = true, !slow, deliverNs, latencyNs
	w.Stats.Delivered++
	w.Stats.BytesOut += int64(pkt.WireLen())
	if w.Stats.FirstDeliverNs == 0 || deliverNs < w.Stats.FirstDeliverNs {
		w.Stats.FirstDeliverNs = deliverNs
	}
	if deliverNs > w.Stats.LastDeliverNs {
		w.Stats.LastDeliverNs = deliverNs
	}
	if slow {
		w.Metrics.Slow.Observe(latencyNs)
	} else {
		w.Metrics.Fast.Observe(latencyNs)
	}
	if tr != nil { // guard: the Sprintf must not run on the untraced path
		tr.Hop("deliver", deliverNs).SetNote(fmt.Sprintf("latency %.2fµs", float64(latencyNs)/1000))
		w.tracer.End(tr)
	}
	return nil
}

// startTrace starts the packet's trace, or returns nil once the recorder
// is full, from when on the walker stops asking.
func (w *walker) startTrace(tNs int64, pkt *packet.Packet) *obs.Trace {
	summary := "packet"
	if tup, ok := pkt.Tuple(); ok {
		summary = tup.String()
	}
	tr := w.tracer.Start(summary)
	if tr == nil {
		w.tracer = nil
		return nil
	}
	tr.Hop("inject", tNs)
	return tr
}

// pass runs one switch pipeline pass at virtual time atNs, after making
// due control batches visible, with its table lookups traced into tr.
func (w *walker) pass(st *walkStage, post bool, pkt *packet.Packet, atNs int64, tr *obs.Trace) (switchsim.PreResult, error) {
	w.commit.Due(atNs)
	var hop *obs.Hop
	if tr != nil {
		site := "switch-pre"
		if post {
			site = "switch-post"
		}
		hop = tr.Hop(site, atNs)
		st.pass.Trace(hop)
	}
	var r switchsim.PreResult
	var err error
	if post {
		r, err = st.pass.Post(pkt, st.Touch)
	} else {
		r, err = st.pass.Pre(pkt, st.Touch)
	}
	if hop != nil {
		st.pass.Trace(nil)
		hop.Steps, hop.Action = r.Steps, r.Action.String()
		if r.Punt {
			hop.Action = "punt"
		}
	}
	return r, err
}

// stage carries the packet through one stage: the switch pre-pass, then —
// when the compiled pipeline can't finish it — the slow-path trip to the
// server core and the post-pass back through the switch. On Continue, *t
// is the virtual time at which the packet leaves the stage and pkt
// carries its rewritten headers. slow means the packet left the switch
// fast path in this stage.
func (w *walker) stage(si int, pkt *packet.Packet, t *float64, tr *obs.Trace) (v verdict, slow bool, err error) {
	m := &w.Model
	st := &w.Stages[si]
	software := st.Switch == nil
	punt := false
	if software {
		// The FastClick baseline: plain forwarding through the switch, which
		// the packet reaches on a whole nanosecond.
		*t = float64(int64(*t)) + m.SwitchPipelineNs + m.SerializationNs(pkt.WireLen()) + m.LinkPropNs
	} else {
		pre, err := w.pass(st, false, pkt, int64(*t), tr)
		if err != nil {
			return v, slow, err
		}
		*t += m.SwitchPipelineNs
		switch {
		case pre.Punt:
			// §7 cache mode: the unmodified packet goes to the server,
			// which runs the full middlebox.
			punt = true
		case pre.Action == ir.ActionDropped:
			tr.Hop("drop", int64(*t)).SetNote("middlebox drop on switch")
			return mbDrop, false, nil
		case pre.Action == ir.ActionSent:
			return continued, false, nil
		}
		slow = true
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
		return queueDrop, slow, nil
	}
	slow = true // the baseline counts only packets its server took

	// The frame crosses the switch-server link carrying gallium_a (nothing
	// on a punt), so the server sees the packet the wire format carries.
	site := "server"
	var res serverrt.Result
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
		return v, slow, fmt.Errorf("engine: stage %d server: %w", si, err)
	}
	// The core is busy only for the CPU service time; the fixed datapath
	// latency (NIC, PCIe, DPDK polling) is pipelined on top.
	busyUntil := start + int64(m.ServerServiceNs(res.Steps))
	w.coreFreeNs[core] = busyUntil
	done := busyUntil + int64(m.ServerDatapathNs)
	w.Stats.ServerCycles += m.ServerCycles(res.Steps)
	if c := w.Metrics.Cores; c != nil {
		c[core].Packets.Inc()
		c[core].BusyNs.Add(uint64(busyUntil - start))
		w.Metrics.Wait.Observe(start - arrive)
	}

	// Output commit (§4.3.3): the packet is held until the control plane
	// has made its replicated-state updates visible on the switch.
	release := done
	if len(res.Updates) > 0 {
		n, err := w.commit.ship(si, res.Updates, punt, done)
		if err != nil {
			return v, slow, err
		}
		// ship staged the batch, copying it into the switch's nodes.
		st.Server.Recycle()
		release = done + int64(m.CtlBatchNs(n))
	}
	if release > done {
		w.Metrics.Stall.Observe(release - done)
	}
	if tr != nil {
		hop := tr.Hop(site, start)
		hop.Steps, hop.Action = res.Steps, res.Action.String()
		switch {
		case release > done:
			hop.SetNote(fmt.Sprintf("output commit stalled %.2fµs", float64(release-done)/1000))
		case start > arrive:
			hop.SetNote(fmt.Sprintf("queued %.2fµs on core %d", float64(start-arrive)/1000, core))
		}
	}

	if res.Action == ir.ActionDropped {
		tr.Hop("drop", done).SetNote("middlebox drop on server")
		return mbDrop, true, nil
	}
	if software || punt || res.Action == ir.ActionSent {
		// The server owned the terminator: back out through the switch as
		// plain forwarding.
		*t = float64(release) + m.SerializationNs(pkt.WireLen()) + m.LinkPropNs + m.SwitchPipelineNs
		return continued, true, nil
	}

	// Back to the switch, carrying gallium_b, for post-processing.
	tBack := float64(release) + m.SerializationNs(pkt.WireLen()) + m.LinkPropNs
	if err := w.hop(pkt, st.Server.Res.FormatB); err != nil {
		return v, slow, fmt.Errorf("engine: stage %d switch rx from server: %w", si, err)
	}
	post, err := w.pass(st, true, pkt, int64(tBack), tr)
	if err != nil {
		return v, slow, err
	}
	tBack += m.SwitchPipelineNs
	if post.Action == ir.ActionDropped {
		tr.Hop("drop", int64(tBack)).SetNote("middlebox drop on switch post-pass")
		return mbDrop, true, nil
	}
	*t = tBack
	return continued, true, nil
}

// hop carries pkt over the switch-server link: it serializes the packet
// into the walker's frame buffer and decodes the frame back into pkt, with
// f the Gallium header layout the link carries (nil for none). The ingress
// tag rides outside the wire format, so it survives the hop.
func (w *walker) hop(pkt *packet.Packet, f *packet.HeaderFormat) error {
	ingress := pkt.Ingress
	err := pkt.Decode(pkt.SerializeTo(&w.frame), f)
	pkt.Ingress = ingress
	return err
}

// RSSShard maps a packet to one of n shards the way NIC RSS steers flows
// to cores: a symmetric flow hash, so both directions of a connection land
// on the same shard. The testbed's core model and the concurrent engine's
// dispatcher share this function — a flow is served by the same (simulated
// or real) core in either world.
func RSSShard(pkt *packet.Packet, n int) int {
	if n <= 1 {
		return 0
	}
	return int(rssHash(pkt) % uint64(n))
}

// rssHash is RSSShard's flow hash. It stays a function of its own so that
// RSSShard fits the inliner's budget: a one-shard caller (every engine
// worker's one simulated core) pays no call.
func rssHash(pkt *packet.Packet) uint64 {
	if tup, ok := pkt.DispatchTuple(); ok {
		return tup.SymmetricHash()
	}
	return uint64(pkt.IP.SrcIP) * 2654435761
}
