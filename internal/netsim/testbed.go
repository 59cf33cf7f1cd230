package netsim

import (
	"errors"
	"fmt"
	"math"

	"gallium/internal/ir"
	"gallium/internal/obs"
	"gallium/internal/packet"
	"gallium/internal/partition"
	"gallium/internal/serverrt"
	"gallium/internal/switchsim"
)

// Mode selects the deployment under test. The zero Mode is "unset": it
// defaults to Offloaded when a testbed or engine is built from it, and is
// what ParseMode returns alongside an error — so an ignored parse error
// can never be mistaken for an explicit mode choice.
type Mode int

// Deployment modes.
const (
	// Offloaded runs the Gallium-compiled switch+server pair.
	Offloaded Mode = iota + 1
	// Software runs the unpartitioned middlebox on the server (the
	// FastClick baseline), with the switch as a plain forwarder.
	Software
)

// String implements fmt.Stringer for flag defaults and error messages.
func (m Mode) String() string {
	switch m {
	case Offloaded:
		return "offloaded"
	case Software:
		return "software"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Config describes one testbed instance.
type Config struct {
	Model CostModel
	Mode  Mode
	// Cores is the middlebox server core count (the baseline sweeps 1/2/4;
	// the offloaded middlebox uses a single core, as in the paper).
	Cores int
	// Res is required in Offloaded mode.
	Res *partition.Result
	// Prog is required in Software mode.
	Prog *ir.Program
	// Setup seeds middlebox state.
	Setup func(st *ir.State)
	// Obs, when non-nil, receives metrics from every component and (when
	// tracing is enabled on it) per-packet hop traces. Nil disables
	// observability at zero cost.
	Obs *obs.Registry
}

// Delivery reports one packet's fate.
type Delivery struct {
	// Delivered is true when the packet reached the destination host.
	Delivered bool
	// MBDropped means the middlebox's logic dropped it (e.g. firewall).
	MBDropped bool
	// QueueDropped means the server ingress queue overflowed.
	QueueDropped bool
	// FastPath means the switch handled it without the server.
	FastPath bool
	// Time the packet reached the destination (ns).
	DeliverNs int64
	// LatencyNs is end-to-end (application to application).
	LatencyNs int64
}

// Stats aggregates a run.
type Stats struct {
	Injected   int `json:"injected"`
	Delivered  int `json:"delivered"`
	MBDrops    int `json:"mb_drops"`
	QueueDrops int `json:"queue_drops"`
	FastPath   int `json:"fast_path"`
	SlowPath   int `json:"slow_path"`
	// CtlRejected counts control-plane updates refused because the
	// switch table was full; the flows stay server-handled.
	CtlRejected  int     `json:"ctl_rejected"`
	BytesIn      int64   `json:"bytes_in"`
	BytesOut     int64   `json:"bytes_out"`
	ServerCycles float64 `json:"server_cycles"`
	CtlBatches   int     `json:"ctl_batches"`
	CtlOps       int     `json:"ctl_ops"`
	// FirstDeliverNs/LastDeliverNs frame the measurement window.
	FirstDeliverNs int64 `json:"first_deliver_ns"`
	LastDeliverNs  int64 `json:"last_deliver_ns"`
}

// ThroughputBps is delivered goodput over the delivery window.
func (s Stats) ThroughputBps() float64 {
	if s.LastDeliverNs <= s.FirstDeliverNs {
		return 0
	}
	return float64(s.BytesOut) * 8 / (float64(s.LastDeliverNs-s.FirstDeliverNs) / 1e9)
}

// Testbed is the packet-level simulator: a time-ordered, single-pass model
// of the Figure 1 topology. Packets must be injected in non-decreasing
// timestamp order; the shared Walker carries each one through the trip,
// and the testbed is its Committer: write-backs are staged at once and
// become visible at a scheduled virtual time.
type Testbed struct {
	walk Walker

	// flips are the virtual times of scheduled visibility flips.
	flips      []int64
	lastInject int64

	hFast *obs.Histogram // end-to-end latency, fast-path (switch-only) packets
	hSlow *obs.Histogram // end-to-end latency, slow-path (server-visited) packets
	// tracer is resolved once at build time, like every other handle, so
	// the per-packet path never touches the registry mutex. Enable tracing
	// on the registry before constructing the testbed.
	tracer *obs.TraceRecorder
}

// instrument wires the registry through every component, registers the
// end-to-end counters as reads of the walker's Stats, and resolves the
// latency histograms.
func (tb *Testbed) instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	st := &tb.walk.Stages[0]
	if st.Switch != nil {
		st.Switch.Instrument(reg)
		st.Server.Instrument(reg)
	} else {
		st.Software.Instrument(reg)
	}
	tb.walk.Instrument(reg)
	stat := func(name string, pick func(Stats) int) {
		reg.CounterFunc(name, func() uint64 { return uint64(pick(tb.walk.Stats)) })
	}
	stat("e2e.injected", func(s Stats) int { return s.Injected })
	stat("e2e.delivered", func(s Stats) int { return s.Delivered })
	stat("e2e.mb_drops", func(s Stats) int { return s.MBDrops })
	stat("e2e.queue_drops", func(s Stats) int { return s.QueueDrops })
	stat("e2e.ctl_rejected", func(s Stats) int { return s.CtlRejected })
	tb.hFast = reg.Histogram("e2e.latency_ns.fast", nil)
	tb.hSlow = reg.Histogram("e2e.latency_ns.slow", nil)
	// Every delivered packet is either fast or slow, so the all-packets
	// histogram is a read-time merge — one observation per delivery.
	reg.MergedHistogram("e2e.latency_ns", tb.hFast, tb.hSlow)
	tb.tracer = reg.Tracer()
}

// traceStart opens a hop trace for the packet if the registry has tracing
// enabled and capacity left.
func (tb *Testbed) traceStart(tNs int64, pkt *packet.Packet) *obs.Trace {
	if tb.tracer == nil {
		return nil
	}
	summary := "packet"
	if tup, ok := pkt.Tuple(); ok {
		summary = tup.String()
	}
	tr := tb.tracer.Start(summary)
	tr.Hop("inject", tNs)
	return tr
}

// NewTestbed builds and configures a testbed.
func NewTestbed(cfg Config) (*Testbed, error) {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.Mode == 0 {
		cfg.Mode = Offloaded
	}
	tb := &Testbed{}
	var st Stage
	switch cfg.Mode {
	case Offloaded:
		if cfg.Res == nil {
			return nil, fmt.Errorf("netsim: offloaded mode needs a partition result")
		}
		st = Stage{Switch: switchsim.New(cfg.Res), Server: serverrt.New(cfg.Res)}
		if cfg.Setup != nil {
			cfg.Setup(st.Server.State)
			if err := st.Switch.SeedFrom(st.Server.State); err != nil {
				return nil, err
			}
		}
	case Software:
		if cfg.Prog == nil {
			return nil, fmt.Errorf("netsim: software mode needs a program")
		}
		st = Stage{Software: serverrt.NewSoftware(cfg.Prog)}
		if cfg.Setup != nil {
			cfg.Setup(st.Software.State)
		}
	default:
		return nil, fmt.Errorf("netsim: unknown mode %v", cfg.Mode)
	}
	tb.walk = NewWalker(cfg.Model, []Stage{st}, cfg.Cores, 0, 0, tb)
	tb.instrument(cfg.Obs)
	return tb, nil
}

// StageBatch stages updates on shard's lane of the switch, invisible until
// the lane's next flip — the staging half of every committer: the Testbed
// flips at a scheduled virtual time, an engine worker before it delivers
// the packet. punt marks a §7 cache-mode batch, classified first into
// read-through fills and synchronous updates; syncs counts the updates
// output commit must hold the packet for (every update of any other
// batch). A full table is a soft failure: that entry simply never reaches
// the switch.
func StageBatch(sw *switchsim.Switch, shard int, updates []switchsim.Update, punt bool) (staged, rejected, syncs int, err error) {
	syncs = len(updates)
	if punt {
		fills, s := serverrt.ClassifyUpdates(sw, updates)
		updates, syncs = append(fills, s...), len(s)
	}
	for _, u := range updates {
		if err := sw.StageShard(shard, u); err != nil {
			if errors.Is(err, switchsim.ErrTableFull) {
				rejected++
				continue
			}
			return staged, rejected, syncs, err
		}
		staged++
	}
	return staged, rejected, syncs, nil
}

// Reconfigure applies one control-plane change between injections: mutate
// runs against the authoritative state (returning any extra switch
// updates, e.g. connection purges), then the given updates plus mutate's
// are committed as one batch and everything pending is flipped at once —
// the same §4.3.3 batch the write-back path uses, so a packet injected
// before the call sees only the old configuration and a packet injected
// after sees only the new one. It is the oracle counterpart of the
// engine's Reconfigure — differential tests apply the same change at the
// same packet index on both sides. Any write-back still awaiting its
// scheduled flip shares the flip (a sequential reconfiguration quiesces
// the deployment). The software baseline has nothing to flip. On an error
// nothing flips.
func (tb *Testbed) Reconfigure(mutate func(st *ir.State) []switchsim.Update, updates []switchsim.Update) error {
	all := append([]switchsim.Update(nil), updates...)
	if mutate != nil {
		all = append(all, mutate(tb.ServerState())...)
	}
	sw := tb.Switch()
	if sw == nil {
		return nil
	}
	if _, err := tb.Commit(0, all, false, tb.lastInject); err != nil {
		return err
	}
	tb.Due(math.MaxInt64)
	sw.MarkReconfig()
	return nil
}

// Due implements Committer: every scheduled flip whose time has passed
// becomes visible to the data plane.
func (tb *Testbed) Due(nowNs int64) {
	if len(tb.flips) == 0 {
		return
	}
	sw := tb.Switch()
	kept := tb.flips[:0]
	for _, atNs := range tb.flips {
		if atNs <= nowNs {
			sw.FlipShard(0)
			tb.walk.Stats.CtlBatches++
		} else {
			kept = append(kept, atNs)
		}
	}
	tb.flips = kept
}

// Commit implements Committer: stage now (invisible), flip one control
// batch latency after the server finished. §7 cache fills ride the same
// flip but only synchronous updates hold the packet.
func (tb *Testbed) Commit(_ int, updates []switchsim.Update, punt bool, doneNs int64) (int, error) {
	staged, rejected, syncs, err := StageBatch(tb.Switch(), 0, updates, punt)
	tb.walk.Stats.CtlRejected += rejected
	if err != nil || staged == 0 {
		return 0, err
	}
	tb.walk.Stats.CtlOps += staged
	tb.flips = append(tb.flips, doneNs+int64(tb.walk.Model.CtlBatchNs(staged)))
	if syncs == 0 {
		return 0, nil
	}
	return staged, nil
}

// Inject runs one packet through the testbed, starting from the source
// application at time tNs. Packets must arrive in time order.
func (tb *Testbed) Inject(tNs int64, pkt *packet.Packet) (Delivery, error) {
	if tNs < tb.lastInject {
		return Delivery{}, fmt.Errorf("netsim: out-of-order injection (%d < %d)", tNs, tb.lastInject)
	}
	tb.lastInject = tNs
	d, err := tb.walk.Walk(tNs, pkt, tb.traceStart(tNs, pkt))
	tb.walk.Flush()
	if err != nil || !d.Delivered {
		return d, err
	}
	// e2e.latency_ns is the read-time merge of the two, so one observation
	// covers both views.
	if d.FastPath {
		tb.hFast.Observe(d.LatencyNs)
	} else {
		tb.hSlow.Observe(d.LatencyNs)
	}
	return d, nil
}

// Stats returns the run counters so far.
func (tb *Testbed) Stats() Stats { return tb.walk.Stats }

// ServerState exposes the authoritative middlebox state: the server's in
// offloaded mode, the software runner's otherwise. Callers must not
// mutate it while injections are in flight.
func (tb *Testbed) ServerState() *ir.State { return tb.walk.Stages[0].State() }

// Switch exposes the simulated switch (nil in software mode). A write-back
// the last packet made may still await its scheduled flip: Due applies it.
func (tb *Testbed) Switch() *switchsim.Switch { return tb.walk.Stages[0].Switch }

// rssHash steers a packet to a server core, keeping both directions of a
// connection together (symmetric hash), like NIC RSS.
func rssHash(pkt *packet.Packet) uint64 {
	if tup, ok := pkt.DispatchTuple(); ok {
		return tup.SymmetricHash()
	}
	return uint64(pkt.IP.SrcIP) * 2654435761
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
