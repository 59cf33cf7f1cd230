package engine

import (
	"fmt"
	"io"
	"slices"
	"time"

	"gallium/internal/flowstate"
	"gallium/internal/obs"
	"gallium/internal/packet"
	"gallium/internal/switchsim"
)

// Delivery reports one packet's fate. The walker sets the fate fields,
// Delivered through LatencyNs, under either driver; Testbed.Inject returns
// just those. The engine adds the dispatch coordinates, Seq through More,
// which only exist under concurrency, before it calls OnDelivery.
type Delivery struct {
	// Delivered is true when the packet reached the destination host.
	Delivered bool
	// MBDropped means the middlebox's logic dropped it (e.g. firewall).
	MBDropped bool
	// QueueDropped means the server ingress queue overflowed.
	QueueDropped bool
	// FastPath means the switch handled it without the server.
	FastPath bool
	// DeliverNs is when the packet reached the destination (virtual ns).
	DeliverNs int64
	// LatencyNs is end-to-end (application to application).
	LatencyNs int64

	// Seq is the packet's position in the workload stream.
	Seq int64
	// TNs is the injection time (virtual ns).
	TNs int64
	// Worker is the shard that processed the packet.
	Worker int
	// Flow is the packet's ingress five-tuple, captured before the
	// middlebox rewrote any headers.
	Flow packet.FiveTuple
	// Pkt is the packet after processing (rewritten headers). The engine
	// does not touch it once the callback has returned, so from then on
	// whoever dispatched it may reuse it.
	Pkt *packet.Packet
	// More is the xmit_more hint: the next job of the batch this worker is
	// running is a packet, so another callback follows on this goroutine
	// before it can block (a mailbox pull, a control job), and a callback
	// that batches its output may hold it. It is false before every control
	// job — a settle, Drain, Stats or Reconfigure barrier still means
	// "everything queued before me has left" — at the end of each pulled
	// batch, and for a packet Dispatch ran on its caller's goroutine. Only
	// an abort breaks the promise.
	More bool
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

// Report summarizes one engine run: virtual-time traffic statistics
// (aggregated across shards), wall-clock throughput, and the latency
// distribution merged from the per-worker histograms at read time.
type Report struct {
	// Stats aggregates every worker's counters; latencies and delivery
	// windows are virtual-time, like the testbed's.
	Stats Stats `json:"stats"`
	// PerWorker holds each shard's own counters (index == worker id).
	PerWorker []Stats `json:"per_worker,omitempty"`
	// Workers is the shard count the engine ran with.
	Workers int `json:"workers"`
	// WallNs is the wall-clock time from New to this report.
	WallNs int64 `json:"wall_ns"`
	// PPS is wall-clock packets per second (Injected / WallNs) — the
	// engine's real concurrency throughput, unlike the virtual-time
	// Stats.ThroughputBps.
	PPS float64 `json:"pps"`
	// Latency is the end-to-end virtual-time latency distribution over
	// all delivered packets.
	Latency obs.HistSnapshot `json:"latency"`
	// StageNames labels the pipeline stages in stage order.
	StageNames []string `json:"stage_names,omitempty"`
	// SwitchStages holds every pipeline stage's switch counters in stage
	// order (nil in Software mode).
	SwitchStages []switchsim.Stats `json:"switch_stages,omitempty"`
	// Reconfigs counts control-plane reconfigurations applied during the
	// run.
	Reconfigs int `json:"reconfigs"`
	// BatchSizes holds each worker's mean jobs per mailbox pull so far
	// (0 for a worker that has not pulled yet); borrowed runs are not
	// pulls.
	BatchSizes []float64 `json:"batch_sizes,omitempty"`
	// Borrowed counts the packets run on the caller's goroutine instead of
	// handed off: a lone Dispatch that found its worker parked on an empty
	// mailbox, and at one worker every packet Feed was given.
	Borrowed int `json:"borrowed"`
	// Flow sums the flow-state lifecycle counters over every worker's
	// per-stage tracker, with the configured engine-wide Capacity (nil when
	// no FlowTable was configured). Flow.Peak is the sum of the per-shard
	// high-water marks, each a shard's occupancy at the end of a sweep: an
	// upper bound on the engine-wide peak, as shards need not peak
	// together. It is not capped at Capacity: an incremental sweep evicts
	// at most SweepLimit entries, and EvictNone evicts none.
	Flow *flowstate.Stats `json:"flow,omitempty"`
}

// WriteText renders the report as galliumsim and galliumctl print it:
// counters, throughput, latency, the path split, the flow table and one
// line per switch stage, leaving out what the run did not measure.
func (r *Report) WriteText(w io.Writer) {
	st := r.Stats
	fmt.Fprintf(w, "  injected %d  delivered %d  mb-drops %d  queue-drops %d  reconfigs %d\n",
		st.Injected, st.Delivered, st.MBDrops, st.QueueDrops, r.Reconfigs)
	fmt.Fprintf(w, "  throughput: %.2f Gbps virtual", st.ThroughputBps()/1e9)
	if r.WallNs > 0 {
		fmt.Fprintf(w, ", %.2f Mpps wall-clock on %d worker(s) (%.1f ms wall)", r.PPS/1e6, r.Workers, float64(r.WallNs)/1e6)
	}
	fmt.Fprintln(w)
	if r.Borrowed > 0 {
		fmt.Fprintf(w, "  borrowed: %d packets run on the caller, not handed off\n", r.Borrowed)
	}
	if l := r.Latency; l.Count > 0 {
		fmt.Fprintf(w, "  latency: mean %.2f µs, p50 %.2f, p99 %.2f, max %.2f\n",
			l.Mean/1e3, l.P50/1e3, l.P99/1e3, float64(l.Max)/1e3)
	}
	if len(r.SwitchStages) > 0 {
		fmt.Fprintf(w, "  fast path: %d (%.2f%%)  slow path: %d  control plane: %d ops in %d batches, %d rejected\n",
			st.FastPath, 100*float64(st.FastPath)/max(1, float64(st.Injected)), st.SlowPath, st.CtlOps, st.CtlBatches, st.CtlRejected)
	}
	fmt.Fprintf(w, "  server cycles: %.0f (%.1f cycles/pkt over slow-path packets)\n",
		st.ServerCycles, st.ServerCycles/max(1, float64(st.SlowPath)))
	if f := r.Flow; f != nil {
		fmt.Fprintf(w, "  flow table: occupancy %d/%d  peak %d  expired %d  evicted %d\n",
			f.Occupancy, f.Capacity, f.Peak, f.Expired, f.Evicted)
	}
	for i, sw := range r.SwitchStages {
		name := fmt.Sprintf("stage %d", i)
		if i < len(r.StageNames) && r.StageNames[i] != "" {
			name = r.StageNames[i]
		}
		fmt.Fprintf(w, "  %s: fast %d  to-server %d  ctl-ops %d  flips %d  reconfigs %d  epoch %d  tables %v\n",
			name, sw.FastPath, sw.ToServer, sw.CtlOps, sw.CtlFlips, sw.Reconfigs, sw.Epoch, sw.TableEntries)
	}
}

// deployment is what both drivers run, report and instrument: the
// pipeline, its switches (nil in Software mode) and the walkers, with
// stats(i) reading walker i's Stats — the testbed's own as they stand, an
// engine worker's as of its latest barrier.
type deployment struct {
	stages []StageConfig
	sws    []*switchsim.Switch
	walks  []*walker
	stats  func(i int) Stats
}

// report aggregates the walkers into a Report, the one way both drivers
// report: Stats sums their Stats, PerWorker keeps each, Latency merges
// their latency histograms at read time, and the stage names and switch
// counters come from the pipeline.
func (d *deployment) report() *Report {
	r := &Report{Workers: len(d.walks)}
	agg := &r.Stats
	for i := range d.walks {
		s := d.stats(i)
		r.PerWorker = append(r.PerWorker, s)
		agg.Injected += s.Injected
		agg.Delivered += s.Delivered
		agg.MBDrops += s.MBDrops
		agg.QueueDrops += s.QueueDrops
		agg.FastPath += s.FastPath
		agg.SlowPath += s.SlowPath
		agg.BytesIn += s.BytesIn
		agg.BytesOut += s.BytesOut
		agg.ServerCycles += s.ServerCycles
		agg.CtlBatches += s.CtlBatches
		agg.CtlOps += s.CtlOps
		agg.CtlRejected += s.CtlRejected
		if s.FirstDeliverNs != 0 && (agg.FirstDeliverNs == 0 || s.FirstDeliverNs < agg.FirstDeliverNs) {
			agg.FirstDeliverNs = s.FirstDeliverNs
		}
		if s.LastDeliverNs > agg.LastDeliverNs {
			agg.LastDeliverNs = s.LastDeliverNs
		}
	}
	fast, slow := d.latency()
	r.Latency = obs.MergeHistograms(slices.Concat(fast, slow)...).Snapshot()
	for _, st := range d.stages {
		r.StageNames = append(r.StageNames, st.Name)
	}
	for _, sw := range d.sws {
		r.SwitchStages = append(r.SwitchStages, sw.Stats())
	}
	return r
}

// buildReport reports the engine from the per-worker stats each worker
// published at its latest barrier (the settle just taken, or its exit once
// the run is over), with the wall-clock, hand-off and lifecycle figures
// only the engine has.
func (e *Engine) buildReport(wall time.Duration) *Report {
	r := e.report()
	r.WallNs = int64(wall)
	for _, w := range e.workers {
		mean := 0.0
		if n := w.pulls.Load(); n > 0 {
			mean = float64(w.pulled.Load()) / float64(n)
		}
		r.BatchSizes = append(r.BatchSizes, mean)
		r.Borrowed += int(w.borrowed.Load())
	}
	r.Reconfigs = int(e.reconfigs.Load())
	if wall > 0 {
		r.PPS = float64(r.Stats.Injected) / wall.Seconds()
	}
	r.Flow = e.flowStats()
	return r
}

// latency returns the walkers' fast- and slow-path latency histograms, in
// walker order.
func (d *deployment) latency() (fast, slow []*obs.Histogram) {
	for _, w := range d.walks {
		fast, slow = append(fast, w.Metrics.Fast), append(slow, w.Metrics.Slow)
	}
	return fast, slow
}

// walkerCounts are the walker Stats fields every deployment exports, as
// "engine.<name>" summed over its walkers and "engine.worker.<i>.<name>"
// for walker i.
var walkerCounts = []struct {
	name string
	pick func(Stats) int
}{
	{"packets", func(s Stats) int { return s.Injected }},
	{"delivered", func(s Stats) int { return s.Delivered }},
	{"fastpath", func(s Stats) int { return s.FastPath }},
	{"slowpath", func(s Stats) int { return s.SlowPath }},
	{"mb_drops", func(s Stats) int { return s.MBDrops }},
	{"queue_drops", func(s Stats) int { return s.QueueDrops }},
	{"ctl_rejected", func(s Stats) int { return s.CtlRejected }},
}

// instrument registers the deployment's metrics with reg (nil: none), the
// one way both drivers do: the switches' and the walkers' own, the walker
// counts read through stats at snapshot time, and every per-walker
// histogram as a read-time merge of the walkers' parts. core.<i> numbers
// the deployment's server cores across walkers: the testbed's simulated
// cores, or one per engine worker.
func (d *deployment) instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for _, sw := range d.sws {
		sw.Instrument(reg)
	}
	var wait, stall []*obs.Histogram
	core := 0
	for i, w := range d.walks {
		w.Instrument(reg)
		wait, stall = append(wait, w.Metrics.Wait), append(stall, w.Metrics.Stall)
		for j := range w.Metrics.Cores {
			c := &w.Metrics.Cores[j]
			reg.CounterFunc(fmt.Sprintf("core.%d.packets", core), c.Packets.Value)
			reg.CounterFunc(fmt.Sprintf("core.%d.busy_ns", core), c.BusyNs.Value)
			core++
		}
		for _, c := range walkerCounts {
			fn := func() uint64 { return uint64(c.pick(d.stats(i))) }
			reg.CounterFunc(fmt.Sprintf("engine.worker.%d.%s", i, c.name), fn)
			reg.CounterFunc("engine."+c.name, fn)
		}
	}
	fast, slow := d.latency()
	reg.MergedHistogram("engine.latency_ns.fast", fast...)
	reg.MergedHistogram("engine.latency_ns.slow", slow...)
	// Every delivered packet is either fast or slow, so the all-packets
	// histogram merges both: one observation per delivery.
	reg.MergedHistogram("engine.latency_ns", slices.Concat(fast, slow)...)
	reg.MergedHistogram("server.queue.wait_ns", wait...)
	reg.MergedHistogram("switch.ctl.stall_ns", stall...)
}
