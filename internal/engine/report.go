package engine

import (
	"time"

	"gallium/internal/netsim"
	"gallium/internal/obs"
	"gallium/internal/packet"
	"gallium/internal/switchsim"
)

// Delivery reports one packet's fate, extending the testbed's Delivery
// with the dispatch coordinates that only exist under concurrency.
type Delivery struct {
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
	// "everything queued before me has left" — and at the end of each
	// pulled batch. Only an abort breaks the promise.
	More bool

	// Delivery is the fate itself: delivered, dropped by the middlebox or
	// the shard's ingress queue, fast path or not, and the virtual-time
	// delivery and latency.
	netsim.Delivery
}

// Report summarizes one engine run: virtual-time traffic statistics
// (aggregated across shards), wall-clock throughput, and the latency
// distribution merged from the per-worker histograms at read time.
type Report struct {
	// Stats aggregates every worker's counters; latencies and delivery
	// windows are virtual-time, like the testbed's.
	Stats netsim.Stats
	// PerWorker holds each shard's own counters (index == worker id).
	PerWorker []netsim.Stats
	// Workers is the shard count the engine ran with.
	Workers int
	// WallNs is the wall-clock duration of Run.
	WallNs int64
	// PPS is wall-clock packets per second (Injected / WallNs) — the
	// engine's real concurrency throughput, unlike the virtual-time
	// Stats.ThroughputBps.
	PPS float64
	// Latency is the end-to-end virtual-time latency distribution over
	// all delivered packets.
	Latency obs.HistSnapshot
	// Switch holds the first pipeline stage's switch counters (nil in
	// Software mode).
	Switch *switchsim.Stats
	// SwitchStages holds every pipeline stage's switch counters in stage
	// order (nil in Software mode); SwitchStages[0] equals *Switch.
	SwitchStages []switchsim.Stats
	// Reconfigs counts control-plane reconfigurations applied during the
	// run.
	Reconfigs int
	// BatchSizes holds each worker's mean jobs per mailbox pull so far
	// (0 for a worker that has not pulled yet).
	BatchSizes []float64
	// Flow summarizes the flow-state lifecycle (nil when no FlowTable
	// was configured).
	Flow *FlowReport
}

// FlowReport aggregates the flow-state lifecycle counters across every
// worker's per-stage tracker.
type FlowReport struct {
	// Capacity is the configured engine-wide entry limit.
	Capacity int
	// Occupancy is the live entry count across all dynamic maps at the
	// last sweep; Peak is its high-water mark.
	Occupancy uint64
	Peak      uint64
	// Expired counts entries removed by session timeout; Evicted counts
	// entries removed by capacity (LRU) eviction.
	Expired uint64
	Evicted uint64
}

// buildReport aggregates worker- and engine-level state from a consistent
// per-worker stats snapshot (taken either after the run settled or inside
// each worker's goroutine at a live barrier).
func (e *Engine) buildReport(per []netsim.Stats, wall time.Duration) *Report {
	r := &Report{Workers: len(e.workers), WallNs: int64(wall)}
	parts := make([]*obs.Histogram, 0, len(e.workers))
	agg := &r.Stats
	for i, w := range e.workers {
		s := per[i]
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
		parts = append(parts, w.hLat)
		mean := 0.0
		if n := w.pulls.Load(); n > 0 {
			mean = float64(w.pulled.Load()) / float64(n)
		}
		r.BatchSizes = append(r.BatchSizes, mean)
	}
	r.Reconfigs = int(e.reconfigs.Load())
	r.Latency = obs.MergeHistograms(parts...).Snapshot()
	if wall > 0 {
		r.PPS = float64(agg.Injected) / wall.Seconds()
	}
	for _, sw := range e.sws {
		r.SwitchStages = append(r.SwitchStages, sw.Stats())
	}
	if len(r.SwitchStages) > 0 {
		r.Switch = &r.SwitchStages[0]
	}
	if cfg := e.flowCfg.Load(); cfg != nil {
		fr := &FlowReport{Capacity: cfg.Capacity}
		for _, fs := range e.flowTrackerStats() {
			fr.Occupancy += fs.Occupancy
			fr.Peak += fs.Peak
			fr.Expired += fs.Expired
			fr.Evicted += fs.Evicted
		}
		r.Flow = fr
	}
	return r
}
