package eval

import (
	"container/heap"
	"fmt"
	"math"
)

// The realistic-workload experiments (Figures 8 and 9) run 100,000 flows
// from 100 worker threads, each sending one connection at a time (§6.3).
// Packet-level simulation of that is needlessly expensive; the fluid
// engine below models each flow as
//
//	latency phase:  per-flow setup (slow-path packets, state sync under
//	                output commit) plus TCP slow-start rounds at the
//	                deployment's RTT, then
//	transfer phase: processor sharing of the deployment's bottleneck
//	                bandwidth (the 100 Gbps link for offloaded data
//	                packets; the server's packet-processing capacity for
//	                the software baseline).
//
// The per-deployment parameters (setup, RTT, bottleneck) are measured from
// the packet-level testbed, not assumed.

// FluidConfig parameterizes one fluid run.
type FluidConfig struct {
	// Workers is the number of concurrent senders (the paper uses 100).
	Workers int
	// BottleneckBps is the shared data-path capacity.
	BottleneckBps float64
	// SetupNs is the fixed per-flow latency before data flows.
	SetupNs float64
	// RTTNs drives TCP slow-start rounds.
	RTTNs float64
	// MSS and InitWindow shape slow start.
	MSS        int
	InitWindow int
	// MaxRounds caps the windowing phase (the window saturates).
	MaxRounds int
}

// DefaultFluidConfig fills in the protocol constants.
func DefaultFluidConfig() FluidConfig {
	return FluidConfig{Workers: 100, MSS: 1460, InitWindow: 10, MaxRounds: 12}
}

// FlowRecord is one completed flow.
type FlowRecord struct {
	Size  int64
	FCTNs int64
}

// FluidStats summarizes a run.
type FluidStats struct {
	Records    []FlowRecord
	TotalBytes int64
	MakespanNs int64
}

// ThroughputBps is aggregate goodput over the run.
func (s FluidStats) ThroughputBps() float64 {
	if s.MakespanNs == 0 {
		return 0
	}
	return float64(s.TotalBytes) * 8 / (float64(s.MakespanNs) / 1e9)
}

// slowStartRounds returns the number of RTTs spent growing the window
// before size bytes are covered.
func (c FluidConfig) slowStartRounds(size int64) int {
	packets := int((size + int64(c.MSS) - 1) / int64(c.MSS))
	if packets <= 0 {
		packets = 1
	}
	sent := 0
	w := c.InitWindow
	rounds := 0
	for sent < packets && rounds < c.MaxRounds {
		sent += w
		w *= 2
		rounds++
	}
	return rounds
}

type fluidFlow struct {
	worker    int
	size      int64
	startNs   float64
	targetCum float64 // completes when cumService reaches this
}

type completionHeap []*fluidFlow

func (h completionHeap) Len() int            { return len(h) }
func (h completionHeap) Less(i, j int) bool  { return h[i].targetCum < h[j].targetCum }
func (h completionHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x interface{}) { *h = append(*h, x.(*fluidFlow)) }
func (h *completionHeap) Pop() interface{} {
	old := *h
	f := old[len(old)-1]
	*h = old[:len(old)-1]
	return f
}

type arrival struct {
	atNs float64
	flow *fluidFlow
}

type arrivalHeap []arrival

func (h arrivalHeap) Len() int            { return len(h) }
func (h arrivalHeap) Less(i, j int) bool  { return h[i].atNs < h[j].atNs }
func (h arrivalHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *arrivalHeap) Push(x interface{}) { *h = append(*h, x.(arrival)) }
func (h *arrivalHeap) Pop() interface{} {
	old := *h
	a := old[len(old)-1]
	*h = old[:len(old)-1]
	return a
}

// RunFluid simulates the workers draining their per-worker flow lists.
// flows[w] holds worker w's flow sizes in order.
func RunFluid(cfg FluidConfig, flows [][]int64) (FluidStats, error) {
	if cfg.Workers <= 0 || cfg.BottleneckBps <= 0 {
		return FluidStats{}, fmt.Errorf("eval: fluid config incomplete: %+v", cfg)
	}
	bytesPerNs := cfg.BottleneckBps / 8 / 1e9

	var (
		now      float64
		cum      float64 // bytes of service each active flow has received
		active   completionHeap
		arrivals arrivalHeap
		next     = make([]int, len(flows)) // per-worker next flow index
		stats    FluidStats
	)

	latency := func(size int64) float64 {
		return cfg.SetupNs + float64(cfg.slowStartRounds(size))*cfg.RTTNs
	}
	startNext := func(w int, at float64) {
		if next[w] >= len(flows[w]) {
			return
		}
		size := flows[w][next[w]]
		next[w]++
		f := &fluidFlow{worker: w, size: size, startNs: at}
		heap.Push(&arrivals, arrival{atNs: at + latency(size), flow: f})
	}
	for w := range flows {
		startNext(w, 0)
	}

	for len(active) > 0 || len(arrivals) > 0 {
		// Next completion time under the current share.
		nextCompletion := math.Inf(1)
		if len(active) > 0 {
			rate := bytesPerNs / float64(len(active))
			nextCompletion = now + (active[0].targetCum-cum)/rate
		}
		nextArrival := math.Inf(1)
		if len(arrivals) > 0 {
			nextArrival = arrivals[0].atNs
		}
		if nextArrival <= nextCompletion {
			// Advance shared service to the arrival instant.
			if len(active) > 0 {
				cum += (nextArrival - now) * bytesPerNs / float64(len(active))
			}
			now = nextArrival
			a := heap.Pop(&arrivals).(arrival)
			a.flow.targetCum = cum + float64(a.flow.size)
			heap.Push(&active, a.flow)
			continue
		}
		cum += (nextCompletion - now) * bytesPerNs / float64(len(active))
		now = nextCompletion
		f := heap.Pop(&active).(*fluidFlow)
		stats.Records = append(stats.Records, FlowRecord{Size: f.size, FCTNs: int64(now - f.startNs)})
		stats.TotalBytes += f.size
		startNext(f.worker, now)
	}
	stats.MakespanNs = int64(now)
	return stats, nil
}

// BinFCT averages flow completion times into the paper's Figure 9 bins:
// 0-100 KB, 100 KB-10 MB, >10 MB.
func BinFCT(records []FlowRecord) (avgNs [3]float64, counts [3]int) {
	var sums [3]float64
	for _, r := range records {
		var b int
		switch {
		case r.Size <= 100_000:
			b = 0
		case r.Size <= 10_000_000:
			b = 1
		default:
			b = 2
		}
		sums[b] += float64(r.FCTNs)
		counts[b]++
	}
	for i := range sums {
		if counts[i] > 0 {
			avgNs[i] = sums[i] / float64(counts[i])
		}
	}
	return avgNs, counts
}
