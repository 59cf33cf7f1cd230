package engine

import "math"

// CostModel collects the calibrated constants of the paper's testbed
// (§6.3): three servers and a Tofino switch on 100 Gbps links, with a DPDK
// middlebox server. Absolute costs are calibrated so the *software
// baseline* reproduces the paper's measurements (≈22-23 µs end-to-end
// latency through FastClick, ≈100 Gbps with 4 cores at 1500-byte packets);
// the offloaded results then follow from the mechanisms, not from tuning.
type CostModel struct {
	// CoreHz is the middlebox server clock (Intel Xeon E5-2680: 2.5 GHz).
	CoreHz float64
	// PerPacketCycles is the fixed per-packet server cost (DPDK rx/tx,
	// framework dispatch).
	PerPacketCycles float64
	// PerStepCycles converts executed IR statements to cycles.
	PerStepCycles float64
	// LineRateBps is the link speed (100 Gbps).
	LineRateBps float64
	// LinkPropNs is per-hop propagation plus PHY latency.
	LinkPropNs float64
	// SwitchPipelineNs is one traversal of the match-action pipeline.
	SwitchPipelineNs float64
	// EndpointStackNs is the traffic endpoints' Linux network stack cost
	// (the paper's generator/receiver machines use the kernel stack).
	EndpointStackNs float64
	// ServerDatapathNs is the middlebox server's fixed datapath latency
	// (NIC, PCIe, DPDK polling) per slow-path packet.
	ServerDatapathNs float64
	// CtlOpSerialNs and CtlOpPipelinedNs model control-plane table
	// updates (Table 3): the first two tables update serially, further
	// ones overlap.
	CtlOpSerialNs    float64
	CtlOpPipelinedNs float64
	// GenMaxPps caps the traffic generators' aggregate packet rate (the
	// paper's iperf endpoints cannot source 100 Gbps of minimum-size
	// packets).
	GenMaxPps float64
	// MaxQueueDelayNs bounds the server ingress queue; arrivals that
	// would wait longer are dropped (finite NIC ring).
	MaxQueueDelayNs float64
	// StackJitterFrac is the relative spread of the endpoint stacks'
	// latency (kernel scheduling noise); the paper's Table 2 standard
	// deviations (±0.2-0.9 µs) come from exactly this source.
	StackJitterFrac float64
}

// DefaultModel returns the calibrated testbed constants.
func DefaultModel() CostModel {
	return CostModel{
		CoreHz:           2.5e9,
		PerPacketCycles:  1200,
		PerStepCycles:    18,
		LineRateBps:      100e9,
		LinkPropNs:       300,
		SwitchPipelineNs: 800,
		EndpointStackNs:  7250,
		ServerDatapathNs: 4800,
		CtlOpSerialNs:    135_000,
		CtlOpPipelinedNs: 50_500,
		GenMaxPps:        12e6,
		MaxQueueDelayNs:  500_000,
		StackJitterFrac:  0.04,
	}
}

// InstantModel returns a model whose every cost is zero (an infinite line
// rate, a 1 Hz core executing zero cycles): a testbed under it carries
// packets through the whole trip, output commit included, with no timing
// at all, so every packet may be injected at time 0.
func InstantModel() CostModel {
	return CostModel{CoreHz: 1, LineRateBps: math.Inf(1)}
}

// ServerCycles converts an executed-statement count into server cycles.
func (m CostModel) ServerCycles(steps int) float64 {
	return m.PerPacketCycles + m.PerStepCycles*float64(steps)
}

// ServerServiceNs is the CPU service time for a packet whose processing
// executed the given number of statements.
func (m CostModel) ServerServiceNs(steps int) float64 {
	return m.ServerCycles(steps) / m.CoreHz * 1e9
}

// SerializationNs is the time to put a frame on a link.
func (m CostModel) SerializationNs(bytes int) float64 {
	return float64(bytes) * 8 / m.LineRateBps * 1e9
}

// CtlBatchNs models the latency to push n control-plane updates and flip
// visibility, reproducing Table 3's scaling: 1 table ≈ 135 µs, 2 ≈ 270 µs,
// 4 ≈ 371 µs (the tail pipelines).
func (m CostModel) CtlBatchNs(n int) float64 {
	if n <= 0 {
		return 0
	}
	if n <= 2 {
		return float64(n) * m.CtlOpSerialNs
	}
	return 2*m.CtlOpSerialNs + float64(n-2)*m.CtlOpPipelinedNs
}
