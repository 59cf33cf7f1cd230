package netsim

import (
	"fmt"

	"gallium/internal/packet"
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
