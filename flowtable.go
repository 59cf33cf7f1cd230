package gallium

import (
	"fmt"

	"gallium/internal/ctlplane"
	"gallium/internal/flowstate"
)

// FlowTable bounds a session's dynamic flow state: the maps the data
// path inserts into (connection trackers, NAT bindings, LB connection
// tables) gain a last-touch record per entry, protocol-aware session
// timeouts, and capacity enforcement with exact LRU eviction.
//
//	gallium.Open(art, gallium.WithFlowTable(gallium.FlowTable{
//		Capacity:    1 << 20,
//		TCPTimeouts: gallium.TCPTimeouts{Established: 5 * time.Minute},
//		UDPTimeout:  30 * time.Second,
//	}))
//
// Capacity is the engine-wide concurrent-entry limit, split evenly
// across worker shards. Zero timeout fields select the defaults (TCP
// SYN 5s / established 5m / FIN 10s, UDP 30s). A worker sweeps — expires
// what is due, then evicts the least recently touched entries over its
// share of Capacity — at the batch boundary every SweepEvery packets
// (default 1024; a negative value is rejected) and at settle barriers,
// so between sweeps occupancy can overshoot by what those packets
// insert. SweepLimit (default 4096) caps how many entries one such sweep
// removes; settle-barrier sweeps are uncapped. Switch-resident entries
// are deleted through the §4.3.3 write-back flip, so an expiry can never
// resurrect stale state.
type FlowTable = flowstate.Config

// TCPTimeouts holds FlowTable's per-phase TCP session timeouts
// (SYN = half-open, Established, Fin = closing).
type TCPTimeouts = flowstate.TCPTimeouts

// EvictPolicy selects FlowTable's over-capacity behavior.
type EvictPolicy = flowstate.EvictPolicy

// Eviction policies: EvictLRU (default) evicts the least-recently
// touched entries over capacity; EvictNone only reports occupancy and
// lets timeouts catch up.
const (
	EvictLRU  = flowstate.EvictLRU
	EvictNone = flowstate.EvictNone
)

// FlowTableUpdate retunes (or first arms) a running session's flow
// table via Session.Reconfigure — capacity, timeouts, and policy change
// at one reconfiguration barrier, atomically with respect to traffic.
type FlowTableUpdate = ctlplane.FlowTableUpdate

// WithFlowTable bounds the session's flow state with ft. The config is
// validated up front: non-positive capacity, negative timeouts,
// inverted TCP phase timeouts (SYN or FIN exceeding Established), and
// unknown eviction policies are errors surfaced from Run/Open, not
// silent fallbacks.
func WithFlowTable(ft FlowTable) Option {
	return func(c *runConfig) {
		if err := ft.Validate(); err != nil {
			c.fail(fmt.Errorf("gallium: WithFlowTable: %w", err))
			return
		}
		cfg := ft
		c.FlowTable = &cfg
	}
}
