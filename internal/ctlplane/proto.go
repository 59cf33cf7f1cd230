package ctlplane

import (
	"fmt"
	"time"

	"gallium/internal/engine"
	"gallium/internal/flowstate"
	"gallium/internal/packet"
)

// The JSON wire protocol between galliumctl and galliumsim -serve:
// newline-delimited JSON over a unix socket, one Request per line
// answered by one Response. Operation names:
//
//	firewall-swap    — replace the firewall whitelist (Rules)
//	lb-pool          — replace the LB backend pool (Backends, Drain)
//	nat-repartition  — re-split the NAT port space (Bases, optional)
//	flow-table       — retune the flow-state lifecycle (FlowTable)
//	stats            — report live traffic/switch counters
//	ping             — liveness check
const (
	OpFirewallSwap   = "firewall-swap"
	OpLBPool         = "lb-pool"
	OpNATRepartition = "nat-repartition"
	OpFlowTable      = "flow-table"
	OpStats          = "stats"
	OpPing           = "ping"
)

// Rule is one firewall whitelist rule on the wire.
type Rule struct {
	Src   string `json:"src"`
	Dst   string `json:"dst"`
	Sport uint16 `json:"sport"`
	Dport uint16 `json:"dport"`
	Proto uint8  `json:"proto"`
}

// PoolMember is one weighted LB backend on the wire.
type PoolMember struct {
	Addr   string `json:"addr"`
	Weight int    `json:"weight"`
}

// Request is one control request.
type Request struct {
	Op string `json:"op"`
	// Stage addresses a pipeline stage by index; StageName (when set)
	// addresses it by middlebox name and wins over Stage.
	Stage     int    `json:"stage,omitempty"`
	StageName string `json:"stage_name,omitempty"`

	Rules    []Rule       `json:"rules,omitempty"`
	Backends []PoolMember `json:"backends,omitempty"`
	Drain    bool         `json:"drain,omitempty"`
	Bases    []uint16     `json:"bases,omitempty"`
	// FlowTable carries the flow-table retune for OpFlowTable.
	FlowTable *FlowTableConfig `json:"flow_table,omitempty"`
}

// FlowTableConfig is the flow-state lifecycle config on the wire.
// Timeouts are nanoseconds; zero fields select the runtime defaults.
type FlowTableConfig struct {
	Capacity         int   `json:"capacity"`
	TCPSynNs         int64 `json:"tcp_syn_ns,omitempty"`
	TCPEstablishedNs int64 `json:"tcp_established_ns,omitempty"`
	TCPFinNs         int64 `json:"tcp_fin_ns,omitempty"`
	UDPNs            int64 `json:"udp_ns,omitempty"`
	// EvictPolicy is "lru" (default) or "none".
	EvictPolicy string `json:"evict_policy,omitempty"`
}

// Response answers one Request.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Stats carries the running session's report for OpStats.
	Stats *engine.Report `json:"stats,omitempty"`
}

// resolveStage maps the request's stage addressing onto a stage index.
func (r Request) resolveStage(names []string) (int, error) {
	if r.StageName == "" {
		return r.Stage, nil
	}
	for i, n := range names {
		if n == r.StageName {
			return i, nil
		}
	}
	return 0, fmt.Errorf("ctlplane: no pipeline stage named %q (have %v)", r.StageName, names)
}

// ToOp lowers a wire request into a typed Op. names lists the pipeline's
// stage names for by-name addressing; stats/ping requests are not ops and
// return an error here.
func (r Request) ToOp(names []string) (Op, error) {
	stage, err := r.resolveStage(names)
	if err != nil {
		return nil, err
	}
	switch r.Op {
	case OpFirewallSwap:
		rules := make([]packet.FiveTuple, 0, len(r.Rules))
		for _, w := range r.Rules {
			src, err := packet.ParseIPv4Addr(w.Src)
			if err != nil {
				return nil, err
			}
			dst, err := packet.ParseIPv4Addr(w.Dst)
			if err != nil {
				return nil, err
			}
			rules = append(rules, packet.FiveTuple{
				SrcIP: src, DstIP: dst,
				SrcPort: w.Sport, DstPort: w.Dport,
				Proto: packet.IPProtocol(w.Proto),
			})
		}
		return FirewallRuleSwap{At: stage, Rules: rules}, nil
	case OpLBPool:
		members := make([]Backend, 0, len(r.Backends))
		for _, m := range r.Backends {
			addr, err := packet.ParseIPv4Addr(m.Addr)
			if err != nil {
				return nil, err
			}
			members = append(members, Backend{Addr: addr, Weight: m.Weight})
		}
		return LBPoolChange{At: stage, Backends: members, Drain: r.Drain}, nil
	case OpNATRepartition:
		return NATRepartition{At: stage, Bases: r.Bases}, nil
	case OpFlowTable:
		if r.FlowTable == nil {
			return nil, fmt.Errorf("ctlplane: flow-table request lacks a flow_table payload")
		}
		cfg, err := r.FlowTable.toConfig()
		if err != nil {
			return nil, err
		}
		return FlowTableUpdate{Table: cfg}, nil
	}
	return nil, fmt.Errorf("ctlplane: unknown operation %q", r.Op)
}

// toConfig lifts the wire form into the runtime config.
func (w *FlowTableConfig) toConfig() (flowstate.Config, error) {
	cfg := flowstate.Config{
		Capacity: w.Capacity,
		TCPTimeouts: flowstate.TCPTimeouts{
			Syn:         time.Duration(w.TCPSynNs),
			Established: time.Duration(w.TCPEstablishedNs),
			Fin:         time.Duration(w.TCPFinNs),
		},
		UDPTimeout: time.Duration(w.UDPNs),
	}
	if w.EvictPolicy != "" {
		p, ok := flowstate.ParseEvictPolicy(w.EvictPolicy)
		if !ok {
			return flowstate.Config{}, fmt.Errorf("ctlplane: unknown eviction policy %q (want \"lru\" or \"none\")", w.EvictPolicy)
		}
		cfg.EvictPolicy = p
	}
	return cfg, nil
}

// FromConfig renders a runtime config in wire form (galliumctl uses it
// to build flow-table requests).
func FromConfig(cfg flowstate.Config) *FlowTableConfig {
	return &FlowTableConfig{
		Capacity:         cfg.Capacity,
		TCPSynNs:         int64(cfg.TCPTimeouts.Syn),
		TCPEstablishedNs: int64(cfg.TCPTimeouts.Established),
		TCPFinNs:         int64(cfg.TCPTimeouts.Fin),
		UDPNs:            int64(cfg.UDPTimeout),
		EvictPolicy:      cfg.EvictPolicy.String(),
	}
}
