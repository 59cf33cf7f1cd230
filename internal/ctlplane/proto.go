package ctlplane

import (
	"fmt"

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
//
// Payloads are the typed values the ops carry, each with its own JSON
// form: a rule is a packet.FiveTuple ({src,dst,sport,dport,proto},
// dotted-quad addresses), a backend a Backend ({addr,weight}), and
// flow_table a flowstate.Config with flat keys ({capacity, tcp_syn_ns,
// tcp_established_ns, tcp_fin_ns, udp_ns, evict_policy}: nanosecond
// timeouts, "lru" or "none"). A malformed address or policy fails the
// decode.
const (
	OpFirewallSwap   = "firewall-swap"
	OpLBPool         = "lb-pool"
	OpNATRepartition = "nat-repartition"
	OpFlowTable      = "flow-table"
	OpStats          = "stats"
	OpPing           = "ping"
)

// Request is one control request.
type Request struct {
	Op string `json:"op"`
	// Stage addresses a pipeline stage by index; StageName (when set)
	// addresses it by middlebox name and wins over Stage.
	Stage     int    `json:"stage,omitempty"`
	StageName string `json:"stage_name,omitempty"`

	Rules    []packet.FiveTuple `json:"rules,omitempty"`
	Backends []Backend          `json:"backends,omitempty"`
	Drain    bool               `json:"drain,omitempty"`
	Bases    []uint16           `json:"bases,omitempty"`
	// FlowTable carries the flow-table retune for OpFlowTable.
	FlowTable *flowstate.Config `json:"flow_table,omitempty"`
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
		return FirewallRuleSwap{At: stage, Rules: r.Rules}, nil
	case OpLBPool:
		return LBPoolChange{At: stage, Backends: r.Backends, Drain: r.Drain}, nil
	case OpNATRepartition:
		return NATRepartition{At: stage, Bases: r.Bases}, nil
	case OpFlowTable:
		if r.FlowTable == nil {
			return nil, fmt.Errorf("ctlplane: flow-table request lacks a flow_table payload")
		}
		return FlowTableUpdate{Table: *r.FlowTable}, nil
	}
	return nil, fmt.Errorf("ctlplane: unknown operation %q", r.Op)
}
