package gallium

import (
	"fmt"

	"gallium/internal/ir"
	"gallium/internal/netsim"
	"gallium/internal/obs"
	"gallium/internal/packet"
)

// Mode selects the deployment under test.
type Mode = netsim.Mode

// Deployment modes.
const (
	// Offloaded runs the Gallium-compiled switch+server pair.
	Offloaded = netsim.Offloaded
	// Software runs the unpartitioned middlebox on the server (the
	// FastClick baseline), with the switch as a plain forwarder.
	Software = netsim.Software
)

// ParseMode parses "offloaded" or "software" (the CLI flag values). On
// error it returns the zero Mode — not Offloaded — so a caller that drops
// the error cannot silently run the wrong deployment.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "offloaded":
		return Offloaded, nil
	case "software":
		return Software, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want %v or %v)", s, Offloaded, Software)
}

// TestbedConfig describes one simulated testbed built from compiled
// artifacts. The zero value runs the offloaded deployment on one server
// core under the default cost model, with no state seeded and
// observability off.
type TestbedConfig struct {
	// Mode is Offloaded (default) or Software.
	Mode Mode
	// Cores is the middlebox server core count; <=0 means 1.
	Cores int
	// Model overrides the testbed cost model; nil uses the default.
	Model *netsim.CostModel
	// Setup seeds middlebox state before traffic starts.
	Setup func(st *ir.State)
	// Scenario, when true, seeds the middlebox's standard benchmark
	// scenario instead of Setup: configured state (backends, NAT pools),
	// firewall whitelists for Flows, and the proxy port redirect.
	Scenario bool
	// Flows lists the traffic five-tuples the scenario whitelists.
	Flows []packet.FiveTuple
	// Metrics, when non-nil, receives counters, histograms, and (if
	// tracing is enabled on it) per-packet hop traces from every
	// component. Nil disables observability at zero cost.
	Metrics *obs.Registry
}

// NewTestbed builds the packet-level simulator — traffic endpoints,
// programmable switch, middlebox server — around these artifacts.
//
// The testbed's Inject is the low-level escape hatch: a sequential,
// virtual-time, packet-at-a-time model with deterministic latencies,
// right for latency experiments, per-packet traces, and differential
// tests that need exact control over injection times. Its Reconfigure
// applies a control-plane change between two injections, which makes it
// the oracle counterpart of Session.Reconfigure: differential tests
// apply the same compiled change at the same packet index on both
// sides. For streaming a workload through the concurrent engine, use
// Artifacts.Run (one-shot) or Open (long-lived Session with live
// reconfiguration) instead.
func (a *Artifacts) NewTestbed(cfg TestbedConfig) (*netsim.Testbed, error) {
	model := netsim.DefaultModel()
	if cfg.Model != nil {
		model = *cfg.Model
	}
	setup := cfg.Setup
	if cfg.Scenario {
		setup = a.ScenarioSetup(cfg.Flows)
	}
	return netsim.NewTestbed(netsim.Config{
		Model: model,
		Mode:  cfg.Mode,
		Cores: cfg.Cores,
		Res:   a.Res,
		Prog:  a.Prog,
		Setup: setup,
		Obs:   cfg.Metrics,
	})
}

// ScenarioSetup returns the state-seeding function for the middlebox's
// standard benchmark scenario: configured state for its name, firewall
// whitelist entries for the given flows, and the proxy port redirect. It
// is the one shard of a one-worker deployment.
func (a *Artifacts) ScenarioSetup(flows []packet.FiveTuple) func(st *ir.State) {
	setup := a.shardScenarioSetup(flows, 1)
	return func(st *ir.State) { setup(0, st) }
}
