package gallium

import (
	"fmt"

	"gallium/internal/ctlplane"
	"gallium/internal/engine"
	"gallium/internal/ir"
	"gallium/internal/packet"
)

// Mode selects the deployment under test.
type Mode = engine.Mode

// Deployment modes.
const (
	// Offloaded runs the Gallium-compiled switch+server pair.
	Offloaded = engine.Offloaded
	// Software runs the unpartitioned middlebox on the server (the
	// FastClick baseline), with the switch as a plain forwarder.
	Software = engine.Software
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

// TestbedConfig describes what a testbed takes beyond Open's options.
// The zero value seeds no state.
type TestbedConfig struct {
	// Setup seeds middlebox state before traffic starts. WithScenario
	// wins over it when both are given.
	Setup func(st *ir.State)
}

// Testbed is the sequential driver NewTestbed builds. It embeds the
// engine's, whose Reconfigure takes a compiled engine.Reconfig; its own
// takes the typed operation.
type Testbed struct {
	*engine.Testbed
	// stages are what ctlplane.Compile checks operations against.
	stages []engine.StageConfig
}

// NewTestbed builds the sequential virtual-time simulator — traffic
// endpoints, programmable switch, middlebox server — around these
// artifacts, from Open's options through the translation Open uses, with
// WithWorkers as the simulated server core count. The options that need
// concurrent workers or a Close (WithDeliveries, WithQueueDepth,
// WithFlowTable, WithState) are refused with an error.
//
// Inject is the low-level escape hatch: a packet at a time, with exact
// control over injection times, for latency experiments and
// differential tests. Reconfigure applies the operation
// Session.Reconfigure takes between two injections, which makes the
// testbed the session's oracle. To stream a workload through the
// concurrent engine, use Artifacts.Run or Open.
func (a *Artifacts) NewTestbed(cfg TestbedConfig, opts ...Option) (*Testbed, error) {
	rc, err := parseOptions(opts)
	if err != nil {
		return nil, err
	}
	refused := ""
	switch {
	case rc.OnDelivery != nil:
		refused = "WithDeliveries"
	case rc.QueueDepth != 0:
		refused = "WithQueueDepth"
	case rc.FlowTable != nil:
		refused = "WithFlowTable"
	case len(rc.settleFns) > 0:
		refused = "WithState"
	}
	if refused != "" {
		return nil, fmt.Errorf("gallium: %s has no meaning on a Testbed, which runs on the caller's goroutine and has no Close", refused)
	}
	if cfg.Setup != nil {
		rc.seedFns = append(rc.seedFns, func(_ int, st *ir.State) { cfg.Setup(st) })
	}
	rc.Stages = rc.stages([]*Artifacts{a}, 1)
	tb, err := engine.NewTestbed(rc.Config)
	if err != nil {
		return nil, err
	}
	return &Testbed{Testbed: tb, stages: rc.Stages}, nil
}

// Reconfigure validates one typed operation against the compiled
// partition, as Session.Reconfigure does, and applies it between two
// injections as one atomic visibility flip.
func (tb *Testbed) Reconfigure(op ReconfigOp) error {
	r, err := ctlplane.Compile(op, tb.stages, 1)
	if err != nil {
		return err
	}
	return tb.Testbed.Reconfigure(r)
}

// ScenarioSetup returns the state-seeding function for the middlebox's
// standard benchmark scenario: configured state for its name, firewall
// whitelist entries for the given flows, and the proxy port redirect. It
// is the one shard of a one-worker deployment.
func (a *Artifacts) ScenarioSetup(flows []packet.FiveTuple) func(st *ir.State) {
	setup := a.shardScenarioSetup(flows, 1)
	return func(st *ir.State) { setup(0, st) }
}
