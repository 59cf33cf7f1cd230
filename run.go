package gallium

import (
	"context"
	"fmt"

	"gallium/internal/engine"
	"gallium/internal/ir"
	"gallium/internal/middleboxes"
	"gallium/internal/netsim"
	"gallium/internal/obs"
	"gallium/internal/packet"
)

// Workload is a streaming packet source for Run and Session.Feed:
// trafficgen's generators (IperfConfig, ProbeConfig) satisfy it, as does
// any type producing packets in non-decreasing injection-time order.
type Workload = engine.Workload

// Report is one engine run's result: aggregated and per-worker traffic
// statistics, wall-clock throughput, and the latency distribution.
type Report = engine.Report

// Delivery is one packet's fate, as observed by WithDeliveries callbacks.
type Delivery = engine.Delivery

// Packet is one mutable network packet (parsed headers + payload): the
// unit Session.Dispatch injects and Delivery carries.
type Packet = packet.Packet

// Option configures Artifacts.Run, Open, and Pipeline.Open. Options
// that reject their argument surface the error from Run/Open (the first
// invalid option wins), so a typo'd queue size cannot silently fall back
// to a default.
type Option func(*runConfig)

type runConfig struct {
	engine.Config
	scenario bool
	flows    []packet.FiveTuple
	// seedFns run per shard before the engine starts; settleFns run per
	// shard after the run settles. WithState registers in both.
	seedFns   []func(shard int, st *ir.State)
	settleFns []func(shard int, st *ir.State)
	// mergedFns run once after the settle hooks with the shard states
	// merged under the certificate-selected policy (WithMergedState).
	mergedFns []func(merged *ir.State, exact bool, conflict string)
	err       error
}

// fail records the first option error.
func (c *runConfig) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// WithWorkers sets the number of concurrent server shards (default 1).
// Packets are RSS-hashed to shards by flow, so per-flow order is
// preserved at any worker count.
func WithWorkers(n int) Option {
	return func(c *runConfig) { c.Workers = n }
}

// WithMode selects Offloaded (default) or Software.
func WithMode(m Mode) Option {
	return func(c *runConfig) { c.Mode = m }
}

// WithMetrics attaches an observability registry: per-worker counters,
// read-time "engine.*" aggregates, and switch/server component metrics.
func WithMetrics(reg *obs.Registry) Option {
	return func(c *runConfig) { c.Obs = reg }
}

// WithScenario seeds every shard of every stage with the middlebox's
// standard benchmark scenario: configured state (backends, NAT pools —
// partitioned across shards where the middlebox needs it), firewall
// whitelist entries for the workload's announced tuples (Run) or
// WithFlows (Open), and the proxy port redirect. It wins over WithState
// seeding when both are given.
func WithScenario() Option {
	return func(c *runConfig) { c.scenario = true }
}

// WithFlows announces the traffic five-tuples a WithScenario session
// whitelists. Run fills this from the workload automatically; Open has no
// workload yet, so sessions pass the planned flows here.
func WithFlows(flows []packet.FiveTuple) Option {
	return func(c *runConfig) { c.flows = flows }
}

// WithState registers a per-shard state hook (shard in [0, workers)),
// invoked whenever the shard's authoritative state is quiescent and safe
// to touch from the caller's goroutine: once per shard before the engine
// starts (seed configuration there) and once per shard after the run
// settles (read final state there — differential tests compare it against
// a sequential oracle). The states must not be retained past the call.
// Multiple WithState options compose in registration order. For chained
// pipelines the hook receives stage 0's state; seed later stages through
// WithScenario or reconfigure them via Session.Reconfigure.
func WithState(fn func(shard int, st *ir.State)) Option {
	return func(c *runConfig) {
		c.seedFns = append(c.seedFns, fn)
		c.settleFns = append(c.settleFns, fn)
	}
}

// WithMergedState registers a hook invoked once when the session closes,
// after any WithState settle hooks, with every worker shard's final
// state merged through Artifacts.MergeShardStates. exact reports whether
// the flow-affinity certificate authorized the exact disjoint-union
// policy; a non-empty conflict means the shard states falsified an exact
// certificate (merged is nil in that case). For chained pipelines the
// merge covers stage 0's shards, matching WithState.
func WithMergedState(fn func(merged *ir.State, exact bool, conflict string)) Option {
	return func(c *runConfig) { c.mergedFns = append(c.mergedFns, fn) }
}

// WithCostModel overrides the virtual-time cost model.
func WithCostModel(m netsim.CostModel) Option {
	return func(c *runConfig) { c.Model = m }
}

// WithDeliveries registers a per-packet fate callback. It is invoked
// concurrently from worker goroutines (per-flow order preserved) and must
// be safe for concurrent use.
func WithDeliveries(fn func(Delivery)) Option {
	return func(c *runConfig) { c.OnDelivery = fn }
}

// WithQueueDepth bounds each worker's ingress queue to n packets
// (default 256). The unit is packets per worker: a full queue exerts
// backpressure on the dispatcher rather than dropping, and a worker's
// pull takes everything queued, so n also bounds its batch. n must be
// positive; a non-positive n is an error, not a silent default.
func WithQueueDepth(n int) Option {
	return func(c *runConfig) {
		if n <= 0 {
			c.fail(fmt.Errorf("gallium: WithQueueDepth(%d): depth must be a positive packet count", n))
			return
		}
		c.QueueDepth = n
	}
}

// Run streams a workload through the concurrent sharded packet engine
// built from these artifacts: an RSS-style dispatcher fans packets out to
// per-flow worker shards, the switch pipeline runs as a shared stage, and
// each worker makes its §4.3.3 write-backs visible on the switch before
// it delivers the packet. Run blocks until the workload is exhausted and
// every in-flight packet has settled; cancel ctx to abort early.
//
// Run is the one-shot convenience over the Session lifecycle: it opens a
// session, feeds the workload, and closes. Long-lived traffic with hot
// reconfiguration uses Open / Session.Feed / Session.Reconfigure
// directly. For packet-at-a-time experiments that need exact
// injection-time control (latency sweeps, per-packet traces), build a
// Testbed and use Inject.
func (a *Artifacts) Run(ctx context.Context, wl Workload, opts ...Option) (*Report, error) {
	opts = append([]Option{WithFlows(wl.Tuples())}, opts...)
	s, err := openSession(ctx, []*Artifacts{a}, opts)
	if err != nil {
		return nil, err
	}
	feedErr := s.Feed(wl)
	rep, closeErr := s.Close()
	if feedErr != nil {
		return nil, feedErr
	}
	if closeErr != nil {
		return nil, closeErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// shardScenarioSetup is ScenarioSetup's shard-aware counterpart: identical
// configuration on every shard, except allocators the middlebox must
// partition across concurrent shards (mazunat's external-port space).
func (a *Artifacts) shardScenarioSetup(flows []packet.FiveTuple, workers int) func(int, *ir.State) {
	if workers <= 0 {
		workers = 1
	}
	name := a.Name
	return func(shard int, st *ir.State) {
		middleboxes.ConfigureShard(name, shard, workers, st)
		switch name {
		case "firewall":
			for _, tup := range flows {
				middleboxes.AllowFlow(st, tup)
			}
		case "proxy":
			middleboxes.RedirectPort(st, 5001)
		}
	}
}
