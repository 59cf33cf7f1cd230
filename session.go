package gallium

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"gallium/internal/ctlplane"
	"gallium/internal/engine"
	"gallium/internal/ir"
	"gallium/internal/netsim"
)

// ReconfigOp is one typed live-reconfiguration operation accepted by
// Session.Reconfigure: FirewallRuleSwap, LBPoolChange, NATRepartition, or
// TableReplace.
type ReconfigOp = ctlplane.Op

// FirewallRuleSwap atomically replaces the firewall's whitelist.
type FirewallRuleSwap = ctlplane.FirewallRuleSwap

// LBPoolChange atomically replaces a load balancer's weighted backend
// pool, optionally draining connections off removed backends.
type LBPoolChange = ctlplane.LBPoolChange

// Backend is one weighted LBPoolChange pool member.
type Backend = ctlplane.Backend

// NATRepartition re-splits the NAT's external-port space across shards.
type NATRepartition = ctlplane.NATRepartition

// TableReplace atomically replaces one named map's entire content.
type TableReplace = ctlplane.TableReplace

// Pipeline is a chain of compiled middleboxes sharing one engine pass:
// every packet traverses the stages in order (firewall → NAT → LB),
// each stage with its own switch tables and per-shard server state, every
// worker committing its write-backs to each stage's switch. Build one with
// Chain, run it with Open or Run.
type Pipeline struct {
	stages []*Artifacts
}

// Chain composes compiled middleboxes into a Pipeline in traversal order.
// At least one stage is required; stage names (for galliumctl's by-name
// addressing) are the middlebox names, deduplicated nowhere — address
// duplicate middleboxes by index.
func Chain(arts ...*Artifacts) (*Pipeline, error) {
	if len(arts) == 0 {
		return nil, errors.New("gallium: Chain needs at least one middlebox")
	}
	for i, a := range arts {
		if a == nil {
			return nil, fmt.Errorf("gallium: Chain stage %d is nil", i)
		}
	}
	return &Pipeline{stages: append([]*Artifacts(nil), arts...)}, nil
}

// Stages reports the chain's middlebox names in traversal order.
func (p *Pipeline) Stages() []string {
	names := make([]string, len(p.stages))
	for i, a := range p.stages {
		names[i] = a.Name
	}
	return names
}

// Open starts a long-lived session over the pipeline. See Open.
func (p *Pipeline) Open(opts ...Option) (*Session, error) {
	return openSession(context.Background(), p.stages, opts)
}

// Run streams one workload through the pipeline and closes — the
// chained counterpart of Artifacts.Run.
func (p *Pipeline) Run(ctx context.Context, wl Workload, opts ...Option) (*Report, error) {
	opts = append([]Option{WithFlows(wl.Tuples())}, opts...)
	s, err := openSession(ctx, p.stages, opts)
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

// Session is a long-lived handle on a running engine: traffic flows in
// through Feed while the control plane reconfigures the deployment live
// through Reconfigure — each operation applied as one atomic visibility
// flip with zero packet loss. Feed, Reconfigure, Stats, and Drain may be
// called concurrently with each other; Close tears everything down and
// returns the final report.
//
//	s, err := gallium.Open(art, gallium.WithWorkers(8), gallium.WithScenario())
//	go s.Feed(traffic)
//	err = s.Reconfigure(gallium.LBPoolChange{Backends: pool, Drain: true})
//	rep, err := s.Close()
type Session struct {
	eng     *engine.Engine
	targets []ctlplane.Target
	workers int
	cancel  context.CancelFunc

	settleFns []func(shard int, st *ir.State)
	mergedFns []func(merged *ir.State, exact bool, conflict string)
	// merge combines shard states for the mergedFns hooks; bound to stage
	// 0's artifacts at open time (Artifacts.MergeShardStates).
	merge func(states []*ir.State) (*ir.State, bool, string)

	mu     sync.Mutex
	closed bool
	report *Report
}

// Open starts a long-lived session over one compiled middlebox. Options
// are Run's: workers, mode, scenario seeding (announce planned flows with
// WithFlows), metrics, queue bounds. The session runs until Close.
func Open(a *Artifacts, opts ...Option) (*Session, error) {
	return openSession(context.Background(), []*Artifacts{a}, opts)
}

// openSession builds, seeds, and starts the engine behind Run, Open, and
// Pipeline.Open. ctx aborts the whole session when cancelled (Run's
// context; background for Open, where Close is the only exit).
func openSession(ctx context.Context, arts []*Artifacts, opts []Option) (*Session, error) {
	var cfg runConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.err != nil {
		return nil, cfg.err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	targets := make([]ctlplane.Target, len(arts))
	for i, a := range arts {
		st := engine.StageConfig{Name: a.Name, Res: a.Res}
		if cfg.Mode == netsim.Software {
			st.Res = nil
			st.Prog = a.Prog
		}
		switch {
		case cfg.scenario:
			st.Setup = a.shardScenarioSetup(cfg.flows, workers)
		case i == 0 && len(cfg.seedFns) > 0:
			seeds := cfg.seedFns
			st.Setup = func(shard int, state *ir.State) {
				for _, fn := range seeds {
					fn(shard, state)
				}
			}
		}
		cfg.Config.Stages = append(cfg.Config.Stages, st)
		targets[i] = ctlplane.Target{Name: a.Name, Res: st.Res, Prog: a.Prog}
	}
	eng, err := engine.New(cfg.Config)
	if err != nil {
		return nil, err
	}
	runCtx, cancel := context.WithCancel(ctx)
	if err := eng.Start(runCtx); err != nil {
		cancel()
		return nil, err
	}
	return &Session{
		eng:       eng,
		targets:   targets,
		workers:   workers,
		cancel:    cancel,
		settleFns: cfg.settleFns,
		mergedFns: cfg.mergedFns,
		merge:     arts[0].MergeShardStates,
	}, nil
}

// Feed streams one workload through the session and blocks until every
// packet of it has settled. Callable repeatedly; injection times must be
// non-decreasing across feeds (the session models one continuous
// deployment). Feed may run concurrently with Reconfigure — that is the
// point of the live control plane — but not with itself or Close.
func (s *Session) Feed(wl Workload) error {
	return s.eng.Feed(wl)
}

// Dispatch injects one packet into the session without a settle barrier:
// the streaming ingress for real-I/O front ends (see internal/udpio),
// where a quiescence barrier per datagram would defeat batching. It
// returns the packet's sequence number; fates arrive asynchronously on
// the WithDeliveries callback. tNs is the arrival timestamp in ns;
// values that run backwards are clamped monotone.
func (s *Session) Dispatch(tNs int64, pkt *Packet) (int64, error) {
	return s.eng.Dispatch(tNs, pkt)
}

// Reconfigure validates one typed operation against the compiled
// partition and applies it to the running session as a single atomic
// visibility flip: every shard's state mutates at a quiescent point, the
// switch updates flip in one RCU snapshot publication, and traffic
// resumes — zero packets lost, no packet ever observing a half-applied
// change. Implements ctlplane.Runtime, so a ctlplane.Server can drive a
// Session directly.
func (s *Session) Reconfigure(op ReconfigOp) error {
	r, err := ctlplane.Compile(op, s.targets, s.workers)
	if err != nil {
		return err
	}
	return s.eng.Reconfigure(r)
}

// Stats settles the engine at a barrier and reports the traffic processed
// so far without stopping it. Safe to call while Feed is streaming.
func (s *Session) Stats() (*Report, error) {
	return s.eng.LiveReport()
}

// StatsPayload implements ctlplane.Runtime: the live counters in wire
// form.
func (s *Session) StatsPayload() (*ctlplane.StatsPayload, error) {
	rep, err := s.Stats()
	if err != nil {
		return nil, err
	}
	p := &ctlplane.StatsPayload{
		Injected:   int64(rep.Stats.Injected),
		Delivered:  int64(rep.Stats.Delivered),
		MBDrops:    int64(rep.Stats.MBDrops),
		QueueDrops: int64(rep.Stats.QueueDrops),
		FastPath:   int64(rep.Stats.FastPath),
		SlowPath:   int64(rep.Stats.SlowPath),
		Reconfigs:  rep.Reconfigs,
		Workers:    rep.Workers,
		PPS:        rep.PPS,
	}
	if f := rep.Flow; f != nil {
		p.FlowCapacity = f.Capacity
		p.FlowOccupancy = f.Occupancy
		p.FlowPeak = f.Peak
		p.FlowExpired = f.Expired
		p.FlowEvicted = f.Evicted
	}
	for i, sw := range rep.SwitchStages {
		p.Stages = append(p.Stages, ctlplane.StageStats{
			Name:      s.eng.StageName(i),
			FastPath:  sw.FastPath,
			ToServer:  sw.ToServer,
			CtlOps:    sw.CtlOps,
			CtlFlips:  sw.CtlFlips,
			Reconfigs: sw.Reconfigs,
			Epoch:     sw.Epoch,
		})
	}
	return p, nil
}

// StageNames implements ctlplane.Runtime: the pipeline's middlebox names
// in stage order.
func (s *Session) StageNames() []string {
	names := make([]string, s.eng.Stages())
	for i := range names {
		names[i] = s.eng.StageName(i)
	}
	return names
}

// Drain blocks until every packet and control batch dispatched so far has
// fully settled — the quiescence barrier between phases of a live
// experiment. Traffic fed concurrently is unaffected.
func (s *Session) Drain() error {
	_, err := s.eng.LiveReport()
	return err
}

// Close stops the session — joins the workers — and returns the final
// report. Any WithState hooks observe
// each shard's final state here, and WithMergedState hooks then receive
// the certificate-policy merge of those states. Idempotent: later calls
// return the first result.
func (s *Session) Close() (*Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		if s.report == nil {
			return nil, errors.New("gallium: session already closed with error")
		}
		return s.report, nil
	}
	s.closed = true
	rep, err := s.eng.Stop()
	s.cancel()
	if err != nil {
		return nil, err
	}
	if len(s.settleFns) > 0 || len(s.mergedFns) > 0 {
		states := s.eng.ShardStatesAt(0)
		for shard, st := range states {
			for _, fn := range s.settleFns {
				fn(shard, st)
			}
		}
		if len(s.mergedFns) > 0 {
			merged, exact, conflict := s.merge(states)
			for _, fn := range s.mergedFns {
				fn(merged, exact, conflict)
			}
		}
	}
	s.report = rep
	return rep, nil
}

// Serve exposes the session's control plane on a unix socket speaking the
// galliumctl JSON protocol. Returns the server; Close it before closing
// the session.
func (s *Session) Serve(path string) (*ctlplane.Server, error) {
	srv := ctlplane.NewServer(s)
	if err := srv.Listen(path); err != nil {
		return nil, err
	}
	return srv, nil
}

// Uptime reports wall-clock time since Open, for serving CLIs.
func (s *Session) Uptime() time.Duration { return s.eng.Uptime() }
