// Package engine is the concurrent sharded packet engine: the runtime
// counterpart of the netsim testbed's single-threaded virtual-time model.
// An RSS-style flow-hash dispatcher fans packets out to N workers, each
// owning one shard of the middlebox server (its own authoritative state,
// like a DPDK core with per-core tables); the switch pipeline runs as a
// shared stage whose data plane takes no lock; and each worker commits its
// own §4.3.3 write-backs on its own control lane of the switch.
//
// Hand-off: packets reach a worker the way they reach a DPDK core, in
// bursts, through the worker's one bounded mailbox (mailbox.go): Feed
// pushes 32-packet bursts, Dispatch and the control jobs of settle and
// Reconfigure bursts of one, the worker pulls everything queued per lock.
// Cancelling the run closes the mailboxes (see abort).
//
// Ordering guarantees: packets of one flow always hash to the same worker
// and each worker runs one packet to completion before starting the next,
// so per-flow processing (and delivery-callback) order equals arrival
// order — the paper's run-to-completion claim (§4.4), now exercised under
// real goroutine concurrency rather than modeled. Cross-flow order is
// unspecified.
//
// Output commit (§4.3.3): the worker that made a write-back stages it on
// its own switch lane and flips it before the packet is delivered, so the
// switch serves the update before the packet leaves and before the worker
// takes its next job — each packet sees a serial order at any pull size.
// Other workers' packets may race the flip; flow sharding makes that
// benign: a flow that misses simply takes the slow path, and its own
// shard's authoritative state gives the right answer. §7 read-through
// fills ride the same flip without holding the packet.
//
// Lifecycle: an Engine is long-lived. Start spawns the workers; Feed
// streams one workload through them (callable repeatedly, injection times
// non-decreasing across feeds); Reconfigure applies a control-plane change
// as one atomic visibility flip while traffic keeps flowing; Stop joins
// everything and reports. Run is the one-shot convenience composing the
// three.
//
// Pipelines: Config.Stages chains several compiled middleboxes through one
// engine pass — a packet traverses stage 0's switch/server pair, then
// stage 1's, sharing the worker's (simulated) core and its control lane on
// every stage's switch. A single middlebox is a one-stage chain.
package engine

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gallium/internal/flowstate"
	"gallium/internal/ir"
	"gallium/internal/netsim"
	"gallium/internal/obs"
	"gallium/internal/packet"
	"gallium/internal/partition"
	"gallium/internal/serverrt"
	"gallium/internal/switchsim"
)

// Workload is a streaming packet source. Generate must produce packets in
// non-decreasing injection-time order; Tuples announces the five-tuples in
// advance so scenarios can pre-install per-flow configuration (firewall
// whitelists). trafficgen's generators satisfy it.
type Workload interface {
	Tuples() []packet.FiveTuple
	Generate(emit func(tNs int64, pkt *packet.Packet) error) error
}

// StageConfig describes one stage of the engine's middlebox pipeline.
type StageConfig struct {
	// Name labels the stage (reconfig addressing, diagnostics).
	Name string
	// Res is required in Offloaded mode.
	Res *partition.Result
	// Prog is required in Software mode.
	Prog *ir.Program
	// Setup seeds one shard's middlebox state for this stage (shard in
	// [0, Workers)). Configuration must be identical across shards except
	// for explicitly partitioned allocators (middleboxes.ConfigureShard).
	Setup func(shard int, st *ir.State)
}

// Config describes one engine instance.
type Config struct {
	// Mode is Offloaded (default for the zero Mode) or Software.
	Mode netsim.Mode
	// Workers is the number of server shards; <=0 means 1.
	Workers int
	// Stages is the middlebox pipeline, traversed in order; it needs at
	// least one stage.
	Stages []StageConfig
	// Model is the virtual-time cost model; the zero value means defaults.
	Model netsim.CostModel
	// Obs, when non-nil, receives metrics: per-worker counters plus
	// read-time "engine.*" aggregates. Nil disables observability.
	Obs *obs.Registry
	// QueueDepth bounds the packets queued in each worker's mailbox, and
	// so the most one pull can take: a dispatcher whose burst does not fit
	// blocks until the worker has pulled room for it (backpressure, never a
	// drop). <=0 means 256.
	QueueDepth int
	// OnDelivery, when non-nil, observes every packet fate. It is invoked
	// from worker goroutines concurrently (per-flow order preserved); the
	// callback must be safe for concurrent use.
	OnDelivery func(Delivery)
	// FlowTable, when non-nil, bounds the pipeline's dynamic flow state:
	// per-entry last-touch stamping, protocol-aware timeouts, and
	// capacity eviction (see internal/flowstate). Capacity is engine-wide
	// and split evenly across shards. Nil disables the lifecycle; state
	// then grows without bound, as before.
	FlowTable *flowstate.Config
}

// Reconfig is one compiled control-plane change, applied by Engine.
// Reconfigure as a single atomic visibility flip. The ctlplane package
// compiles typed operations (rule swaps, pool changes, repartitions) into
// this mechanism-level form.
type Reconfig struct {
	// Stage addresses the pipeline stage being reconfigured.
	Stage int
	// Mutate, when non-nil, runs once per shard INSIDE that shard's worker
	// goroutine against its authoritative state (preserving the engine's
	// goroutine confinement), and returns any shard-owned switch updates
	// (e.g. deletions of connection entries pointing at removed backends).
	Mutate func(shard int, st *ir.State) []switchsim.Update
	// Updates are shard-independent switch updates (table replacements,
	// vector swaps, register writes) staged with the shard-owned ones and
	// flipped together.
	Updates []switchsim.Update
	// FlowTable, when non-nil, retunes (or first arms) the ENGINE-WIDE
	// flow-state lifecycle while traffic flows: each worker adopts the
	// new capacity/timeouts inside its own goroutine during the pause, so
	// the retune is atomic with respect to packet processing. Stage still
	// addresses Mutate/Updates only.
	FlowTable *flowstate.Config
}

// Engine runs workloads through the concurrent sharded pipeline. Build
// one with New; drive it either with the one-shot Run or with the
// long-lived Start / Feed / Reconfigure / Stop lifecycle.
type Engine struct {
	cfg     Config
	stages  []StageConfig
	sws     []*switchsim.Switch // per stage; nil slice in Software mode
	workers []*worker

	// lifeDyn lists each stage's dynamic maps (those the data path
	// inserts into — the lifecycle-managed tables); lifeOff marks which
	// of a stage's globals are switch-resident, so expiry of an
	// offloaded entry ships a deletion through the control plane.
	lifeDyn [][]string
	lifeOff []map[string]bool
	// flowCfg is the engine-wide lifecycle config (normalized, total
	// capacity); nil when the lifecycle is disabled. Reconfigure swaps
	// it atomically for live retuning.
	flowCfg atomic.Pointer[flowstate.Config]

	wg     sync.WaitGroup
	cancel context.CancelFunc
	runCtx context.Context
	// aborted is set, and every mailbox closed, once runCtx is cancelled:
	// the packet path reads this flag instead of locking ctx.Err().
	aborted atomic.Bool

	// reconfMu serializes Reconfigure; feedMu serializes Feed calls (one
	// dispatcher at a time). Feed and Reconfigure may run concurrently
	// with each other.
	reconfMu sync.Mutex
	// feedMu and the dispatcher's per-packet state under it (seq, lastT,
	// fedAny) are written on every Dispatch: padded off the lines workers
	// read per packet (cfg, runCtx, aborted).
	_      [64]byte
	feedMu sync.Mutex
	seq    int64
	lastT  int64
	fedAny bool
	_      [64]byte

	started atomic.Bool
	stopped atomic.Bool
	startT  time.Time

	// reconfigs counts the reconfigurations applied.
	reconfigs atomic.Int64

	ran      atomic.Bool
	failOnce sync.Once
	runErr   atomic.Pointer[error]
}

// New builds an engine: one server shard per worker per stage, all seeded
// through each stage's Setup, and (in offloaded mode) one shared switch
// per stage seeded from shard 0's configured state via the ordinary
// control plane.
func New(cfg Config) (*Engine, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Mode == 0 {
		cfg.Mode = netsim.Offloaded
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.Model == (netsim.CostModel{}) {
		cfg.Model = netsim.DefaultModel()
	}
	if len(cfg.Stages) == 0 {
		return nil, errors.New("engine: no pipeline stages")
	}
	e := &Engine{cfg: cfg, stages: cfg.Stages}
	switch cfg.Mode {
	case netsim.Offloaded:
		for si, st := range e.stages {
			if st.Res == nil {
				return nil, fmt.Errorf("engine: offloaded stage %d needs a partition result", si)
			}
			sw := switchsim.New(st.Res)
			sw.ConfigureShards(cfg.Workers)
			e.sws = append(e.sws, sw)
		}
	case netsim.Software:
		for si, st := range e.stages {
			if st.Prog == nil {
				return nil, fmt.Errorf("engine: software stage %d needs a program", si)
			}
		}
	default:
		return nil, fmt.Errorf("engine: unknown mode %v", cfg.Mode)
	}
	for _, st := range e.stages {
		prog := st.Prog
		if st.Res != nil {
			prog = st.Res.Prog
		}
		e.lifeDyn = append(e.lifeDyn, flowstate.DynamicMaps(prog))
		off := map[string]bool{}
		if st.Res != nil {
			for _, g := range st.Res.OffloadedGlobals {
				off[g] = true
			}
		}
		e.lifeOff = append(e.lifeOff, off)
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{
			id:   i,
			eng:  e,
			box:  newMailbox(cfg.QueueDepth),
			hLat: obs.NewHistogram(nil),
			life: make([]atomic.Pointer[flowstate.Tracker], len(e.stages)),
		}
		stages := make([]netsim.Stage, len(e.stages))
		for si, st := range e.stages {
			if len(e.sws) > 0 {
				stages[si] = netsim.Stage{Switch: e.sws[si], Server: serverrt.New(st.Res)}
			} else {
				stages[si] = netsim.Stage{Software: serverrt.NewSoftware(st.Prog)}
			}
			if st.Setup != nil {
				st.Setup(i, stages[si].State())
			}
		}
		// One simulated core per worker, reading switch lane i; the seed
		// decorrelates the per-worker jitter streams.
		w.walk = netsim.NewWalker(cfg.Model, stages, 1, i, uint64(i+1)*0x9E3779B97F4A7C15, w)
		e.workers = append(e.workers, w)
	}
	for si, st := range e.stages {
		if len(e.sws) > 0 && st.Setup != nil {
			if err := e.sws[si].SeedFrom(e.workers[0].stageState(si)); err != nil {
				return nil, err
			}
		}
	}
	if cfg.FlowTable != nil {
		if err := cfg.FlowTable.Validate(); err != nil {
			return nil, fmt.Errorf("engine: flow table: %w", err)
		}
		n := cfg.FlowTable.Normalized()
		e.flowCfg.Store(&n)
		for _, w := range e.workers {
			w.setLifecycle(n)
		}
	}
	e.instrument(cfg.Obs)
	return e, nil
}

// instrument wires per-worker metrics and registers the read-time
// aggregates: "engine.*" counters are CounterFuncs summing the per-worker
// atomics, and "engine.latency_ns" is a merged histogram over the
// per-worker latency parts — the hot path never touches shared metrics.
func (e *Engine) instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for _, sw := range e.sws {
		sw.Instrument(reg)
	}
	parts := make([]*obs.Histogram, 0, len(e.workers))
	for _, w := range e.workers {
		for _, st := range w.walk.Stages {
			if st.Server != nil {
				st.Server.Instrument(reg)
			} else {
				st.Software.Instrument(reg)
			}
		}
		prefix := fmt.Sprintf("engine.worker.%d.", w.id)
		w.c = workerCounters{
			packets:   reg.Counter(prefix + "packets"),
			delivered: reg.Counter(prefix + "delivered"),
			fast:      reg.Counter(prefix + "fastpath"),
			slow:      reg.Counter(prefix + "slowpath"),
		}
		parts = append(parts, w.hLat)
	}
	sum := func(pick func(workerCounters) *obs.Counter) func() uint64 {
		return func() uint64 {
			var n uint64
			for _, w := range e.workers {
				n += pick(w.c).Value()
			}
			return n
		}
	}
	reg.CounterFunc("engine.packets", sum(func(c workerCounters) *obs.Counter { return c.packets }))
	reg.CounterFunc("engine.delivered", sum(func(c workerCounters) *obs.Counter { return c.delivered }))
	reg.CounterFunc("engine.fastpath", sum(func(c workerCounters) *obs.Counter { return c.fast }))
	reg.CounterFunc("engine.slowpath", sum(func(c workerCounters) *obs.Counter { return c.slow }))
	reg.CounterFunc("engine.reconfigs", func() uint64 { return uint64(e.reconfigs.Load()) })
	reg.MergedHistogram("engine.latency_ns", parts...)
	if e.flowCfg.Load() != nil {
		flowSum := func(pick func(flowstate.Stats) uint64) func() uint64 {
			return func() uint64 {
				var n uint64
				for _, fs := range e.flowTrackerStats() {
					n += pick(fs)
				}
				return n
			}
		}
		reg.CounterFunc("engine.flow.occupancy", flowSum(func(s flowstate.Stats) uint64 { return s.Occupancy }))
		reg.CounterFunc("engine.flow.expired", flowSum(func(s flowstate.Stats) uint64 { return s.Expired }))
		reg.CounterFunc("engine.flow.evicted", flowSum(func(s flowstate.Stats) uint64 { return s.Evicted }))
	}
}

// flowTrackerStats snapshots every armed tracker's counters (atomics, so
// safe to read while workers run).
func (e *Engine) flowTrackerStats() []flowstate.Stats {
	var out []flowstate.Stats
	for _, w := range e.workers {
		for si := range w.life {
			if tr := w.life[si].Load(); tr != nil {
				out = append(out, tr.Stats())
			}
		}
	}
	return out
}

// fail records the first error and aborts the run.
func (e *Engine) fail(err error) {
	e.failOnce.Do(func() {
		e.runErr.Store(&err)
		if e.cancel != nil {
			e.cancel()
			e.abort() // now, not when the AfterFunc gets to run
		}
	})
}

// abort releases everything parked on the packet hand-off: producers
// blocked on a full mailbox return false, workers skip the packets still
// queued, run the control jobs, and leave.
func (e *Engine) abort() {
	e.aborted.Store(true)
	for _, w := range e.workers {
		w.box.close()
	}
}

// hand pushes jobs onto w's mailbox in order, blocking while it is full
// (backpressure). It fails only once the run is aborted or stopped.
func (e *Engine) hand(w *worker, jobs ...job) error {
	if w.box.push(jobs) {
		return nil
	}
	return cmp.Or(e.runCtx.Err(), errors.New("engine: stopped"))
}

// err returns the first recorded failure, if any.
func (e *Engine) err() error {
	if p := e.runErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Start spawns the worker goroutines, one per shard and nothing else. It
// may be called once per Engine; cancel ctx to abort everything in flight.
func (e *Engine) Start(ctx context.Context) error {
	if !e.started.CompareAndSwap(false, true) {
		return errors.New("engine: Start may be called at most once per Engine")
	}
	e.startT = time.Now()
	e.runCtx, e.cancel = context.WithCancel(ctx)
	context.AfterFunc(e.runCtx, e.abort)
	for _, w := range e.workers {
		e.wg.Add(1)
		go func(w *worker) {
			defer e.wg.Done()
			w.loop()
		}(w)
	}
	return nil
}

// Feed streams one workload through the running engine and blocks until
// every packet of it has settled. Injection times must be non-decreasing
// across successive Feeds — the engine models one continuous deployment,
// so virtual time cannot restart. Feed may not run concurrently with itself or Stop; it MAY run
// concurrently with Reconfigure (that is the point of the live control
// plane).
func (e *Engine) Feed(wl Workload) error {
	if !e.started.Load() || e.stopped.Load() {
		return errors.New("engine: Feed requires a started, unstopped engine")
	}
	e.feedMu.Lock()
	defer e.feedMu.Unlock()
	genErr := wl.Generate(func(tNs int64, pkt *packet.Packet) error {
		if e.aborted.Load() {
			return e.runCtx.Err()
		}
		if e.fedAny && tNs < e.lastT {
			return fmt.Errorf("engine: out-of-order injection (%d < %d)", tNs, e.lastT)
		}
		e.fedAny = true
		e.lastT = tNs
		flow, _ := pkt.DispatchTuple()
		w := e.workers[netsim.RSSShard(pkt, len(e.workers))]
		w.burst = append(w.burst, job{seq: e.seq, tNs: tNs, flow: flow, pkt: pkt})
		e.seq++
		if len(w.burst) < feedBurst {
			return nil
		}
		return e.flush(w)
	})
	// Publish the tail bursts before the barrier that waits for them.
	for _, w := range e.workers {
		e.flush(w)
	}
	e.settle(nil)
	if err := e.err(); err != nil {
		return err
	}
	return genErr
}

// feedBurst is how many packets Feed accumulates per worker before one
// push: enough to amortize the mailbox lock and the worker's wake-up to a
// few ns per packet, small against the default QueueDepth.
const feedBurst = 32

// flush pushes the burst Feed accumulated for w (callers hold feedMu).
func (e *Engine) flush(w *worker) error {
	err := e.hand(w, w.burst...)
	clear(w.burst) // the backing array must not pin the caller's packets
	w.burst = w.burst[:0]
	return err
}

// Dispatch injects one packet into the running engine without settling:
// the streaming ingress for real-I/O front ends, where a barrier per
// datagram would defeat batching. It returns the packet's sequence
// number; the OnDelivery callback reports its fate asynchronously.
// Injection times are clamped monotone (real clocks jitter; virtual time
// cannot restart). Dispatch serializes with Feed on the dispatcher lock
// and may run concurrently with Reconfigure.
func (e *Engine) Dispatch(tNs int64, pkt *packet.Packet) (int64, error) {
	if !e.started.Load() || e.stopped.Load() {
		return 0, errors.New("engine: Dispatch requires a started, unstopped engine")
	}
	e.feedMu.Lock()
	defer e.feedMu.Unlock()
	if e.fedAny && tNs < e.lastT {
		tNs = e.lastT
	}
	e.fedAny = true
	e.lastT = tNs
	flow, _ := pkt.DispatchTuple()
	seq := e.seq
	e.seq++
	w := e.workers[netsim.RSSShard(pkt, len(e.workers))]
	if err := e.hand(w, job{seq: seq, tNs: tNs, flow: flow, pkt: pkt}); err != nil {
		return 0, err
	}
	return seq, nil
}

// settle injects a barrier control job into every worker and blocks until
// each has finished all previously queued packets (whose write-backs are
// then visible). When stats is non-nil it additionally receives a copy of
// each worker's counters, taken inside the worker goroutine (race-free
// even while traffic flows).
func (e *Engine) settle(stats []netsim.Stats) {
	var wg sync.WaitGroup
	for i, w := range e.workers {
		wg.Add(1)
		i := i
		err := e.hand(w, job{ctrl: func(w *worker) {
			defer wg.Done()
			// A settle barrier is a quiescent point: run a FULL sweep (no
			// removal cap), so its deletions land inside this barrier too.
			if w.lifeOn {
				w.sweep(true)
			}
			if stats != nil {
				stats[i] = w.walk.Stats
			}
		}})
		if err != nil {
			// Aborting: the worker will never pull the barrier; don't wait.
			wg.Done()
		}
	}
	wg.Wait()
}

// Reconfigure applies one compiled control-plane change atomically with
// respect to the data plane: every worker pauses at its current packet
// boundary, applies the per-shard mutation against its own state (in its
// own goroutine), the collected switch updates are staged and flipped as
// ONE batch through the §4.3.3 write-back path, and only then do the
// workers resume. Packets queue (bounded, with backpressure) during the
// pause instead of dropping, so a reconfiguration loses zero packets; a
// packet processed before the flip sees the old configuration everywhere,
// a packet after sees the new — never a mix.
func (e *Engine) Reconfigure(r Reconfig) error {
	if !e.started.Load() || e.stopped.Load() {
		return errors.New("engine: Reconfigure requires a started, unstopped engine")
	}
	if r.Stage < 0 || r.Stage >= len(e.stages) {
		return fmt.Errorf("engine: reconfigure stage %d out of range (pipeline has %d stages)", r.Stage, len(e.stages))
	}
	if r.FlowTable != nil {
		if err := r.FlowTable.Validate(); err != nil {
			return fmt.Errorf("engine: flow table: %w", err)
		}
	}
	e.reconfMu.Lock()
	defer e.reconfMu.Unlock()
	ctx := e.runCtx

	var mu sync.Mutex
	shardUpdates := append([]switchsim.Update(nil), r.Updates...)
	// Every return closes release, so a paused worker waits on nothing
	// else.
	release := make(chan struct{})
	defer close(release)
	ready := make(chan struct{}, len(e.workers))
	for i, w := range e.workers {
		i := i
		err := e.hand(w, job{ctrl: func(w *worker) {
			if r.Mutate != nil {
				ups := r.Mutate(i, w.stageState(r.Stage))
				if len(ups) > 0 {
					mu.Lock()
					shardUpdates = append(shardUpdates, ups...)
					mu.Unlock()
				}
			}
			if r.FlowTable != nil {
				// Retune (or first arm) this shard's lifecycle inside its
				// own goroutine, preserving state confinement.
				w.setLifecycle(r.FlowTable.Normalized())
			}
			ready <- struct{}{}
			<-release
		}})
		if err != nil {
			return err
		}
	}
	for range e.workers {
		select {
		case <-ready:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	// Every worker is paused at a packet boundary, and a worker flips its
	// write-backs before its next job, so nothing is in flight. Apply the
	// whole reconfiguration as worker 0's batch: stage everything on its
	// lane, flip ONCE — the single view store that is the §4.3.3 atomicity
	// for the data plane.
	if len(e.sws) > 0 {
		if _, _, err := e.workers[0].apply(r.Stage, shardUpdates, false); err != nil {
			e.fail(err)
			return err
		}
		e.sws[r.Stage].MarkReconfig()
	}
	if r.FlowTable != nil {
		n := r.FlowTable.Normalized()
		e.flowCfg.Store(&n)
	}
	e.reconfigs.Add(1)
	if err := e.err(); err != nil {
		return err
	}
	return ctx.Err()
}

// FlowConfig returns the engine-wide flow-table config (normalized), or
// nil when the lifecycle is disabled.
func (e *Engine) FlowConfig() *flowstate.Config {
	return e.flowCfg.Load()
}

// Stop closes the ingress, joins every worker, and reports. No Feed or
// Reconfigure may be in flight or issued afterwards.
func (e *Engine) Stop() (*Report, error) {
	if !e.started.Load() {
		return nil, errors.New("engine: Stop requires Start")
	}
	if !e.stopped.CompareAndSwap(false, true) {
		return nil, errors.New("engine: Stop may be called at most once per Engine")
	}
	for _, w := range e.workers {
		w.box.close()
	}
	e.wg.Wait()
	e.cancel()
	if err := e.err(); err != nil {
		return nil, err
	}
	per := make([]netsim.Stats, len(e.workers))
	for i, w := range e.workers {
		per[i] = w.walk.Stats
	}
	return e.buildReport(per, time.Since(e.startT)), nil
}

// LiveReport settles every worker at a barrier and reports the traffic
// processed so far without stopping the engine: per-worker counters are
// copied inside each worker's goroutine, so the snapshot is race-free even
// while another goroutine keeps feeding. It reflects all packets dispatched
// before the call; packets fed concurrently may or may not be included.
func (e *Engine) LiveReport() (*Report, error) {
	if !e.started.Load() || e.stopped.Load() {
		return nil, errors.New("engine: LiveReport requires a started, unstopped engine")
	}
	per := make([]netsim.Stats, len(e.workers))
	e.settle(per)
	if err := e.err(); err != nil {
		return nil, err
	}
	return e.buildReport(per, time.Since(e.startT)), nil
}

// Run streams the workload through the engine: a dispatcher goroutine (the
// caller) hashes each packet to its flow's worker, and workers process to
// completion in parallel, each flipping its own write-backs. Run blocks
// until the workload is exhausted and every in-flight packet has settled,
// then reports. Cancel ctx to abort: queued packets are drained
// unprocessed and ctx.Err() is returned.
func (e *Engine) Run(ctx context.Context, wl Workload) (*Report, error) {
	if !e.ran.CompareAndSwap(false, true) {
		return nil, errors.New("engine: Run may be called at most once per Engine")
	}
	if err := e.Start(ctx); err != nil {
		return nil, err
	}
	feedErr := e.Feed(wl)
	rep, stopErr := e.Stop()
	if feedErr != nil {
		return nil, feedErr
	}
	if stopErr != nil {
		return nil, stopErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// SwitchStatsAt exposes one pipeline stage's switch counters (offloaded
// mode only).
func (e *Engine) SwitchStatsAt(stage int) (switchsim.Stats, bool) {
	if stage < 0 || stage >= len(e.sws) {
		return switchsim.Stats{}, false
	}
	return e.sws[stage].Stats(), true
}

// Stages reports the pipeline's stage count.
func (e *Engine) Stages() int { return len(e.stages) }

// Uptime reports wall-clock time since Start.
func (e *Engine) Uptime() time.Duration {
	if !e.started.Load() {
		return 0
	}
	return time.Since(e.startT)
}

// StageName reports a stage's label ("" when unnamed).
func (e *Engine) StageName(stage int) string {
	if stage < 0 || stage >= len(e.stages) {
		return ""
	}
	return e.stages[stage].Name
}

// ShardStatesAt returns each worker shard's authoritative middlebox state
// for one pipeline stage, indexed by shard. Only meaningful after the
// engine stopped (workers own their states exclusively while running).
func (e *Engine) ShardStatesAt(stage int) []*ir.State {
	states := make([]*ir.State, len(e.workers))
	for i, w := range e.workers {
		states[i] = w.stageState(stage)
	}
	return states
}
