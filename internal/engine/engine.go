// Package engine is the concurrent sharded packet engine: the runtime
// counterpart of the netsim testbed's single-threaded virtual-time model.
// An RSS-style flow-hash dispatcher fans packets out to N workers, each
// owning one shard of the middlebox server (its own authoritative state,
// like a DPDK core with per-core tables); the switch pipeline runs as a
// shared stage whose data plane takes no lock; and the §4.3.3 write-back
// slow path is a real bounded channel per shard, each drained by a
// dedicated control-plane goroutine that stages and flips batches.
//
// Hand-off: packets reach a worker the way they reach a DPDK core, in
// bursts, through the worker's one bounded mailbox (mailbox.go): Feed
// pushes 32-packet bursts, Dispatch and the control jobs of settle and
// Reconfigure bursts of one, the worker pulls everything queued (up to
// Config.Batch) per lock.
// Cancelling the run closes the mailboxes (see abort).
//
// Ordering guarantees: packets of one flow always hash to the same worker
// and each worker runs one packet to completion before starting the next,
// so per-flow processing (and delivery-callback) order equals arrival
// order — the paper's run-to-completion claim (§4.4), now exercised under
// real goroutine concurrency rather than modeled. Cross-flow order is
// unspecified.
//
// The control-plane channel is asynchronous across workers but committed
// per flow: after emitting a write-back batch, a worker records it as
// pending and only stalls a later packet of the SAME flow on the drainer's
// apply (§4.3.3 output commit, narrowed from the worker to the flow).
// Workers pull packets in batches and close each batch with a barrier on
// every still-pending apply, so the commit wait is amortized across the
// batch instead of paid before every next packet. Because a flow's packets
// all land on one worker, a flow can never observe the switch missing its
// own earlier write-back — the remaining stale window is cross-flow only,
// where flow sharding makes it benign: a flow that misses simply takes the
// slow path, and its own shard's authoritative state gives the right
// answer. §7 cache fills stay fully fire-and-forget (a stale fill just
// re-punts).
//
// Lifecycle: an Engine is long-lived. Start spawns the workers and the
// control-plane drainer; Feed streams one workload through them (callable
// repeatedly, injection times non-decreasing across feeds); Reconfigure
// applies a control-plane change as one atomic visibility flip while
// traffic keeps flowing; Stop joins everything and reports. Run is the
// one-shot convenience composing the three.
//
// Pipelines: Config.Stages chains several compiled middleboxes through one
// engine pass — a packet traverses stage 0's switch/server pair, then
// stage 1's, sharing the worker's (simulated) core and the single
// control-plane drainer. A single middlebox is a one-stage chain.
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
	// Batch is the most queued jobs a worker pulls from its mailbox per
	// batch: one pull, one lock, taking everything queued up to Batch and
	// blocking only while the mailbox is empty. Within a batch, write-back
	// commits overlap with other flows' packets — a worker only stalls a
	// packet on its OWN flow's pending commit — and the batch ends with one
	// barrier on everything still in flight, amortizing the output-commit
	// wait over the batch. <=0 means QueueDepth: a pull takes everything
	// queued.
	Batch int
	// Stages is the middlebox pipeline, traversed in order; it needs at
	// least one stage.
	Stages []StageConfig
	// Model is the virtual-time cost model; the zero value means defaults.
	Model netsim.CostModel
	// Obs, when non-nil, receives metrics: per-worker counters plus
	// read-time "engine.*" aggregates. Nil disables observability.
	Obs *obs.Registry
	// QueueDepth bounds the packets queued in each worker's mailbox: a
	// dispatcher whose burst does not fit blocks until the worker has
	// pulled room for it (backpressure, never a drop). <=0 means 256.
	QueueDepth int
	// CtlQueue bounds the control-plane slow-path channel; <=0 means 256.
	CtlQueue int
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

// ctlBatch is one batch of replicated-state updates traveling a
// slow-path lane to its shard's control-plane drainer.
type ctlBatch struct {
	updates []switchsim.Update
	// stage routes the batch to its pipeline stage's switch.
	stage int
	// punt marks §7 cache-mode batches, which the drainer classifies into
	// fills and synchronous updates before staging.
	punt bool
	// applied, when non-nil, is closed once the drainer has applied the
	// batch: the sending worker blocks on it before its next packet
	// (§4.3.3 output commit, extended per worker — see Run's doc). A batch
	// with no updates and a non-nil applied is a flush marker: Reconfigure
	// uses one per lane to prove the lane's FIFO has drained.
	applied chan struct{}
}

// ctlShard is one worker shard's control-plane lane: its own bounded
// channel and its own drainer goroutine, so worker N's slow-path
// write-backs never queue behind worker M's. The counter block is padded
// to cache-line boundaries — each drainer writes only its own shard's
// counters.
type ctlShard struct {
	_  [64]byte
	ch chan ctlBatch
	// batches/ops/rejected account this drainer's applied work; the
	// report sums them across shards (plus Reconfigure's direct applies).
	batches  atomic.Int64
	ops      atomic.Int64
	rejected atomic.Int64
	_        [64]byte
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

	// ctls holds one control-plane lane per worker shard (offloaded mode);
	// worker i sends only to ctls[i], whose drainer stages into switch
	// lane i.
	ctls   []*ctlShard
	ctlWG  sync.WaitGroup
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

	// rcBatches/rcOps/rcRejected account control work Reconfigure applies
	// directly (its one flip bypasses the drainers; see Reconfigure).
	rcBatches  atomic.Int64
	rcOps      atomic.Int64
	rcRejected atomic.Int64
	reconfigs  atomic.Int64

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
	if cfg.Batch <= 0 {
		cfg.Batch = cfg.QueueDepth
	}
	if cfg.CtlQueue <= 0 {
		cfg.CtlQueue = 256
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

// Start spawns the worker goroutines and (in offloaded mode) one
// control-plane drainer per worker shard. It may be called once per
// Engine; cancel ctx to abort everything in flight.
func (e *Engine) Start(ctx context.Context) error {
	if !e.started.CompareAndSwap(false, true) {
		return errors.New("engine: Start may be called at most once per Engine")
	}
	e.startT = time.Now()
	e.runCtx, e.cancel = context.WithCancel(ctx)
	context.AfterFunc(e.runCtx, e.abort)
	if len(e.sws) > 0 {
		e.ctls = make([]*ctlShard, len(e.workers))
		for i := range e.ctls {
			e.ctls[i] = &ctlShard{ch: make(chan ctlBatch, e.cfg.CtlQueue)}
			e.ctlWG.Add(1)
			go e.drainCtl(i)
		}
	}
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
// every packet of it (and every control batch those packets emitted) has
// settled. Injection times must be non-decreasing across successive Feeds
// — the engine models one continuous deployment, so virtual time cannot
// restart. Feed may not run concurrently with itself or Stop; it MAY run
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
// each has finished all previously queued packets and retired their
// pending write-back applies. When stats is non-nil it additionally
// receives a copy of each worker's counters, taken inside the worker
// goroutine (race-free even while traffic flows).
func (e *Engine) settle(stats []netsim.Stats) {
	var wg sync.WaitGroup
	for i, w := range e.workers {
		wg.Add(1)
		i := i
		err := e.hand(w, job{ctrl: func(w *worker) {
			defer wg.Done()
			// A settle barrier is a quiescent point: run a FULL sweep
			// (no removal cap) before waiting out the in-flight applies,
			// so its deletions land inside this barrier too.
			if w.lifeOn {
				w.sweep(e.runCtx, true)
			}
			w.waitAll(e.runCtx)
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
	release := make(chan struct{})
	ready := make(chan struct{}, len(e.workers))
	paused := 0
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
			select {
			case <-release:
			case <-ctx.Done():
			}
		}})
		if err == nil {
			paused++
		}
	}
	for n := 0; n < paused; n++ {
		select {
		case <-ready:
		case <-ctx.Done():
			close(release)
			return ctx.Err()
		}
	}
	if err := ctx.Err(); err != nil {
		close(release)
		return err
	}

	// All workers are quiescent. Drain every shard's control lane with a
	// flush marker: worker i is the only sender on lane i and is paused,
	// so a marker enqueued now is behind every batch staged before the
	// pause, and its apply proves the lane is empty and its drainer idle.
	// Then apply the whole reconfiguration directly, as shard 0's batch:
	// stage everything, flip ONCE — the single view store that is the
	// §4.3.3 atomicity for the data plane.
	if len(e.sws) > 0 {
		markers := make([]chan struct{}, 0, len(e.ctls))
		for _, cs := range e.ctls {
			m := make(chan struct{})
			select {
			case cs.ch <- ctlBatch{stage: r.Stage, applied: m}:
				markers = append(markers, m)
			case <-ctx.Done():
				close(release)
				return ctx.Err()
			}
		}
		for _, m := range markers {
			select {
			case <-m:
			case <-ctx.Done():
				close(release)
				return ctx.Err()
			}
		}
		sw := e.sws[r.Stage]
		staged := 0
		for _, u := range shardUpdates {
			if err := sw.StageShard(0, u); err != nil {
				if errors.Is(err, switchsim.ErrTableFull) {
					e.rcRejected.Add(1)
					continue
				}
				close(release)
				e.fail(err)
				return err
			}
			staged++
		}
		sw.FlipShard(0)
		sw.MarkReconfig()
		e.rcBatches.Add(1)
		e.rcOps.Add(int64(staged))
	}
	if r.FlowTable != nil {
		n := r.FlowTable.Normalized()
		e.flowCfg.Store(&n)
	}
	close(release)
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

// Stop closes the ingress, joins every worker and the control-plane
// drainer, and reports. No Feed or Reconfigure may be in flight or issued
// afterwards.
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
	for _, cs := range e.ctls {
		close(cs.ch)
	}
	e.ctlWG.Wait()
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
// caller) hashes each packet to its flow's worker, workers process to
// completion in parallel, and the control-plane drainer applies write-back
// batches. Run blocks until the workload is exhausted and every in-flight
// packet and control batch has settled, then reports. Cancel ctx to abort:
// queued packets are drained unprocessed and ctx.Err() is returned.
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

// drainCtl is one shard's control-plane drainer: it applies each of its
// worker's slow-path batches through the §4.3.3 protocol — stage every
// update on the shard's own pending batch, then one visibility flip —
// until the lane closes. Staging takes only the shard's own lock; the flip
// holds the switch's control-plane mutex for O(batch) work. Full tables
// are soft failures (the entry stays server-only and its flow keeps taking
// the slow path).
func (e *Engine) drainCtl(shard int) {
	cs := e.ctls[shard]
	defer e.ctlWG.Done()
	stage := 0
	// A panic fails the run instead of the process; the cancellation
	// releases every worker waiting on this lane or on an apply.
	defer func() {
		if r := recover(); r != nil {
			e.fail(fmt.Errorf("engine: control drainer %d panicked at stage %d: %v", shard, stage, r))
		}
	}()
	for b := range cs.ch {
		stage = b.stage
		sw := e.sws[b.stage]
		toStage := b.updates
		if b.punt {
			fills, syncs := serverrt.ClassifyUpdates(sw, b.updates)
			toStage = append(fills, syncs...)
		}
		staged := 0
		for _, u := range toStage {
			err := sw.StageShard(shard, u)
			if errors.Is(err, switchsim.ErrTableFull) {
				cs.rejected.Add(1)
				continue
			}
			if err != nil {
				if b.applied != nil {
					close(b.applied)
				}
				e.fail(err)
				return
			}
			staged++
		}
		if staged > 0 {
			sw.FlipShard(shard)
			cs.batches.Add(1)
			cs.ops.Add(int64(staged))
		}
		if b.applied != nil {
			close(b.applied)
		}
	}
}

// SwitchStats exposes the first stage's switch counters (offloaded mode
// only); for chained pipelines use SwitchStatsAt.
func (e *Engine) SwitchStats() (switchsim.Stats, bool) {
	return e.SwitchStatsAt(0)
}

// SwitchStatsAt exposes one pipeline stage's switch counters.
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

// ShardStates returns each worker shard's authoritative middlebox state
// for the FIRST pipeline stage, indexed by shard. Only meaningful after
// the engine stopped (workers own their states exclusively while running).
func (e *Engine) ShardStates() []*ir.State {
	return e.ShardStatesAt(0)
}

// ShardStatesAt returns each shard's state for one pipeline stage.
func (e *Engine) ShardStatesAt(stage int) []*ir.State {
	states := make([]*ir.State, len(e.workers))
	for i, w := range e.workers {
		states[i] = w.stageState(stage)
	}
	return states
}
