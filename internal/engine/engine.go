// Package engine models the paper's testbed (§6.3) packet by packet. It
// holds the walker (walker.go), which carries one packet through the
// Figure 1 trip under the calibrated cost model (costmodel.go), and both
// of its drivers, built from one Config, reconfigured by one Reconfig and
// reported through one Report: the sequential virtual-time Testbed
// (testbed.go) and the concurrent sharded packet engine described below.
// They differ only in how a packet enters (Inject against Dispatch/Feed)
// and in when a write-back flips.
//
// An RSS-style flow-hash dispatcher fans packets out to N workers, each
// owning one shard of the middlebox server (its own authoritative state,
// like a DPDK core with per-core tables); the switch pipeline runs as a
// shared stage whose data plane takes no lock; and each worker commits its
// own §4.3.3 write-backs on its own control lane of the switch.
//
// Hand-off: packets reach a worker the way they reach a DPDK core, in
// bursts, through the worker's one bounded mailbox (mailbox.go): Feed
// pushes 32-packet bursts, Dispatch one burst per worker per receive batch
// (a read's packets marked Packet.RxBurst wait for its unmarked last one),
// the control jobs of settle and Reconfigure bursts of one, and the worker
// pulls everything queued per lock. Where nothing else waits on the
// caller, it hands nothing off: it borrows the parked worker and runs the
// packets on its own goroutine, delivery callback included, while the
// mailbox keeps the worker parked. A lone Dispatch does so when it finds
// its worker parked on an empty mailbox; Feed at one worker does so for
// every burst, waiting for the worker to park, so control jobs queued
// meanwhile run on the worker between two bursts. At more workers Feed
// pushes, since running one worker's burst would stall dispatch to the
// others. Cancelling the run closes the mailboxes (see abort).
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
// Lifecycle: an Engine runs from New to Stop. New builds, seeds and
// starts the workers; Feed streams one workload through them (callable
// repeatedly, injection times non-decreasing across feeds); Reconfigure
// applies a control-plane change as one atomic visibility flip while
// traffic keeps flowing; Stop joins everything and reports.
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
	// Res is the stage's compiled middlebox, required in either mode: the
	// software baseline runs its Prog whole.
	Res *partition.Result
	// Setup seeds one shard's middlebox state for this stage (shard in
	// [0, Workers)). Configuration must be identical across shards except
	// for explicitly partitioned allocators (middleboxes.ConfigureShard).
	Setup func(shard int, st *ir.State)
}

// Mode selects the deployment under test. The zero Mode is "unset": it
// defaults to Offloaded when a testbed or engine is built from it, and is
// what gallium.ParseMode returns alongside an error — so an ignored parse
// error can never be mistaken for an explicit mode choice.
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

// Config describes one engine instance.
type Config struct {
	// Mode is Offloaded (default for the zero Mode) or Software.
	Mode Mode
	// Workers is the number of server shards; <=0 means 1.
	Workers int
	// Stages is the middlebox pipeline, traversed in order; it needs at
	// least one stage.
	Stages []StageConfig
	// Model is the virtual-time cost model; the zero value means defaults.
	Model CostModel
	// Obs, when non-nil, receives metrics (see deployment.instrument) and,
	// when its tracing is enabled, the first packets' hop traces. Nil
	// disables observability.
	Obs *obs.Registry
	// QueueDepth bounds the packets queued in each worker's mailbox, and
	// so the most one pull can take: a dispatcher whose burst does not fit
	// blocks until the worker has pulled room for it (backpressure, never a
	// drop). <=0 means 256.
	QueueDepth int
	// OnDelivery, when non-nil, observes every packet fate. It is invoked
	// from worker goroutines concurrently (per-flow order preserved), for
	// a packet Dispatch runs itself on the Dispatch caller's goroutine
	// before Dispatch returns, and at one worker for Feed's packets on the
	// Feed caller's goroutine, so it must be safe for concurrent use and
	// must not wait for a lock its Dispatch or Feed caller holds.
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

// check refuses a change to a stage outside a pipeline of n stages, or to
// an invalid flow table, before either driver applies any of it.
func (r Reconfig) check(n int) error {
	if r.Stage < 0 || r.Stage >= n {
		return fmt.Errorf("engine: reconfigure stage %d out of range (pipeline has %d stages)", r.Stage, n)
	}
	if r.FlowTable != nil {
		if err := r.FlowTable.Validate(); err != nil {
			return fmt.Errorf("engine: flow table: %w", err)
		}
	}
	return nil
}

// Engine runs workloads through the concurrent sharded pipeline, from New
// (which starts its workers) to Stop: Feed, Dispatch, Reconfigure and
// LiveReport in between.
type Engine struct {
	deployment
	cfg     Config
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
	// fedAny, pending) are written on every Dispatch: padded off the lines
	// workers read per packet (cfg, runCtx, aborted).
	_      [64]byte
	feedMu sync.Mutex
	seq    int64
	lastT  int64
	fedAny bool
	// pending is set while a worker's burst holds packets a Dispatch left
	// there (Packet.RxBurst), and cleared by flushBursts. It is written
	// under feedMu; the control paths read it without feedMu to learn
	// whether they must flush before their barrier (flushPending).
	pending atomic.Bool
	_       [64]byte

	stopped atomic.Bool
	startT  time.Time

	// reconfigs counts the reconfigurations applied.
	reconfigs atomic.Int64

	failOnce sync.Once
	runErr   atomic.Pointer[error]
}

// New builds an engine and starts it: one server shard per worker per
// stage, all seeded through each stage's Setup, (in offloaded mode) one
// shared switch per stage seeded from shard 0's configured state via the
// ordinary control plane, and one goroutine per worker and nothing else.
// A New that fails has started nothing. Cancel ctx to abort everything in
// flight; Stop ends the engine either way.
func New(ctx context.Context, cfg Config) (*Engine, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	sws, shards, err := build(&cfg, cfg.Workers)
	if err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, deployment: deployment{stages: cfg.Stages, sws: sws}}
	e.stats = func(i int) Stats { return e.workers[i].published() }
	for _, st := range e.stages {
		e.lifeDyn = append(e.lifeDyn, flowstate.DynamicMaps(st.Res.Prog))
		off := map[string]bool{}
		for _, g := range st.Res.OffloadedGlobals {
			off[g] = true
		}
		e.lifeOff = append(e.lifeOff, off)
	}
	for i, stages := range shards {
		w := &worker{
			id:   i,
			eng:  e,
			box:  newMailbox(cfg.QueueDepth),
			life: make([]atomic.Pointer[flowstate.Tracker], len(e.stages)),
		}
		// One simulated core per worker, reading switch lane i; the seed
		// decorrelates the per-worker jitter streams.
		w.walk = newWalker(cfg.Model, stages, 1, i, uint64(i+1)*0x9E3779B97F4A7C15, w)
		e.workers = append(e.workers, w)
		e.walks = append(e.walks, &w.walk)
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
	e.register(cfg.Obs)
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
	return e, nil
}

// build fills cfg's defaults and builds what both drivers run: per stage,
// in offloaded mode, one switch with a control lane per shard, and per
// shard one walker stage per pipeline stage, its server state seeded
// through the stage's Setup. Each switch is seeded from shard 0's state
// through the ordinary control plane.
func build(cfg *Config, shards int) ([]*switchsim.Switch, [][]walkStage, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	shards = max(shards, 1)
	if cfg.Mode == 0 {
		cfg.Mode = Offloaded
	}
	if cfg.Model == (CostModel{}) {
		cfg.Model = DefaultModel()
	}
	if len(cfg.Stages) == 0 {
		return nil, nil, errors.New("engine: no pipeline stages")
	}
	if cfg.Mode != Offloaded && cfg.Mode != Software {
		return nil, nil, fmt.Errorf("engine: unknown mode %v", cfg.Mode)
	}
	var sws []*switchsim.Switch
	for si, st := range cfg.Stages {
		if st.Res == nil {
			return nil, nil, fmt.Errorf("engine: stage %d needs a partition result", si)
		}
		if cfg.Mode == Offloaded {
			sw := switchsim.New(st.Res)
			sw.ConfigureShards(shards)
			sws = append(sws, sw)
		}
	}
	all := make([][]walkStage, shards)
	for i := range all {
		all[i] = make([]walkStage, len(cfg.Stages))
		for si, st := range cfg.Stages {
			stage := &all[i][si]
			if len(sws) > 0 {
				*stage = walkStage{Switch: sws[si], Server: serverrt.New(st.Res)}
			} else {
				*stage = walkStage{Server: serverrt.NewSoftware(st.Res.Prog)}
			}
			if st.Setup == nil {
				continue
			}
			st.Setup(i, stage.Server.State)
			if i == 0 && stage.Switch != nil {
				if err := stage.Switch.SeedFrom(stage.Server.State); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	return sws, all, nil
}

// register registers the deployment's metrics and the engine's own, read
// at snapshot time: the workers' borrowed runs, the reconfigurations and,
// with a lifecycle, the flow table.
func (e *Engine) register(reg *obs.Registry) {
	e.instrument(reg)
	if reg == nil {
		return
	}
	for _, w := range e.workers {
		reg.CounterFunc("engine.borrowed", func() uint64 { return uint64(w.borrowed.Load()) })
	}
	reg.CounterFunc("engine.reconfigs", func() uint64 { return uint64(e.reconfigs.Load()) })
	if e.flowCfg.Load() != nil {
		reg.CounterFunc("engine.flow.occupancy", func() uint64 { return e.flowStats().Occupancy })
		reg.CounterFunc("engine.flow.expired", func() uint64 { return e.flowStats().Expired })
		reg.CounterFunc("engine.flow.evicted", func() uint64 { return e.flowStats().Evicted })
	}
}

// flowStats sums every armed tracker's counters (atomics, so safe to read
// while workers run), with the engine-wide capacity; nil when the
// lifecycle is disabled.
func (e *Engine) flowStats() *flowstate.Stats {
	cfg := e.flowCfg.Load()
	if cfg == nil {
		return nil
	}
	sum := &flowstate.Stats{Capacity: cfg.Capacity}
	for _, w := range e.workers {
		for si := range w.life {
			if tr := w.life[si].Load(); tr != nil {
				fs := tr.Stats()
				sum.Occupancy += fs.Occupancy
				sum.Peak += fs.Peak
				sum.Expired += fs.Expired
				sum.Evicted += fs.Evicted
			}
		}
	}
	return sum
}

// fail records the first error and aborts the run.
func (e *Engine) fail(err error) {
	e.failOnce.Do(func() {
		e.runErr.Store(&err)
		e.cancel()
		e.abort() // now, not when the AfterFunc gets to run
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
	return e.refusal()
}

// refusal is why an aborted or stopped engine takes no more packets: the
// run's first failure, else the cancellation, else the Stop.
func (e *Engine) refusal() error {
	return cmp.Or(e.err(), e.runCtx.Err(), errors.New("engine: stopped"))
}

// err returns the first recorded failure, if any.
func (e *Engine) err() error {
	if p := e.runErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Feed streams one workload through the running engine and blocks until
// every packet of it has settled. Injection times must be non-decreasing
// across successive Feeds — the engine models one continuous deployment,
// so virtual time cannot restart. Feed may not run concurrently with itself or Stop; it MAY run
// concurrently with Reconfigure (that is the point of the live control
// plane). At one worker it runs each burst on its own goroutine
// (feedFlush).
func (e *Engine) Feed(wl Workload) error {
	if e.stopped.Load() {
		return errors.New("engine: Feed after Stop")
	}
	e.feedMu.Lock()
	defer e.feedMu.Unlock()
	// A read that Dispatch left unfinished goes first, so nothing is
	// pending while the workload runs: a control job it issues does not
	// wait for this Feed's lock.
	e.flushBursts()
	genErr := wl.Generate(func(tNs int64, pkt *packet.Packet) error {
		if e.aborted.Load() {
			return e.runCtx.Err()
		}
		if e.fedAny && tNs < e.lastT {
			return fmt.Errorf("engine: out-of-order injection (%d < %d)", tNs, e.lastT)
		}
		e.fedAny = true
		e.lastT = tNs
		flow, w := e.steer(pkt)
		w.burst = append(w.burst, job{seq: e.seq, tNs: tNs, flow: flow, pkt: pkt})
		e.seq++
		if len(w.burst) < feedBurst {
			return nil
		}
		return e.feedFlush(w)
	})
	// Publish the tail bursts before the barrier that waits for them.
	for _, w := range e.workers {
		if len(w.burst) > 0 {
			e.feedFlush(w)
		}
	}
	e.settle()
	if err := e.err(); err != nil {
		return err
	}
	return genErr
}

// steer reads pkt's DispatchTuple, once, and returns it with the worker
// RSSShard steers pkt to.
func (e *Engine) steer(pkt *packet.Packet) (packet.FiveTuple, *worker) {
	flow, ok := pkt.DispatchTuple()
	if len(e.workers) == 1 {
		return flow, e.workers[0]
	}
	return flow, e.workers[tupleHash(pkt, flow, ok)%uint64(len(e.workers))]
}

// feedBurst is how many packets Feed, or Dispatch for a receive batch,
// accumulates per worker before one push: enough to amortize the mailbox
// lock and the worker's wake-up to a few ns per packet, small against the
// default QueueDepth.
const feedBurst = 32

// flush pushes the burst accumulated for w (callers hold feedMu).
func (e *Engine) flush(w *worker) error {
	err := e.hand(w, w.burst...)
	clear(w.burst) // the backing array must not pin the caller's packets
	w.burst = w.burst[:0]
	return err
}

// feedFlush hands Feed's burst for w over (callers hold feedMu). At one
// worker there is no other worker whose dispatch running it would stall,
// so the caller runs it itself, as Dispatch runs a lone packet: it waits
// until the worker is parked on an empty mailbox, borrows it for this
// burst only, and gives it back, so control jobs queued meanwhile run on
// the worker between two bursts. At more workers it pushes the burst.
func (e *Engine) feedFlush(w *worker) error {
	if len(e.workers) > 1 {
		return e.flush(w)
	}
	lent := w.box.borrow(true) // false once the mailbox is closed
	if lent {
		w.runBorrowed(w.burst)
	}
	clear(w.burst) // the backing array must not pin the caller's packets
	w.burst = w.burst[:0]
	if !lent || e.aborted.Load() {
		return e.refusal()
	}
	return nil
}

// flushBursts pushes every worker's burst, one push each, and clears
// pending (callers hold feedMu). It returns the first refusal.
func (e *Engine) flushBursts() error {
	var err error
	for _, w := range e.workers {
		if len(w.burst) > 0 {
			err = cmp.Or(err, e.flush(w))
		}
	}
	e.pending.Store(false)
	return err
}

// flushPending pushes the bursts Dispatch left pending, if any, so that a
// control job handed next queues behind every packet whose Dispatch
// returned. It takes feedMu only when something is pending, so a control
// job beside a running Feed does not wait for that Feed. A refused push
// means the run is aborting, which the caller's barrier reports.
func (e *Engine) flushPending() {
	if !e.pending.Load() {
		return
	}
	e.feedMu.Lock()
	e.flushBursts()
	e.feedMu.Unlock()
}

// Dispatch injects one packet into the running engine without settling:
// the streaming ingress for real-I/O front ends, where a barrier per
// datagram would defeat batching. It returns the packet's sequence
// number; the OnDelivery callback reports its fate.
//
// A packet marked RxBurst says that more datagrams of the caller's read
// follow: it joins its worker's burst, as Feed's packets do, and returns.
// An unmarked packet ends the read: every worker's pending burst is
// pushed, one push each, so a read whose datagrams hash to several
// workers leaves nothing behind; a burst that reaches 32 packets pushes
// them all early. A caller that marks its last packet has its packets
// pushed by the next unmarked Dispatch, Feed, LiveReport, Reconfigure or
// Stop, whichever comes first.
//
// An unmarked packet whose worker has nothing pending goes last: if the
// worker is then parked on an empty mailbox, Dispatch runs the packet to
// completion itself, as a DPDK core runs what it received (flat
// combining: the caller that finds the owner idle does the owner's work),
// so the callback runs on the caller's goroutine before Dispatch returns.
// Otherwise the packet joins its worker's burst, pushed with the others,
// and the callback runs later on the worker. Either way each worker runs
// its packets and control jobs one at a time in arrival order.
//
// Injection times are clamped monotone (real clocks jitter; virtual time
// cannot restart). Dispatch serializes with Feed on the dispatcher lock
// and may run concurrently with Reconfigure.
func (e *Engine) Dispatch(tNs int64, pkt *packet.Packet) (int64, error) {
	e.feedMu.Lock()
	// Checked under feedMu: Stop flushes the bursts under it, so a packet
	// is either in a burst Stop pushes or refused here.
	if e.stopped.Load() {
		e.feedMu.Unlock()
		return 0, errors.New("engine: Dispatch after Stop")
	}
	if e.aborted.Load() {
		e.feedMu.Unlock()
		return 0, e.refusal()
	}
	if e.fedAny && tNs < e.lastT {
		tNs = e.lastT
	}
	e.fedAny = true
	e.lastT = tNs
	flow, w := e.steer(pkt)
	j := job{seq: e.seq, tNs: tNs, flow: flow, pkt: pkt}
	e.seq++
	var err error
	if !pkt.RxBurst && len(w.burst) == 0 {
		// Nothing of this worker is pending: push the rest of the read,
		// then run the packet here if the worker is idle.
		if e.pending.Load() {
			err = e.flushBursts()
		}
		if err == nil && w.box.borrow(false) {
			// The worker is ours until runBorrowed gives it back; a
			// Dispatch behind this one finds it borrowed and queues.
			e.feedMu.Unlock()
			w.runBorrowed([]job{j})
			if e.aborted.Load() {
				return 0, e.refusal()
			}
			return j.seq, nil
		}
	}
	w.burst = append(w.burst, j)
	if pkt.RxBurst && len(w.burst) < feedBurst {
		if !e.pending.Load() {
			e.pending.Store(true)
		}
	} else {
		err = cmp.Or(err, e.flushBursts())
	}
	e.feedMu.Unlock()
	if err != nil {
		return 0, err
	}
	return j.seq, nil
}

// settle injects a barrier control job into every worker and blocks until
// each has finished all previously queued packets (whose write-backs are
// then visible) and published its counters, copied inside the worker
// goroutine (race-free even while traffic flows).
func (e *Engine) settle() {
	var wg sync.WaitGroup
	for _, w := range e.workers {
		wg.Add(1)
		err := e.hand(w, job{ctrl: func(w *worker) {
			defer wg.Done()
			// A settle barrier is a quiescent point: run a FULL sweep (no
			// removal cap), so its deletions land inside this barrier too.
			if w.lifeOn {
				w.sweep(true)
			}
			w.publish()
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
	if e.stopped.Load() {
		return errors.New("engine: Reconfigure after Stop")
	}
	if err := r.check(len(e.stages)); err != nil {
		return err
	}
	// Before reconfMu: a Reconfigure issued by a Feed's workload must not
	// wait on one that waits for that Feed's lock.
	e.flushPending()
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

// Stop closes the ingress, joins every worker, and reports. No Feed or
// Reconfigure may be in flight or issued afterwards.
func (e *Engine) Stop() (*Report, error) {
	if !e.stopped.CompareAndSwap(false, true) {
		return nil, errors.New("engine: Stop may be called at most once per Engine")
	}
	// Under feedMu whatever is pending: a Dispatch after this finds the
	// engine stopped, one before it has its packets in a burst pushed here.
	e.feedMu.Lock()
	e.flushBursts()
	e.feedMu.Unlock()
	for _, w := range e.workers {
		w.box.close()
	}
	e.wg.Wait()
	e.cancel()
	if err := e.err(); err != nil {
		return nil, err
	}
	return e.buildReport(time.Since(e.startT)), nil
}

// LiveReport settles every worker at a barrier and reports the traffic
// processed so far without stopping the engine: per-worker counters are
// copied inside each worker's goroutine, so the snapshot is race-free even
// while another goroutine keeps feeding. It reflects all packets dispatched
// before the call; packets fed concurrently, and settled by a concurrent
// Feed's barrier, may or may not be included.
func (e *Engine) LiveReport() (*Report, error) {
	if e.stopped.Load() {
		return nil, errors.New("engine: LiveReport after Stop")
	}
	e.flushPending()
	e.settle()
	if err := e.err(); err != nil {
		return nil, err
	}
	return e.buildReport(time.Since(e.startT)), nil
}

// Uptime reports wall-clock time since New.
func (e *Engine) Uptime() time.Duration { return time.Since(e.startT) }

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
