package engine

import (
	"context"
	"fmt"
	"sync/atomic"

	"gallium/internal/flowstate"
	"gallium/internal/ir"
	"gallium/internal/netsim"
	"gallium/internal/obs"
	"gallium/internal/packet"
	"gallium/internal/serverrt"
	"gallium/internal/switchsim"
)

// job is one dispatched packet, or (when ctrl is set) a control job the
// worker executes in its own goroutine between packets: reconfiguration
// mutations, settle barriers, stats snapshots. Control jobs keep the
// engine's goroutine confinement — shard state is only ever touched from
// its worker's goroutine — and are ordered with packets by mailbox FIFO.
type job struct {
	seq  int64
	tNs  int64
	flow packet.FiveTuple
	pkt  *packet.Packet
	ctrl func(w *worker)
}

// workerCounters are the per-worker observability handles (nil-safe).
type workerCounters struct {
	packets, delivered, fast, slow *obs.Counter
}

// worker owns one shard of the middlebox server: a walker over its own
// serverrt state per pipeline stage (authoritative for the flows hashed to
// it) with one simulated core — worker == core. Everything here is
// goroutine-local except the shared switches (lock-free data plane) and
// the control-plane channel. The worker is its walker's Committer: a
// packet's write-back batch goes to this shard's drainer and is recorded
// as pending for the packet's flow.
type worker struct {
	id  int
	eng *Engine
	box *mailbox
	// burst is the dispatcher's side of the hand-off: packets Feed has
	// hashed to this worker and not yet pushed (guarded by feedMu).
	burst []job

	// The fields below are this worker's per-packet hot state, padded on
	// both sides so adjacent workers' blocks never share a cache line
	// (workers are separate allocations, but the allocator is free to
	// pack them; a shared line would turn every counter bump into
	// cross-core traffic).
	_ [64]byte

	walk netsim.Walker
	// flow is the dispatch tuple of the packet in flight (Commit's key).
	flow packet.FiveTuple

	// batch and pending are reused across batches so the steady state
	// allocates neither; next indexes the batch's first job not yet run.
	batch   []job
	next    int
	pending []pendingApply

	hLat *obs.Histogram
	c    workerCounters

	// Flow-state lifecycle. life holds one tracker per stage (nil when
	// the stage has no dynamic maps or the lifecycle is disabled); the
	// element pointers are atomic so report building can snapshot
	// counters while the worker retunes mid-run. lifeOn, lastTNs and
	// sweepDue are touched only by this worker's goroutine (or before
	// Start). An armed stage's walker Touch callback reports switch
	// fast-path hits to this worker's own shard state (same goroutine —
	// flow affinity makes the switch hit's flow owned by this worker).
	life     []atomic.Pointer[flowstate.Tracker]
	lifeOn   bool
	lastTNs  int64
	sweepDue int

	// pulls and pulled count this worker's mailbox pulls and the jobs they
	// took, exported race-free to reports as the mean batch size.
	pulls, pulled atomic.Int64

	_ [64]byte
}

// setLifecycle arms (or retunes) this worker's flow-state trackers for
// the given ENGINE-WIDE config. It runs either before Start or inside
// this worker's own goroutine as a control job, preserving the engine's
// state confinement.
func (w *worker) setLifecycle(cfg flowstate.Config) {
	shard := cfg.Shard(len(w.eng.workers))
	for si := range w.eng.stages {
		dyn := w.eng.lifeDyn[si]
		if len(dyn) == 0 {
			continue
		}
		if tr := w.life[si].Load(); tr != nil {
			tr.SetConfig(shard)
			w.lifeOn = true
			continue
		}
		st := w.stageState(si)
		if st == nil {
			continue
		}
		w.life[si].Store(flowstate.NewTracker(shard, st, dyn))
		w.walk.Stages[si].Touch = st.Touch
		w.lifeOn = true
	}
}

// setClock sets the packet's virtual time and traffic class on every
// lifecycle-armed stage state before the packet executes, so map touches
// (server-side finds/inserts and switch fast-path hits) record liveness.
// The class is taken from the packet as it arrived, before any stage
// rewrites headers.
func (w *worker) setClock(j *job) {
	if j.tNs > w.lastTNs {
		w.lastTNs = j.tNs
	}
	class := uint8(flowstate.ClassOf(j.pkt))
	for si := range w.life {
		if w.life[si].Load() == nil {
			continue
		}
		st := w.stageState(si)
		st.NowNs = j.tNs
		st.Class = class
	}
}

// maybeSweep runs an incremental sweep once SweepEvery packets have passed
// since the last one. It runs at the batch boundary, BEFORE the batch's
// waitAll barrier, so the deletions it ships are applied and visible
// before any packet of the next batch runs — and not at the insert that
// fills the table, which would put a delete's control-plane round trip
// inside that packet's latency.
func (w *worker) maybeSweep(ctx context.Context, npkts int) {
	cfg := w.eng.flowCfg.Load()
	if cfg == nil {
		return
	}
	w.sweepDue += npkts
	if w.sweepDue < cfg.SweepEvery {
		return
	}
	w.sweepDue = 0
	w.sweep(ctx, false)
}

// sweep expires (and, over capacity, evicts) this worker's tracked flow
// entries as of its latest packet time. Removals of switch-resident
// entries ship through the ordinary control channel as expiry-marked
// deletions, so they ride the §4.3.3 stage/flip/merge discipline: a
// later re-insert of the same key is enqueued behind the deletion on the
// FIFO channel (or supersedes it within the same staged window, last
// writer wins), so an expiry can never resurrect a stale entry over a
// fresher one.
func (w *worker) sweep(ctx context.Context, full bool) {
	for si := range w.life {
		tr := w.life[si].Load()
		if tr == nil {
			continue
		}
		removals := tr.Sweep(w.lastTNs, full)
		if len(removals) == 0 || si >= len(w.eng.sws) {
			continue
		}
		off := w.eng.lifeOff[si]
		var ups []switchsim.Update
		for _, r := range removals {
			if !off[r.Table] {
				continue
			}
			ups = append(ups, switchsim.Update{Table: r.Table, Key: r.Key, Delete: true, Expire: true})
		}
		if len(ups) == 0 {
			continue
		}
		// The zero flow tuple never matches a real packet's, so only the
		// batch-boundary barrier (not per-flow waits) blocks on this.
		if err := w.sendCtlPending(ctx, packet.FiveTuple{}, ctlBatch{updates: ups, stage: si}); err != nil {
			return
		}
	}
}

// stageState returns this shard's authoritative state for one stage.
func (w *worker) stageState(stage int) *ir.State {
	if stage < 0 || stage >= len(w.walk.Stages) {
		return nil
	}
	return w.walk.Stages[stage].State()
}

// pendingApply is one in-flight write-back batch: the flow it belongs to
// and the drainer's apply signal.
type pendingApply struct {
	flow    packet.FiveTuple
	applied chan struct{}
}

// loop consumes the worker's mailbox in batches, the way a DPDK
// run-to-completion core takes whatever burst is waiting: each blocking
// pull takes everything queued, up to Config.Batch. Jobs still run
// strictly in arrival order — batching changes when the worker waits for
// control-plane applies (per flow inside the batch, everything at the
// batch boundary), not the processing order, so any batch size is legal.
// After a cancellation or failure the mailbox is closed under it: the
// worker runs what was accepted — control jobs in full, so barriers and
// reconfigurations can't deadlock an abort; packets skipped — and leaves.
func (w *worker) loop() {
	ctx := w.eng.runCtx
	for {
		clear(w.batch) // a finished batch must not pin its packets while the worker waits
		batch, ok := w.box.pull(w.batch[:0], w.eng.cfg.Batch)
		if !ok {
			break
		}
		w.pulls.Add(1)
		w.pulled.Add(int64(len(batch)))
		w.batch, w.next = batch, 0
		npkts := 0
		for w.next < len(batch) {
			npkts += w.runBatch()
		}
		w.walk.Flush()
		if w.lifeOn && npkts > 0 {
			w.maybeSweep(ctx, npkts)
		}
		w.waitAll(ctx)
	}
	// Final full sweep before the engine joins: the control channel is
	// still open (Stop closes it only after every worker exits).
	if w.lifeOn {
		w.sweep(ctx, true)
	}
	w.waitAll(ctx)
}

// runBatch runs the batch from w.next on and returns how many packets it
// processed. A panic in a job (a delivery callback, a plan op, a Mutate)
// is contained here: it fails the run, which closes the mailboxes so a
// dispatcher blocked on a full one returns the error, and loop calls again
// for the rest of the batch so no barrier behind the panic waits forever.
func (w *worker) runBatch() (npkts int) {
	defer func() {
		if r := recover(); r != nil {
			w.eng.fail(fmt.Errorf("engine: worker %d panicked at seq %d: %v", w.id, w.batch[w.next-1].seq, r))
		}
	}()
	for w.next < len(w.batch) {
		j := &w.batch[w.next]
		w.next++
		if j.ctrl != nil {
			// Control jobs synchronise with readers of the switch counters,
			// and a barrier releases Feed: drop the finished jobs' packets first.
			w.walk.Flush()
			clear(w.batch[:w.next-1])
			j.ctrl(w)
			continue
		}
		if w.eng.aborted.Load() {
			continue
		}
		npkts++
		// A packet must not overtake its own flow's pending write-back:
		// otherwise a burst's second packet could re-take the slow path
		// with stale lookups and re-execute a non-idempotent miss branch
		// (e.g. re-allocating a NAT port).
		if w.waitFlow(w.eng.runCtx, j.flow) != nil {
			continue
		}
		if err := w.process(j); err != nil {
			w.eng.fail(err)
		}
	}
	return npkts
}

// waitFlow blocks until every pending apply of the given flow has landed,
// and opportunistically retires any other applies that already completed.
func (w *worker) waitFlow(ctx context.Context, flow packet.FiveTuple) error {
	if len(w.pending) == 0 {
		return nil
	}
	var err error
	kept := w.pending[:0]
	for _, p := range w.pending {
		select {
		case <-p.applied:
			continue
		default:
		}
		if p.flow == flow && err == nil {
			select {
			case <-p.applied:
				continue
			case <-ctx.Done():
				err = ctx.Err()
			}
		}
		kept = append(kept, p)
	}
	w.pending = kept
	return err
}

// waitAll is the batch-boundary barrier: the worker does not pull the next
// batch until every in-flight write-back of this one has been applied.
func (w *worker) waitAll(ctx context.Context) {
	for _, p := range w.pending {
		select {
		case <-p.applied:
		case <-ctx.Done():
		}
	}
	w.pending = w.pending[:0]
}

// sendCtl hands a write-back batch to this shard's own control-plane
// drainer, blocking on the bounded lane (backpressure) unless the run is
// being canceled. Each worker sends only to its own lane, so another
// shard's slow-path burst can neither delay nor reorder this shard's
// commits.
func (w *worker) sendCtl(ctx context.Context, b ctlBatch) error {
	select {
	case w.eng.ctls[w.id].ch <- b:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// sendCtlPending hands a batch to the drainer and records it as pending
// for the packet's flow. This is §4.3.3 output commit narrowed to the
// flow: because a flow's packets all land on one worker, waitFlow before
// the flow's next packet (and waitAll at the batch boundary) guarantees a
// flow never observes the switch missing its own earlier write-back —
// while packets of OTHER flows keep flowing instead of stalling behind
// this commit.
func (w *worker) sendCtlPending(ctx context.Context, flow packet.FiveTuple, b ctlBatch) error {
	b.applied = make(chan struct{})
	if err := w.sendCtl(ctx, b); err != nil {
		return err
	}
	w.pending = append(w.pending, pendingApply{flow: flow, applied: b.applied})
	return nil
}

// Due implements netsim.Committer. The drainer applies batches as they
// arrive, so there is nothing to make visible by virtual time.
func (w *worker) Due(int64) {}

// Commit implements netsim.Committer: hand the batch to this shard's
// control-plane drainer and record it as pending, so this flow's next
// packet waits for the apply; the walker accounts the output-commit stall
// in virtual time. §7 batches are classified against the switch now for
// the stall estimate (only synchronous updates hold the packet) and again
// by the drainer at apply time; pure cache fills stay fire-and-forget (a
// stale fill just re-punts, which is benign).
func (w *worker) Commit(stage int, updates []switchsim.Update, punt bool, _ int64) (int, error) {
	ctx := w.eng.runCtx
	b := ctlBatch{updates: updates, stage: stage, punt: punt}
	n := len(updates)
	if punt {
		fills, syncs := serverrt.ClassifyUpdates(w.eng.sws[stage], updates)
		if len(syncs) == 0 {
			return 0, w.sendCtl(ctx, b)
		}
		n = len(fills) + len(syncs)
	}
	return n, w.sendCtlPending(ctx, w.flow, b)
}

// process runs one packet to completion through the walker and reports
// its fate: the engine counterpart of Testbed.Inject, with this worker as
// the packet's (simulated) core.
func (w *worker) process(j *job) error {
	w.c.packets.Inc()
	if w.lifeOn {
		w.setClock(j)
	}
	w.flow = j.flow
	slowBefore := w.walk.Stats.SlowPath
	d, err := w.walk.Walk(j.tNs, j.pkt, nil)
	if err != nil {
		return err
	}
	if w.walk.Stats.SlowPath != slowBefore {
		w.c.slow.Inc()
	}
	if d.FastPath {
		w.c.fast.Inc()
	}
	if d.Delivered {
		w.hLat.Observe(d.LatencyNs)
		w.c.delivered.Inc()
	}
	if cb := w.eng.cfg.OnDelivery; cb != nil {
		more := w.next < len(w.batch) && w.batch[w.next].ctrl == nil
		cb(Delivery{Seq: j.seq, TNs: j.tNs, Worker: w.id, Flow: j.flow, Pkt: j.pkt, More: more, Delivery: d})
	}
	return nil
}
