package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gallium/internal/flowstate"
	"gallium/internal/ir"
	"gallium/internal/packet"
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

// worker owns one shard of the middlebox server: a walker over its own
// serverrt state per pipeline stage (authoritative for the flows hashed to
// it) with one simulated core — worker == core. Everything here is
// goroutine-local except the shared switches (lock-free data plane, one
// control lane per worker). The worker is its walker's committer: a
// packet's write-back batch is staged on this worker's own switch lane and
// flipped before the packet is delivered (§4.3.3 output commit).
type worker struct {
	id  int
	eng *Engine
	box *mailbox
	// burst is the dispatcher's side of the hand-off: packets Feed has
	// hashed to this worker and not yet pushed (guarded by feedMu).
	burst []job

	// seen is the walker's Stats as of this worker's latest barrier — a
	// settle, or its exit — which reports and metrics read.
	seenMu sync.Mutex
	seen   Stats

	// expiries is sweep's reused batch of switch deletions, kept off the
	// per-packet block below: a sweep runs once per SweepEvery packets.
	expiries []switchsim.Update

	// The fields below are this worker's per-packet hot state, padded on
	// both sides so adjacent workers' blocks never share a cache line
	// (workers are separate allocations, but the allocator is free to
	// pack them; a shared line would turn every counter bump into
	// cross-core traffic).
	_ [64]byte

	walk walker

	// batch is reused across pulls so the steady state does not allocate;
	// next indexes the batch's first job not yet run.
	batch []job
	next  int

	// Flow-state lifecycle. life holds one tracker per stage (nil when
	// the stage has no dynamic maps or the lifecycle is disabled); the
	// element pointers are atomic so report building can snapshot
	// counters while the worker retunes mid-run. lifeOn, lastTNs and
	// sweepDue are touched only by this worker's goroutine (or by New,
	// before it starts). An armed stage's walker Touch callback reports
	// switch fast-path hits to this worker's own shard state (same
	// goroutine — flow affinity makes the switch hit's flow owned by this
	// worker).
	life     []atomic.Pointer[flowstate.Tracker]
	lifeOn   bool
	lastTNs  int64
	sweepDue int

	// pulls and pulled count this worker's mailbox pulls and the jobs they
	// took, exported race-free to reports as the mean batch size; borrowed
	// counts the packets Dispatch callers ran in its place (runBorrowed).
	pulls, pulled, borrowed atomic.Int64

	_ [64]byte
}

// setLifecycle arms (or retunes) this worker's flow-state trackers for
// the given ENGINE-WIDE config. It runs either inside New, before the
// workers start, or in this worker's own goroutine as a control job,
// preserving the engine's state confinement.
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
// since the last one. The worker checks it after each packet has been
// delivered, so the cadence does not depend on how much a pull took, the
// deletions are visible before the next packet runs, and none of them sits
// inside the latency of the packet whose insert filled the table.
func (w *worker) maybeSweep() {
	cfg := w.eng.flowCfg.Load()
	if cfg == nil {
		return
	}
	w.sweepDue++
	if w.sweepDue < cfg.SweepEvery {
		return
	}
	w.sweepDue = 0
	w.sweep(false)
}

// sweep expires (and, over capacity, evicts) this worker's tracked flow
// entries as of its latest packet time. Removals of switch-resident
// entries are applied like a write-back, as one batch of expiry-marked
// deletions through apply: the lane applies batches in order, so a later
// re-insert of the same key lands after the deletion, and an expiry can
// never resurrect a stale entry over a fresher one. The removal list is
// the tracker's, valid until its next Sweep, so it is consumed here.
func (w *worker) sweep(full bool) {
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
		w.expiries = w.expiries[:0]
		for _, r := range removals {
			if off[r.Table] {
				w.expiries = append(w.expiries, switchsim.Update{Table: r.Table, Key: r.Key, Delete: true, Expire: true})
			}
		}
		if _, _, err := w.apply(si, w.expiries, false); err != nil {
			w.eng.fail(err)
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

// loop consumes the worker's mailbox in batches, the way a DPDK
// run-to-completion core takes whatever burst is waiting: each blocking
// pull takes everything queued. Jobs run strictly in arrival order, and
// each packet's write-back is visible before the next job starts, so every
// packet sees a serial order whatever a pull took.
// After a cancellation or failure the mailbox is closed under it: the
// worker runs what was accepted — control jobs in full, so barriers and
// reconfigurations can't deadlock an abort; packets skipped — and leaves.
func (w *worker) loop() {
	for {
		clear(w.batch) // a finished batch must not pin its packets while the worker waits
		batch, ok := w.box.pull(w.batch[:0])
		if !ok {
			break
		}
		w.pulls.Add(1)
		w.pulled.Add(int64(len(batch)))
		w.batch, w.next = batch, 0
		for w.next < len(batch) {
			w.runBatch()
		}
		w.walk.Flush()
	}
	// Final full sweep before the engine joins.
	if w.lifeOn {
		w.sweep(true)
	}
	w.publish()
}

// publish copies the walker's Stats to seen; it runs on the worker's
// goroutine at a barrier.
func (w *worker) publish() {
	w.seenMu.Lock()
	w.seen = w.walk.Stats
	w.seenMu.Unlock()
}

// published returns the Stats of the worker's latest barrier; any
// goroutine may call it.
func (w *worker) published() Stats {
	w.seenMu.Lock()
	defer w.seenMu.Unlock()
	return w.seen
}

// runBatch runs the batch from w.next on. A panic in a job (a delivery
// callback, a plan op, a control-plane apply, a Mutate) is contained here:
// it fails the run, which closes the mailboxes so a dispatcher blocked on
// a full one returns the error, and loop calls again for the rest of the
// batch so no barrier behind the panic waits forever.
func (w *worker) runBatch() {
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
		more := w.next < len(w.batch) && w.batch[w.next].ctrl == nil
		if err := w.process(j, more); err != nil {
			w.eng.fail(err)
		}
		if w.lifeOn {
			w.maybeSweep()
		}
	}
}

// runBorrowed runs one packet on a Dispatch caller's goroutine while the
// mailbox lends it this worker (mailbox.borrow): the worker's walker,
// shard and counters, the same steps and the same panic containment as
// runBatch, then the flush the worker makes after a pull. Nothing follows
// the packet here, so its delivery's More is false. It gives the worker
// back on every exit, after the walker is flushed and any failure
// recorded.
func (w *worker) runBorrowed(j *job) {
	defer w.box.giveBack()
	defer w.walk.Flush()
	defer func() {
		if r := recover(); r != nil {
			w.eng.fail(fmt.Errorf("engine: worker %d panicked at seq %d: %v", w.id, j.seq, r))
		}
	}()
	if w.eng.aborted.Load() {
		return
	}
	w.borrowed.Add(1)
	if err := w.process(j, false); err != nil {
		w.eng.fail(err)
	}
	if w.lifeOn {
		w.maybeSweep()
	}
}

// apply is output commit with no propagation delay: it stages a batch on
// this worker's own lane of the stage's switch (stageBatch) and flips it
// visible before returning, so the worker releases the packet that
// recorded it, and runs its next job, with the switch already serving the
// batch. It runs on the worker's goroutine, except for Reconfigure's
// batch, applied while every worker is parked in the pause. On an error
// nothing flips.
func (w *worker) apply(stage int, updates []switchsim.Update, punt bool) (staged, syncs int, err error) {
	sw := w.eng.sws[stage]
	staged, syncs, err = stageBatch(sw, w.id, updates, punt, &w.walk.Stats)
	if err == nil {
		sw.FlipShard(w.id)
	}
	if staged > 0 {
		w.walk.Stats.CtlBatches++
	}
	return staged, syncs, err
}

// Due implements committer: every batch flipped when it was
// committed, so there is nothing to make visible by virtual time.
func (w *worker) Due(int64) {}

// ship implements committer: the batch is flipped on this worker's lane
// before ship returns, so the packet is delivered, and the worker takes
// its next job, only once the switch serves its write-back
// (§4.3.3 output commit). The walker accounts the stall in virtual time;
// §7 read-through fills ride the flip without holding the packet.
func (w *worker) ship(stage int, updates []switchsim.Update, punt bool, _ int64) (int, error) {
	staged, syncs, err := w.apply(stage, updates, punt)
	if err != nil || staged == 0 || syncs == 0 {
		return 0, err
	}
	return staged, nil
}

// process runs one packet to completion through the walker and reports
// its fate, with more as its delivery's More hint: the engine counterpart
// of Testbed.Inject, with this worker as the packet's (simulated) core.
func (w *worker) process(j *job, more bool) error {
	if w.lifeOn {
		w.setClock(j)
	}
	var d Delivery
	if err := w.walk.Walk(j.tNs, j.pkt, &d); err != nil {
		return err
	}
	if cb := w.eng.cfg.OnDelivery; cb != nil {
		d.Seq, d.TNs, d.Worker, d.Flow, d.Pkt, d.More = j.seq, j.tNs, w.id, j.flow, j.pkt, more
		cb(d)
	}
	return nil
}
