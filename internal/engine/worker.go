package engine

import (
	"fmt"
	"sync/atomic"

	"gallium/internal/flowstate"
	"gallium/internal/ir"
	"gallium/internal/netsim"
	"gallium/internal/obs"
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

// workerCounters are the per-worker observability handles (nil-safe).
type workerCounters struct {
	packets, delivered, fast, slow *obs.Counter
}

// worker owns one shard of the middlebox server: a walker over its own
// serverrt state per pipeline stage (authoritative for the flows hashed to
// it) with one simulated core — worker == core. Everything here is
// goroutine-local except the shared switches (lock-free data plane, one
// control lane per worker). The worker is its walker's Committer: a
// packet's write-back batch is staged on this worker's own switch lane and
// flipped before the packet is delivered (§4.3.3 output commit).
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

	// batch is reused across pulls so the steady state does not allocate;
	// next indexes the batch's first job not yet run.
	batch []job
	next  int

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
// entries are applied like a write-back, as expiry-marked deletions on
// this worker's own lane: the lane applies batches in order, so a later
// re-insert of the same key lands after the deletion, and an expiry can
// never resurrect a stale entry over a fresher one.
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
		if _, _, err := w.apply(si, ups, false); err != nil {
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
		if err := w.process(j); err != nil {
			w.eng.fail(err)
		}
		if w.lifeOn {
			w.maybeSweep()
		}
	}
}

// apply stages a batch on this worker's own lane of the stage's switch and
// flips it visible before returning (netsim.ApplyBatch), accounting it in
// the walker's stats as the Testbed does. It runs on the worker's
// goroutine, except for Reconfigure's batch, applied while every worker is
// parked in the pause.
func (w *worker) apply(stage int, updates []switchsim.Update, punt bool) (staged, syncs int, err error) {
	staged, rejected, syncs, err := netsim.ApplyBatch(w.eng.sws[stage], w.id, updates, punt)
	s := &w.walk.Stats
	if staged > 0 {
		s.CtlBatches++
	}
	s.CtlOps += staged
	s.CtlRejected += rejected
	return staged, syncs, err
}

// Due implements netsim.Committer: every batch flipped when it was
// committed, so there is nothing to make visible by virtual time.
func (w *worker) Due(int64) {}

// Commit implements netsim.Committer the way the Deployment does: the
// batch is flipped on this worker's lane before Commit returns, so the
// packet is delivered, and the worker takes its next job, only once the
// switch serves its write-back (§4.3.3 output commit). The walker accounts
// the stall in virtual time; §7 read-through fills ride the flip without
// holding the packet.
func (w *worker) Commit(stage int, updates []switchsim.Update, punt bool, _ int64) (int, error) {
	staged, syncs, err := w.apply(stage, updates, punt)
	if err != nil || staged == 0 || syncs == 0 {
		return 0, err
	}
	return staged, nil
}

// process runs one packet to completion through the walker and reports
// its fate: the engine counterpart of Testbed.Inject, with this worker as
// the packet's (simulated) core.
func (w *worker) process(j *job) error {
	w.c.packets.Inc()
	if w.lifeOn {
		w.setClock(j)
	}
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
