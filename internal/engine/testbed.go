package engine

import (
	"errors"
	"fmt"
	"math"

	"gallium/internal/ir"
	"gallium/internal/packet"
	"gallium/internal/serverrt"
	"gallium/internal/switchsim"
)

// Testbed is the engine's sequential driver: a time-ordered, single-pass
// model of the Figure 1 topology on the caller's goroutine. Packets must
// be injected in non-decreasing timestamp order. The testbed is its
// walker's committer: write-backs are staged at once and become visible
// at a scheduled virtual time, where an engine worker flips them before
// it delivers the packet.
type Testbed struct {
	deployment
	walk walker

	// flips are the scheduled visibility flips, in commit order.
	flips      []flip
	lastInject int64
	reconfigs  int
}

// flip is one write-back batch's scheduled visibility: the stage whose
// switch lane it flips, at virtual time atNs.
type flip struct {
	atNs  int64
	stage int
}

// NewTestbed builds a testbed from the engine's Config, through the same
// switch, stage and seeding code as New: one shard (each stage's Setup
// seeds shard 0), one switch lane, Workers simulated server cores, and
// walker jitter seed 0. A field only the concurrent engine honours —
// QueueDepth, OnDelivery, FlowTable — is an error.
func NewTestbed(cfg Config) (*Testbed, error) {
	switch {
	case cfg.QueueDepth != 0:
		return nil, errors.New("engine: the testbed has no mailbox for QueueDepth to bound")
	case cfg.OnDelivery != nil:
		return nil, errors.New("engine: the testbed takes no OnDelivery callback: Inject returns each packet's fate")
	case cfg.FlowTable != nil:
		return nil, errors.New("engine: the testbed keeps no flow-state lifecycle for a FlowTable to bound")
	}
	sws, shards, err := build(&cfg, 1)
	if err != nil {
		return nil, err
	}
	tb := &Testbed{}
	tb.walk = newWalker(cfg.Model, shards[0], cfg.Workers, 0, 0, tb)
	tb.deployment = deployment{stages: cfg.Stages, sws: sws, walks: []*walker{&tb.walk},
		stats: func(int) Stats { return tb.walk.Stats }}
	tb.instrument(cfg.Obs)
	return tb, nil
}

// stageBatch stages updates on shard's lane of the switch, invisible until
// the lane's next flip, and counts them in st: the staging half of both
// committers. punt marks a §7 cache-mode batch, classified first into
// read-through fills and synchronous updates; syncs counts the updates
// output commit must hold the packet for. A full table is a soft failure
// (CtlRejected): that entry never reaches the switch. Any other failure
// unstages the whole batch (switchsim.StageBatch), so no flip publishes
// part of it.
func stageBatch(sw *switchsim.Switch, shard int, updates []switchsim.Update, punt bool, st *Stats) (staged, syncs int, err error) {
	syncs = len(updates)
	if punt {
		fills, s := serverrt.ClassifyUpdates(sw, updates)
		updates, syncs = append(fills, s...), len(s)
	}
	staged, rejected, err := sw.StageBatch(shard, updates)
	st.CtlRejected += rejected
	if err != nil {
		return 0, 0, err
	}
	st.CtlOps += staged
	return staged, syncs, nil
}

// Reconfigure applies one compiled control-plane change between
// injections, as Engine.Reconfigure applies it to a paused engine: Mutate
// runs against the stage's only shard, then Updates plus Mutate's are
// staged as one §4.3.3 batch and flipped at once, together with any
// write-back still awaiting its scheduled flip (a sequential
// reconfiguration quiesces the deployment). A FlowTable retune has no
// lifecycle to reach. On an error nothing flips and nothing stays staged.
func (tb *Testbed) Reconfigure(r Reconfig) error {
	if err := r.check(len(tb.walk.Stages)); err != nil {
		return err
	}
	st := &tb.walk.Stages[r.Stage]
	updates := append([]switchsim.Update(nil), r.Updates...)
	if r.Mutate != nil {
		updates = append(updates, r.Mutate(0, st.State())...)
	}
	if st.Switch != nil {
		if _, err := tb.ship(r.Stage, updates, false, tb.lastInject); err != nil {
			return err
		}
		tb.Due(math.MaxInt64)
		st.Switch.MarkReconfig()
	}
	tb.reconfigs++
	return nil
}

// Due implements committer: every scheduled flip whose time has
// passed becomes visible to the data plane.
func (tb *Testbed) Due(nowNs int64) {
	if len(tb.flips) == 0 {
		return
	}
	kept := tb.flips[:0]
	for _, f := range tb.flips {
		if f.atNs <= nowNs {
			tb.walk.Stages[f.stage].Switch.FlipShard(0)
			tb.walk.Stats.CtlBatches++
		} else {
			kept = append(kept, f)
		}
	}
	tb.flips = kept
}

// ship implements committer: stage now (invisible), flip one
// control batch latency after the server finished. §7 cache fills ride the
// same flip but only synchronous updates hold the packet.
func (tb *Testbed) ship(stage int, updates []switchsim.Update, punt bool, doneNs int64) (int, error) {
	staged, syncs, err := stageBatch(tb.walk.Stages[stage].Switch, 0, updates, punt, &tb.walk.Stats)
	if err != nil || staged == 0 {
		return 0, err
	}
	tb.flips = append(tb.flips, flip{doneNs + int64(tb.walk.Model.CtlBatchNs(staged)), stage})
	if syncs == 0 {
		return 0, nil
	}
	return staged, nil
}

// Inject runs one packet through the testbed, starting from the source
// application at time tNs, and returns its fate: the Delivery's fate
// fields, with the engine's dispatch coordinates left zero. Packets must
// arrive in time order.
func (tb *Testbed) Inject(tNs int64, pkt *packet.Packet) (Delivery, error) {
	if tNs < tb.lastInject {
		return Delivery{}, fmt.Errorf("engine: out-of-order injection (%d < %d)", tNs, tb.lastInject)
	}
	tb.lastInject = tNs
	var d Delivery
	err := tb.walk.Walk(tNs, pkt, &d)
	tb.walk.Flush()
	return d, err
}

// Report reports the run so far through the engine's own aggregation over
// the testbed's one walker. It has no wall-clock figures: the testbed runs
// in virtual time only.
func (tb *Testbed) Report() *Report {
	r := tb.report()
	r.Reconfigs = tb.reconfigs
	return r
}

// ServerState exposes stage 0's authoritative middlebox state: the
// server's in offloaded mode, the software runner's otherwise. Callers
// must not mutate it while injections are in flight.
func (tb *Testbed) ServerState() *ir.State { return tb.walk.Stages[0].State() }

// Switch exposes stage 0's simulated switch (nil in software mode). A
// write-back the last packet made may still await its scheduled flip: Due
// applies it.
func (tb *Testbed) Switch() *switchsim.Switch { return tb.walk.Stages[0].Switch }
