package main

import (
	"fmt"

	"gallium"
	"gallium/internal/flowstate"
	"gallium/internal/ir"
	"gallium/internal/packet"
	"gallium/internal/serverrt"
	"gallium/internal/switchsim"
)

// walkStage is one middlebox of the walker's pipeline: its own switch
// and server, seeded like the session's.
type walkStage struct {
	art *gallium.Artifacts
	sw  *switchsim.Switch
	srv *serverrt.Server
	// Flow-table lifecycle (churn): the tracker and which of the
	// stage's tables live on the switch.
	life      *flowstate.Tracker
	offloaded map[string]bool
}

// walker is the benchmark-side sequential counterpart of engine.worker:
// it makes the same public calls in the same order — switch pre-pass,
// and on a miss serialize/decode to the server, Server.Process,
// StageShard/FlipShard/CompactShard for the write-back, serialize/decode
// back, switch post-pass — and wraps each call in a span. What the
// engine adds on top (dispatch, queues, batching, virtual time, the
// drainer hand-off) is the residual between the walker's total and the
// engine's measured ns/packet.
type walker struct {
	stages []walkStage
	tr     *tracer

	sweepEvery, sinceSweep int
	now                    int64
	delivered, dropped     int64
}

func newWalker(arts []*gallium.Artifacts, boxes []string, flows []flowTmpl, ft *gallium.FlowTable, tr *tracer) (*walker, error) {
	w := &walker{tr: tr}
	for i, a := range arts {
		st := walkStage{art: a, sw: switchsim.New(a.Res), srv: serverrt.New(a.Res)}
		st.sw.ConfigureShards(1)
		seedState(boxes[i], flows, st.srv.State, 0, 1)
		if err := st.sw.SeedFrom(st.srv.State); err != nil {
			return nil, err
		}
		if ft != nil {
			cfg := ft.Shard(1)
			w.sweepEvery = cfg.SweepEvery
			st.life = flowstate.NewTracker(cfg, st.srv.State, flowstate.DynamicMaps(a.Prog))
			st.offloaded = map[string]bool{}
			for _, g := range a.Res.OffloadedGlobals {
				st.offloaded[g] = true
			}
		}
		w.stages = append(w.stages, st)
	}
	return w, nil
}

// walkFrame is walk for a wire frame: decode, walk, serialize.
func (w *walker) walkFrame(seq int64, frame []byte) ([]byte, error) {
	root := w.tr.begin(spanPacket, -1, seq)
	defer w.tr.end(root)
	s := w.tr.begin(spanDecode, root, seq)
	pkt, err := packet.DecodePacket(frame, nil)
	w.tr.end(s)
	if err != nil {
		return nil, err
	}
	sent, err := w.stagesOf(seq, root, pkt)
	if err != nil || !sent {
		return nil, err
	}
	s = w.tr.begin(spanSerialize, root, seq)
	out := pkt.Serialize()
	w.tr.end(s)
	return out, nil
}

// walk runs one packet through every stage, rewriting it in place, and
// reports whether it was delivered.
func (w *walker) walk(seq int64, pkt *packet.Packet) (bool, error) {
	root := w.tr.begin(spanPacket, -1, seq)
	defer w.tr.end(root)
	return w.stagesOf(seq, root, pkt)
}

func (w *walker) stagesOf(seq int64, root int32, pkt *packet.Packet) (bool, error) {
	w.now += vtStepNs
	for si := range w.stages {
		sent, err := w.stage(&w.stages[si], seq, root, pkt)
		if err != nil {
			return false, err
		}
		if !sent {
			w.dropped++
			return false, nil
		}
	}
	w.delivered++
	if w.sweepEvery > 0 {
		if w.sinceSweep++; w.sinceSweep >= w.sweepEvery {
			w.sinceSweep = 0
			if err := w.sweep(seq, root); err != nil {
				return false, err
			}
		}
	}
	return true, nil
}

func (w *walker) stage(st *walkStage, seq int64, root int32, pkt *packet.Packet) (bool, error) {
	tr := w.tr
	var onTouch func(string, ir.MapKey)
	if st.life != nil {
		st.srv.SetClock(w.now, uint8(flowstate.ClassOf(pkt)))
		onTouch = st.srv.State.Touch
	}
	s := tr.begin(spanPre, root, seq)
	pre, err := st.sw.ProcessPreShard(pkt, 0, onTouch)
	tr.end(s)
	if err != nil {
		return false, err
	}
	if pre.Punt {
		return false, fmt.Errorf("walker: %s punted; no benchmark pipeline runs in cache mode", st.art.Name)
	}
	switch pre.Action {
	case ir.ActionDropped:
		return false, nil
	case ir.ActionSent:
		return true, nil
	}

	// Slow path: over the switch-server link to this shard's server.
	rx, err := w.link(seq, root, pkt, st.art.Res.FormatA)
	if err != nil {
		return false, err
	}
	s = tr.begin(spanServer, root, seq)
	res, err := st.srv.Process(rx)
	tr.end(s)
	if err != nil {
		return false, err
	}
	if len(res.Updates) > 0 {
		if err := w.writeback(st, seq, root, res.Updates); err != nil {
			return false, err
		}
	}
	switch res.Action {
	case ir.ActionDropped:
		return false, nil
	case ir.ActionSent:
		*pkt = *rx
		return true, nil
	}
	back, err := w.link(seq, root, rx, st.art.Res.FormatB)
	if err != nil {
		return false, err
	}
	s = tr.begin(spanPost, root, seq)
	post, err := st.sw.ProcessPostShard(back, 0, onTouch)
	tr.end(s)
	if err != nil {
		return false, err
	}
	*pkt = *back
	return post.Action != ir.ActionDropped, nil
}

// link carries a packet across the switch-server link the way the engine
// does: serialize, then decode with the transfer header's format.
func (w *walker) link(seq int64, root int32, pkt *packet.Packet, f *packet.HeaderFormat) (*packet.Packet, error) {
	s := w.tr.begin(spanSerialize, root, seq)
	b := pkt.Serialize()
	w.tr.end(s)
	s = w.tr.begin(spanDecode, root, seq)
	out, err := packet.DecodePacket(b, f)
	w.tr.end(s)
	return out, err
}

// writeback applies one packet's replicated-state updates the way the
// engine's per-shard drainer does: stage each, one visibility flip, and
// the amortized fold.
func (w *walker) writeback(st *walkStage, seq int64, root int32, ups []switchsim.Update) error {
	s := w.tr.begin(spanWriteback, root, seq)
	lane, global := 0, 0
	for _, u := range ups {
		var err error
		if switchsim.LaneEligible(u) {
			err, lane = st.sw.StageShard(0, u), lane+1
		} else {
			err, global = st.sw.StageWriteback(u), global+1
		}
		if err != nil {
			w.tr.end(s)
			return err
		}
	}
	if global > 0 {
		st.sw.FlipVisibility()
	}
	if lane > 0 {
		st.sw.FlipShard(0)
	}
	w.tr.end(s)
	s = w.tr.begin(spanFold, root, seq)
	if global > 0 {
		st.sw.CompactWriteback()
	}
	if lane > 0 {
		st.sw.CompactShard(0)
	}
	w.tr.end(s)
	return nil
}

// sweep is the flow-table lifecycle's incremental sweep: expire and
// evict on the server shard, and ship deletions of switch-resident
// entries through the same write-back path.
func (w *walker) sweep(seq int64, root int32) error {
	for si := range w.stages {
		st := &w.stages[si]
		if st.life == nil {
			continue
		}
		s := w.tr.begin(spanSweep, root, seq)
		removals := st.life.Sweep(w.now, false)
		w.tr.end(s)
		var ups []switchsim.Update
		for _, r := range removals {
			if st.offloaded[r.Table] {
				ups = append(ups, switchsim.Update{Table: r.Table, Key: r.Key, Delete: true, Expire: true})
			}
		}
		if len(ups) > 0 {
			if err := w.writeback(st, seq, root, ups); err != nil {
				return err
			}
		}
	}
	return nil
}
