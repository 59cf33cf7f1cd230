package difftest

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"gallium"
	"gallium/internal/flowstate"
	"gallium/internal/ir"
	"gallium/internal/netsim"
	"gallium/internal/packet"
	"gallium/internal/serverrt"
)

// Case is one differential test input: a generated program and a
// deterministic trace, both derived from Seed.
type Case struct {
	Seed  uint64
	Spec  *ProgramSpec
	Trace *Trace
}

// GenCase derives the canonical (program, trace) pair for a seed. When
// the program drew a scenario mode (IPv6, encapsulation, or one of the
// middlebox templates), the trace is rewritten to reach its paths.
func GenCase(seed uint64, traceLen int) *Case {
	spec := GenProgram(seed)
	tr := GenTrace(seed, traceLen)
	applyTraceScenario(spec, tr, seed)
	return &Case{Seed: seed, Spec: spec, Trace: tr}
}

// PacketOutcome is one packet's observable fate: sent (with canonical
// output bytes) or dropped by the middlebox.
type PacketOutcome struct {
	Sent  bool
	Bytes []byte
}

// Divergence describes a difference between a subject leg and the oracle
// (or a failure to execute at all). A nil *Divergence means the case
// passed every leg.
type Divergence struct {
	// Leg is where the difference surfaced: "compile", "oracle",
	// "affinity" (the static certificate contradicted the generator's
	// shard-safety declaration or a recorded verdict), "inject", "run1",
	// "run8", or "expiry".
	Leg    string
	Detail string
}

func (d *Divergence) String() string {
	if d == nil {
		return "ok"
	}
	return d.Leg + ": " + d.Detail
}

// fuzzModel is the cost model every leg runs under: default constants,
// but an effectively unbounded server ingress queue (a queue drop is a
// performance artifact, not middlebox semantics) and no endpoint jitter.
func fuzzModel() netsim.CostModel {
	m := netsim.DefaultModel()
	m.MaxQueueDelayNs = 1e15
	m.StackJitterFrac = 0
	return m
}

// outBytes canonicalizes a processed packet for comparison: the transfer
// (gallium) header, if any leg left one attached, is not part of the
// middlebox's observable output.
func outBytes(p *packet.Packet) []byte {
	q := p.Clone()
	q.StripGallium()
	return q.Serialize()
}

// Setup seeds the read-only and initial state for a generated program.
// The oracle and every subject shard run it identically.
func (p *ProgramSpec) Setup(st *ir.State) {
	for _, v := range p.Vecs {
		st.Vecs[v.Name] = append([]uint64(nil), v.Seed...)
	}
	for _, g := range p.Globals {
		st.Globals[g.Name] = g.Init
	}
	for _, l := range p.Lpms {
		st.AddRoute(l.Name, 0, 0, 7)
		st.AddRoute(l.Name, uint64(packet.MakeIPv4Addr(10, 0, 0, 0)), 8, 9)
		st.AddRoute(l.Name, uint64(packet.MakeIPv4Addr(10, 0, 1, 0)), 24, 11)
	}
}

// runOracle executes the unpartitioned IR sequentially through the
// reference interpreter — the definition of correct behavior.
func runOracle(prog *ir.Program, spec *ProgramSpec, tr *Trace) ([]PacketOutcome, *ir.State, error) {
	soft := serverrt.NewSoftware(prog)
	spec.Setup(soft.State)
	outs := make([]PacketOutcome, len(tr.Packets))
	for i := range tr.Packets {
		pkt := tr.Build(i)
		res, err := soft.Process(pkt)
		if err != nil {
			return nil, nil, fmt.Errorf("packet %d: %w", i, err)
		}
		if res.Action == ir.ActionSent {
			outs[i] = PacketOutcome{Sent: true, Bytes: outBytes(pkt)}
		}
	}
	return outs, soft.State, nil
}

// runInject executes the partitioned deployment packet-at-a-time through
// the testbed, with packets spaced so every control-plane flip lands
// before the next arrival.
func runInject(art *gallium.Artifacts, spec *ProgramSpec, tr *Trace) ([]PacketOutcome, *ir.State, error) {
	model := fuzzModel()
	tb, err := art.NewTestbed(gallium.TestbedConfig{Model: &model, Setup: spec.Setup})
	if err != nil {
		return nil, nil, err
	}
	outs := make([]PacketOutcome, len(tr.Packets))
	for i := range tr.Packets {
		pkt := tr.Build(i)
		d, err := tb.Inject(int64(i)*PacketSpacingNs, pkt)
		if err != nil {
			return nil, nil, fmt.Errorf("packet %d: %w", i, err)
		}
		switch {
		case d.QueueDropped:
			return nil, nil, fmt.Errorf("packet %d: unexpected queue drop", i)
		case d.Delivered:
			outs[i] = PacketOutcome{Sent: true, Bytes: outBytes(pkt)}
		}
	}
	return outs, tb.ServerState(), nil
}

// runEngine executes the same trace through the concurrent engine in its
// shipped configuration: each worker pulls everything queued and flips a
// packet's write-back before it starts the next job, which closes the
// §4.3.3 stale window within a shard. With one worker that makes the
// engine sequentially equivalent to the oracle; with eight, equivalence
// additionally needs the program to be shard-safe.
func runEngine(art *gallium.Artifacts, spec *ProgramSpec, tr *Trace, workers int, extra ...gallium.Option) ([]PacketOutcome, []*ir.State, *gallium.Report, error) {
	outs := make([]PacketOutcome, len(tr.Packets))
	seen := make([]bool, len(tr.Packets))
	var states []*ir.State
	var mu sync.Mutex
	var qdrop bool
	seeded := make(map[int]bool)
	opts := []gallium.Option{
		gallium.WithWorkers(workers),
		gallium.WithQueueDepth(len(tr.Packets) + 8),
		gallium.WithCostModel(fuzzModel()),
		// WithState visits each shard twice: before the engine starts
		// (seed it) and at settle (snapshot the final authoritative
		// state). Setup is not idempotent — AddRoute appends — so the
		// settle visit must clone instead of re-seeding.
		gallium.WithState(func(shard int, st *ir.State) {
			mu.Lock()
			defer mu.Unlock()
			if !seeded[shard] {
				seeded[shard] = true
				spec.Setup(st)
				return
			}
			states = append(states, st.Clone())
		}),
		gallium.WithDeliveries(func(d gallium.Delivery) {
			mu.Lock()
			defer mu.Unlock()
			if d.Seq < 0 || d.Seq >= int64(len(outs)) {
				return
			}
			seen[d.Seq] = true
			if d.QueueDropped {
				qdrop = true
			}
			if d.Delivered {
				outs[d.Seq] = PacketOutcome{Sent: true, Bytes: outBytes(d.Pkt)}
			}
		}),
	}
	opts = append(opts, extra...)
	rep, err := art.Run(context.Background(), tr, opts...)
	if err != nil {
		return nil, nil, nil, err
	}
	if qdrop {
		return nil, nil, nil, fmt.Errorf("unexpected queue drop")
	}
	for i, s := range seen {
		if !s {
			return nil, nil, nil, fmt.Errorf("packet %d: no delivery reported", i)
		}
	}
	return outs, states, rep, nil
}

// runExpiry is the flow-state lifecycle leg. With a flow table armed,
// the engine expires entries incrementally — swept every SweepEvery
// packets and propagated to switch partitions through the §4.3.3
// control-plane flip — while the oracle here is a sequential interpreter
// whose tracker is swept after every packet. SweepEvery=1 and one worker
// make the two sweep schedules identical: both observe packet i
// at virtual time i*PacketSpacingNs and expire and evict afterwards, so
// every find either hits in both legs or misses in both. That covers
// capacity eviction as well as timeouts: the victims depend only on each
// entry's (last touch, table, key), which the two legs agree on however
// differently they order one packet's touches.
func runExpiry(art *gallium.Artifacts, spec *ProgramSpec, tr *Trace) *Divergence {
	cfg := spec.Expiry.Normalized()
	cfg.SweepEvery = 1

	soft := serverrt.NewSoftware(art.Prog)
	spec.Setup(soft.State)
	trk := flowstate.NewTracker(cfg, soft.State, flowstate.DynamicMaps(art.Prog))
	oracle := make([]PacketOutcome, len(tr.Packets))
	for i := range tr.Packets {
		pkt := tr.Build(i)
		tNs := int64(i) * PacketSpacingNs
		soft.SetClock(tNs, uint8(flowstate.ClassOf(pkt)))
		res, err := soft.Process(pkt)
		if err != nil {
			return &Divergence{Leg: "expiry", Detail: fmt.Sprintf("oracle packet %d: %v", i, err)}
		}
		if res.Action == ir.ActionSent {
			oracle[i] = PacketOutcome{Sent: true, Bytes: outBytes(pkt)}
		}
		trk.Sweep(tNs, true)
	}

	outs, states, _, err := runEngine(art, spec, tr, 1, gallium.WithFlowTable(cfg))
	if err != nil {
		return &Divergence{Leg: "expiry", Detail: err.Error()}
	}
	if d := comparePackets("expiry", oracle, outs); d != nil {
		return d
	}
	if diff := stateDiff(soft.State, states[0]); diff != "" {
		return &Divergence{Leg: "expiry", Detail: "final state: " + diff}
	}
	return nil
}

// comparePackets reports the first per-packet difference from the oracle.
func comparePackets(leg string, oracle, got []PacketOutcome) *Divergence {
	for i := range oracle {
		o, g := oracle[i], got[i]
		if o.Sent != g.Sent {
			return &Divergence{Leg: leg, Detail: fmt.Sprintf(
				"packet %d: oracle %s, subject %s", i, fate(o.Sent), fate(g.Sent))}
		}
		if o.Sent && !bytes.Equal(o.Bytes, g.Bytes) {
			return &Divergence{Leg: leg, Detail: fmt.Sprintf(
				"packet %d: output bytes differ (%s)", i, firstByteDiff(o.Bytes, g.Bytes))}
		}
	}
	return nil
}

func fate(sent bool) string {
	if sent {
		return "sent"
	}
	return "dropped"
}

func firstByteDiff(a, b []byte) string {
	if len(a) != len(b) {
		return fmt.Sprintf("len %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("offset %d: %#02x vs %#02x", i, a[i], b[i])
		}
	}
	return "equal"
}

// stateDiff describes the first difference between two states, or "".
func stateDiff(want, got *ir.State) string {
	var names []string
	for n := range want.Maps {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		wm, gm := want.Maps[n], got.Maps[n]
		if len(wm) != len(gm) {
			return fmt.Sprintf("map %s: %d entries vs %d", n, len(wm), len(gm))
		}
		for k, wv := range wm {
			gv, ok := gm[k]
			if !ok {
				return fmt.Sprintf("map %s: key %v missing", n, k)
			}
			for i := range wv {
				if i >= len(gv) || wv[i] != gv[i] {
					return fmt.Sprintf("map %s: key %v: value %v vs %v", n, k, wv, gv)
				}
			}
		}
	}
	for n, wv := range want.Globals {
		if gv := got.Globals[n]; gv != wv {
			return fmt.Sprintf("global %s: %d vs %d", n, wv, gv)
		}
	}
	for n, wv := range want.Vecs {
		gv := got.Vecs[n]
		if len(wv) != len(gv) {
			return fmt.Sprintf("vec %s: len %d vs %d", n, len(wv), len(gv))
		}
		for i := range wv {
			if wv[i] != gv[i] {
				return fmt.Sprintf("vec %s[%d]: %d vs %d", n, i, wv[i], gv[i])
			}
		}
	}
	return ""
}

// CompileCase compiles the case's program through the full pipeline with
// verification on.
func CompileCase(c *Case) (*gallium.Artifacts, error) {
	return gallium.Compile(c.Spec.Render(), gallium.Options{Verify: true})
}

// RunCase compiles and differentially executes one case. A nil result
// means oracle, Inject, 1-worker Run, and 8-worker Run all agreed.
func RunCase(c *Case) *Divergence {
	art, err := CompileCase(c)
	if err != nil {
		return &Divergence{Leg: "compile", Detail: err.Error()}
	}
	return DiffArtifacts(art, c.Spec, c.Trace)
}

// DiffArtifacts differentially executes prebuilt artifacts against the
// oracle (which always runs the *unpartitioned* art.Prog). The mutation
// harness calls this with deliberately corrupted partition results.
func DiffArtifacts(art *gallium.Artifacts, spec *ProgramSpec, tr *Trace) *Divergence {
	// Leg 0: static certificate cross-check. The generator *constructs*
	// shard-safe programs (full-tuple keys, unwritten globals); the
	// dataflow analyzer must independently *prove* the same property. A
	// shard-safe program the analyzer cannot certify exact is a false
	// negative in the analysis — caught here without running a packet.
	cert := art.Affinity()
	certExact := cert != nil && cert.Exact()
	// The certificate's field universe is the v4 ingress tuple, so an
	// exact verdict promises disjoint shard states only for v4 traffic:
	// on a v6 packet the captured v4 fields read zero, letting distinct
	// v6 flows alias onto one key while dispatch (which folds the real
	// 128-bit addresses) separates them. The 8-worker exactness legs are
	// therefore gated on the trace being v4-only — except for stateless
	// programs, whose per-packet outcomes cannot interact at all.
	stateless := len(spec.Maps) == 0 && len(spec.Globals) == 0
	exactEight := (spec.ShardSafe || certExact) && (!tr.HasV6() || stateless)
	if spec.ShardSafe && !certExact {
		detail := "no certificate attached"
		if cert != nil {
			detail = cert.Summary()
		}
		return &Divergence{Leg: "affinity", Detail: "generator declares shard-safe but the analyzer could not certify exact flow affinity (" + detail + ")"}
	}

	oracle, ostate, err := runOracle(art.Prog, spec, tr)
	if err != nil {
		return &Divergence{Leg: "oracle", Detail: err.Error()}
	}

	// Leg 1: sequential testbed injection.
	outs, state, err := runInject(art, spec, tr)
	if err != nil {
		return &Divergence{Leg: "inject", Detail: err.Error()}
	}
	if d := comparePackets("inject", oracle, outs); d != nil {
		return d
	}
	if diff := stateDiff(ostate, state); diff != "" {
		return &Divergence{Leg: "inject", Detail: "final state: " + diff}
	}

	// Leg 2: concurrent engine, one worker (sequentially equivalent).
	outs, states, _, err := runEngine(art, spec, tr, 1)
	if err != nil {
		return &Divergence{Leg: "run1", Detail: err.Error()}
	}
	if d := comparePackets("run1", oracle, outs); d != nil {
		return d
	}
	if diff := stateDiff(ostate, states[0]); diff != "" {
		return &Divergence{Leg: "run1", Detail: "final state: " + diff}
	}

	// Leg 3: concurrent engine, eight workers, each pulling everything its
	// mailbox holds. Some worker must actually take more than one job per
	// pull, or the leg would not exercise batching.
	outs, states, rep, err := runEngine(art, spec, tr, 8)
	if err != nil {
		return &Divergence{Leg: "run8", Detail: err.Error()}
	}
	if slices.Max(rep.BatchSizes) <= 1 {
		return &Divergence{Leg: "run8", Detail: fmt.Sprintf("no worker pulled more than one job at a time: mean pulls %v", rep.BatchSizes)}
	}
	if exactEight {
		// The exact leg runs whenever the certificate proves flow
		// affinity, not only when the generator *declared* it: a
		// certified-exact program must match the oracle per packet under
		// 8 workers, with per-shard states disjoint-union merging to the
		// sequential final state. A false "exact" verdict surfaces here
		// as a runtime divergence — the certificate is an oracle
		// dimension, not trusted metadata.
		if d := comparePackets("run8", oracle, outs); d != nil {
			return d
		}
		merged, _, conflict := art.MergeShardStates(states)
		if conflict != "" {
			return &Divergence{Leg: "run8", Detail: conflict}
		}
		if diff := stateDiff(ostate, merged); diff != "" {
			return &Divergence{Leg: "run8", Detail: "merged final state: " + diff}
		}
	}
	// Remaining programs already got the relaxed checks inside runEngine:
	// no execution errors, no queue drops, and a reported fate for every
	// packet. Cross-flow state interleaving under 8 concurrent shards is
	// legitimately different from sequential execution, so per-packet and
	// state equality are not required.

	// Leg 4: flow-state lifecycle, when the case arms one. Expiry must
	// not be able to resurrect a stale window or diverge from the
	// sequential definition of "this entry is gone now".
	if spec.Expiry != nil {
		if d := runExpiry(art, spec, tr); d != nil {
			return d
		}
	}
	return nil
}
