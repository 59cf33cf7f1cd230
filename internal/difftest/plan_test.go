package difftest

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"gallium"
	"gallium/internal/ir"
	"gallium/internal/middleboxes"
	"gallium/internal/packet"
	"gallium/internal/partition"
)

// The runtimes (switchsim, serverrt.Server) execute ir.Plan; the oracle
// executes ir.ExecFunc. This file holds the two to each other: for every
// function of every program below, over a trace, on cloned state and
// packets, both executors must agree on the Action, the Steps, the packet,
// the transfer scratchpad, the state, and on whether — and with what text
// — execution failed.

// boundState is a test-only ir.PlanState over a plain *ir.State: the
// by-index calls resolve to the by-name accessors the interpreter uses.
// With readOnly set it refuses writes the way the switch does.
type boundState struct {
	prog     *ir.Program
	st       *ir.State
	readOnly bool
}

func (b *boundState) name(g int) string { return b.prog.Globals[g].Name }

func (b *boundState) MapFind(g int, k *ir.MapKey) ([]uint64, bool) {
	return b.st.MapFind(b.name(g), *k)
}
func (b *boundState) MapInsert(g int, k *ir.MapKey, vals []uint64) error {
	if b.readOnly {
		return fmt.Errorf("read-only table")
	}
	return b.st.MapInsert(b.name(g), *k, vals)
}
func (b *boundState) MapRemove(g int, k *ir.MapKey) error {
	if b.readOnly {
		return fmt.Errorf("read-only table")
	}
	return b.st.MapRemove(b.name(g), *k)
}
func (b *boundState) VecGet(g int, i uint64) (uint64, error) { return b.st.VecGet(b.name(g), i) }
func (b *boundState) VecLen(g int) uint64                    { return b.st.VecLen(b.name(g)) }
func (b *boundState) GlobalLoad(g int) uint64                { return b.st.GlobalLoad(b.name(g)) }
func (b *boundState) GlobalStore(g int, v uint64) error {
	if b.readOnly {
		return fmt.Errorf("read-only register")
	}
	return b.st.GlobalStore(b.name(g), v)
}
func (b *boundState) LpmFind(g int, k uint64) ([]uint64, bool) { return b.st.LpmFind(b.name(g), k) }

// side is one executor's copy of the world for one trace.
type side struct {
	st   *ir.State
	env  ir.Env
	xfer []uint64
}

func newSide(prog *ir.Program, setup func(*ir.State), slots int) *side {
	s := &side{st: ir.NewState(prog), xfer: make([]uint64, slots)}
	if setup != nil {
		setup(s.st)
	}
	s.env.State = s.st
	return s
}

// equivalence runs the program's functions over the trace through both
// executors and returns the first difference ("" when there is none).
// plans maps each function to the plan under test, normally its own
// lowering; the seeded-fault test passes a sabotaged one.
type equivalence struct {
	prog  *ir.Program
	res   *partition.Result
	setup func(*ir.State)
	plans map[*ir.Function]*ir.Plan
}

func newEquivalence(art *gallium.Artifacts, setup func(*ir.State)) *equivalence {
	e := &equivalence{prog: art.Prog, res: art.Res, setup: setup, plans: map[*ir.Function]*ir.Plan{}}
	for _, fn := range []*ir.Function{art.Prog.Fn, art.Res.PreFn, art.Res.SrvFn, art.Res.PostFn} {
		e.plans[fn] = ir.CompilePlan(art.Prog, fn)
	}
	return e
}

// stage runs fn on the interpreter side and its plan on the plan side and
// compares everything observable.
func (e *equivalence) stage(what string, fn *ir.Function, in, pl *side, pktI, pktP *packet.Packet) (ir.Result, error, string) {
	in.env.Pkt, in.env.Xfer = pktI, in.xfer
	pl.env.Pkt, pl.env.Xfer = pktP, pl.xfer
	ri, erri := ir.ExecFunc(e.prog, fn, &in.env)
	rp, errp := e.plans[fn].Exec(&boundState{prog: e.prog, st: pl.st}, &pl.env)
	switch {
	case (erri == nil) != (errp == nil) || (erri != nil && erri.Error() != errp.Error()):
		return ri, erri, fmt.Sprintf("%s: interpreter error %v, plan error %v", what, erri, errp)
	case ri != rp:
		return ri, erri, fmt.Sprintf("%s: interpreter %+v, plan %+v", what, ri, rp)
	case !reflect.DeepEqual(pktI, pktP):
		return ri, erri, fmt.Sprintf("%s: packets differ: %s", what, firstByteDiff(pktI.Serialize(), pktP.Serialize()))
	case !slices.Equal(in.xfer, pl.xfer):
		return ri, erri, fmt.Sprintf("%s: transfer scratchpad %v vs %v", what, in.xfer, pl.xfer)
	case !in.st.Equal(pl.st):
		return ri, erri, fmt.Sprintf("%s: state differs: %s", what, stateDiff(in.st, pl.st))
	}
	return ri, erri, ""
}

func (e *equivalence) run(n int, build func(i int) *packet.Packet) string {
	// The whole program, as serverrt.Server.ProcessFull runs it.
	in, pl := newSide(e.prog, e.setup, 0), newSide(e.prog, e.setup, 0)
	for i := 0; i < n; i++ {
		if _, _, diff := e.stage(fmt.Sprintf("packet %d whole", i), e.prog.Fn, in, pl, build(i), build(i)); diff != "" {
			return diff
		}
	}
	// The three partitions in pipeline order, sharing a scratchpad, as
	// partition.ExecPipeline runs them.
	in, pl = newSide(e.prog, e.setup, e.res.NumXferSlots), newSide(e.prog, e.setup, e.res.NumXferSlots)
	for i := 0; i < n; i++ {
		pktI, pktP := build(i), build(i)
		clear(in.xfer)
		clear(pl.xfer)
		for _, st := range []struct {
			name string
			fn   *ir.Function
		}{{"pre", e.res.PreFn}, {"srv", e.res.SrvFn}, {"post", e.res.PostFn}} {
			r, err, diff := e.stage(fmt.Sprintf("packet %d %s", i, st.name), st.fn, in, pl, pktI, pktP)
			if diff != "" {
				return diff
			}
			if err != nil || r.Action != ir.ActionNext {
				break
			}
		}
	}
	return ""
}

func compileSource(t *testing.T, src string) *gallium.Artifacts {
	t.Helper()
	art, err := gallium.Compile(src, gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// bundledSetup is ConfigureState plus rules admitting half the trace's
// flows, so the rule-driven middleboxes take both branches.
func bundledSetup(name string, tr *Trace) func(*ir.State) {
	return func(st *ir.State) {
		middleboxes.ConfigureState(name, st)
		for i, tup := range tr.Tuples() {
			if i%2 == 1 {
				continue
			}
			switch name {
			case "firewall":
				middleboxes.AllowFlow(st, tup)
			case "synproxy":
				middleboxes.ProveFlow(st, tup)
			case "proxy":
				middleboxes.RedirectPort(st, tup.DstPort)
			}
		}
		if name == "firewall6" {
			for i := range tr.Packets {
				if tp := &tr.Packets[i]; tp.V6 && i%2 == 0 {
					middleboxes.AllowFlow6(st, packet.SixTuple{SrcIP: tp.Src6, DstIP: tp.Dst6,
						SrcPort: tp.Sport, DstPort: tp.Dport, Proto: packet.IPProtocol(tp.Proto)})
				}
			}
		}
	}
}

// bundledTraces are the traffic shapes the bundled middleboxes' paths
// need: plain v4, a v6 mix with MSS options, and tunnelled packets.
func bundledTraces(seed uint64) []*Trace {
	plain := GenTrace(seed, 48)
	v6 := GenTrace(seed+1, 48)
	r := newRNG(seed)
	v6ify(v6, r, 60)
	addMSS(v6, r)
	enc := GenTrace(seed+2, 48)
	encapify(enc, r)
	return []*Trace{plain, v6, enc}
}

func TestPlanEquivalence(t *testing.T) {
	t.Run("generated", func(t *testing.T) {
		for seed := uint64(1); seed <= 220; seed++ {
			c := GenCase(seed, 24)
			art, err := gallium.Compile(c.Spec.Render(), gallium.Options{})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if diff := newEquivalence(art, c.Spec.Setup).run(len(c.Trace.Packets), c.Trace.Build); diff != "" {
				t.Errorf("seed %d: %s", seed, diff)
			}
		}
	})
	names := []string{"minilb", "ipgateway", "ddosdetector"}
	for _, s := range middleboxes.Extended() {
		names = append(names, s.Name)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			spec, err := middleboxes.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			art := compileSource(t, spec.Source)
			for _, tr := range bundledTraces(7) {
				if diff := newEquivalence(art, bundledSetup(name, tr)).run(len(tr.Packets), tr.Build); diff != "" {
					t.Error(diff)
				}
				// Unconfigured: every vector is empty and every LPM lookup misses.
				if diff := newEquivalence(art, nil).run(len(tr.Packets), tr.Build); diff != "" {
					t.Errorf("unconfigured: %s", diff)
				}
			}
		})
	}
	files, err := filepath.Glob("../../examples/mc/*.mc")
	if err != nil || len(files) == 0 {
		t.Fatalf("examples/mc: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			art := compileSource(t, string(src))
			for _, tr := range bundledTraces(11) {
				if diff := newEquivalence(art, nil).run(len(tr.Packets), tr.Build); diff != "" {
					t.Error(diff)
				}
			}
		})
	}
}

// TestPlanEquivalenceFaults drives both executors into each runtime
// failure and requires the same error from both, with the state the
// statements before the failure left behind.
func TestPlanEquivalenceFaults(t *testing.T) {
	pkt := func(seq uint32) func(int) *packet.Packet {
		return func(int) *packet.Packet {
			return packet.BuildTCP(packet.MakeIPv4Addr(10, 0, 0, 1), packet.MakeIPv4Addr(9, 9, 9, 9), 1000, 80, packet.TCPOptions{Seq: seq})
		}
	}
	type fault struct {
		name, src, wantErr string
		build              func(int) *packet.Packet
	}
	cases := []fault{
		{"division by zero", `middlebox m { proc process(pkt p) { p.tcp.ack = p.ip.saddr / p.tcp.seq; send(p); } }`,
			"division by zero", pkt(0)},
		{"modulo by zero", `middlebox m { proc process(pkt p) { p.tcp.ack = p.ip.saddr % p.tcp.seq; send(p); } }`,
			"modulo by zero", pkt(0)},
		{"vector out of range", `middlebox m { vec<u32> v(max = 4); proc process(pkt p) { p.tcp.ack = v[p.tcp.seq]; send(p); } }`,
			"out of range", pkt(3)},
	}
	// The loop body writes state, so the cut at the step limit must land
	// on the same statement for the states to agree; the padding shifts
	// where in the body the limit falls.
	for pad := 0; pad < 8; pad++ {
		cases = append(cases, fault{fmt.Sprintf("step limit, %d statements of padding", pad),
			`middlebox m { global u32 a; global u32 b; proc process(pkt p) { u32 i = 0; ` + strings.Repeat("p.ip.ttl = 1; ", pad) +
				`while (i < 1) { a = a + 1; b = b + 1; } send(p); } }`,
			"step limit", pkt(0)})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			art := compileSource(t, c.src)
			e := newEquivalence(art, nil)
			// pkt(2) takes the same statements without the fault.
			for _, build := range []func(int) *packet.Packet{c.build, pkt(2)} {
				if diff := e.run(1, build); diff != "" {
					t.Fatal(diff)
				}
			}
			in, pl := newSide(e.prog, nil, 0), newSide(e.prog, nil, 0)
			_, err, _ := e.stage("whole", e.prog.Fn, in, pl, c.build(0), c.build(0))
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error = %v, want %q", err, c.wantErr)
			}
		})
	}

	// The server partition of a middlebox that hands values across, run
	// with no scratchpad: both executors must refuse the transfer access.
	t.Run("missing transfer context", func(t *testing.T) {
		art := compileSource(t, middleboxes.MiniLBSource)
		e := newEquivalence(art, func(st *ir.State) { middleboxes.ConfigureState("minilb", st) })
		in, pl := newSide(e.prog, e.setup, 0), newSide(e.prog, e.setup, 0)
		_, err, diff := e.stage("srv", e.res.SrvFn, in, pl, pkt(1)(0), pkt(1)(0))
		if diff != "" {
			t.Fatal(diff)
		}
		if err == nil || !strings.Contains(err.Error(), "no transfer context") {
			t.Fatalf("error = %v, want a missing-transfer-context error", err)
		}
	})

	// A statement the lowering cannot bind — hand-built IR naming a header
	// field that does not exist — fails when executed, as it does in the
	// interpreter, and is harmless on the path that avoids it.
	t.Run("unbound statement", func(t *testing.T) {
		b := ir.NewBuilder("unbound")
		bad, good := b.NewBlock(), b.NewBlock()
		seq := b.LoadHeader("seq", "tcp.seq", ir.U32)
		b.Branch(b.BinOp("c", ir.Eq, seq, b.Const("z", ir.U32, 0)), bad, good)
		b.SetBlock(bad)
		b.StoreHeader("tcp.ack", b.LoadHeader("x", "no.such", ir.U32))
		b.Send()
		b.SetBlock(good)
		b.Send()
		b.Fn().Finalize()
		prog := &ir.Program{Name: "unbound", Fn: b.Fn()}
		e := &equivalence{prog: prog, plans: map[*ir.Function]*ir.Plan{prog.Fn: ir.CompilePlan(prog, prog.Fn)}}
		for seq, wantErr := range []bool{true, false} {
			in, pl := newSide(prog, nil, 0), newSide(prog, nil, 0)
			_, err, diff := e.stage("whole", prog.Fn, in, pl, pkt(uint32(seq))(0), pkt(uint32(seq))(0))
			if diff != "" || (err != nil) != wantErr {
				t.Errorf("seq %d: diff %q, error %v (want error: %v)", seq, diff, err, wantErr)
			}
		}
	})

	// The interpreter has no read-only mode (only the switch refuses
	// writes), so this half is the plan alone: a write against read-only
	// state is an error naming the statement, and changes nothing.
	t.Run("read-only table write", func(t *testing.T) {
		art := compileSource(t, middleboxes.MiniLBSource)
		s := newSide(art.Prog, func(st *ir.State) { middleboxes.ConfigureState("minilb", st) }, 0)
		before := s.st.Clone()
		s.env.Pkt = pkt(1)(0)
		_, err := ir.CompilePlan(art.Prog, art.Prog.Fn).Exec(&boundState{prog: art.Prog, st: s.st, readOnly: true}, &s.env)
		if err == nil || !strings.Contains(err.Error(), "ir: stmt ") || !strings.Contains(err.Error(), "read-only") {
			t.Fatalf("error = %v, want a read-only error naming its statement", err)
		}
		if !s.st.Equal(before) {
			t.Error("a refused write changed the state")
		}
	})
}

// TestPlanEquivalenceCatchesLoweringFault seeds the fault the check exists
// for: a plan lowered with the masks of its u8 registers dropped (the
// function's copy declares them u64) must be told apart from the
// interpreter running the function as written.
func TestPlanEquivalenceCatchesLoweringFault(t *testing.T) {
	art := compileSource(t, `
middlebox m {
    proc process(pkt p) {
        u8 x = p.ip.ttl + 250;
        if (x > 100) { drop(p); }
        send(p);
    }
}`)
	e := newEquivalence(art, nil)
	build := func(int) *packet.Packet { // ttl 64: x wraps to 58
		return packet.BuildTCP(1, 2, 3, 4, packet.TCPOptions{})
	}
	if diff := e.run(1, build); diff != "" {
		t.Fatalf("unsabotaged plan: %s", diff)
	}
	widened := *art.Prog.Fn
	widened.Regs = slices.Clone(widened.Regs)
	dropped := 0
	for i := range widened.Regs {
		if widened.Regs[i].Type == ir.U8 {
			widened.Regs[i].Type = ir.U64
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("no u8 register to sabotage")
	}
	e.plans[art.Prog.Fn] = ir.CompilePlan(art.Prog, &widened)
	if diff := e.run(1, build); diff == "" {
		t.Fatal("a plan lowered without its u8 masks passed the equivalence check")
	} else {
		t.Logf("caught: %s", diff)
	}
}
