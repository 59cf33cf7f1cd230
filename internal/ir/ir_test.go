package ir

import (
	"strings"
	"testing"
	"testing/quick"

	"gallium/internal/packet"
)

// buildMiniLB constructs the paper's running example (§4) directly with
// the IR builder: consistent-hash load balancing with a connection map.
func buildMiniLB(t *testing.T) *Program {
	t.Helper()
	connMap := &Global{Name: "map", Kind: KindMap, KeyTypes: []Type{U16}, ValTypes: []Type{U32}, MaxEntries: 65536}
	backends := &Global{Name: "backends", Kind: KindVec, ValTypes: []Type{U32}, MaxEntries: 16}

	b := NewBuilder("process")
	saddr := b.LoadHeader("saddr", "ip.saddr", U32)
	daddr := b.LoadHeader("daddr", "ip.daddr", U32)
	hash32 := b.BinOp("hash32", Xor, saddr, daddr)
	maskC := b.Const("mask", U32, 0xFFFF)
	masked := b.BinOp("masked", And, hash32, maskC)
	key := b.Convert("key", U16, masked)
	found, vals := b.MapFind("bk", connMap, key)

	hit := b.NewBlock()
	miss := b.NewBlock()
	b.Branch(found, hit, miss)

	b.SetBlock(hit)
	b.StoreHeader("ip.daddr", vals[0])
	b.Send()

	b.SetBlock(miss)
	size := b.VecLen("size", backends)
	idx := b.BinOp("idx", Mod, hash32, size)
	addr := b.VecGet("addr", backends, idx)
	b.StoreHeader("ip.daddr", addr)
	b.MapInsert(connMap, []Reg{key}, []Reg{addr})
	b.Send()

	fn := b.Fn()
	fn.Finalize()
	p := &Program{Name: "minilb", Globals: []*Global{connMap, backends}, Fn: fn}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return p
}

func TestTypeBitsAndMask(t *testing.T) {
	cases := []struct {
		t    Type
		bits int
	}{{Bool, 1}, {U8, 8}, {U16, 16}, {U32, 32}, {U64, 64}}
	for _, c := range cases {
		if c.t.Bits() != c.bits {
			t.Errorf("%s.Bits() = %d, want %d", c.t, c.t.Bits(), c.bits)
		}
	}
	if U16.Mask() != 0xFFFF {
		t.Errorf("U16 mask = %#x", U16.Mask())
	}
	if U64.Mask() != ^uint64(0) {
		t.Errorf("U64 mask = %#x", U64.Mask())
	}
}

func TestOpP4Support(t *testing.T) {
	for _, op := range []Op{Add, Sub, And, Or, Xor, Shl, Shr, Eq, Ne, Lt, Le, Gt, Ge} {
		if !op.P4Supported() {
			t.Errorf("%s should be P4-supported", op)
		}
	}
	for _, op := range []Op{Mul, Div, Mod} {
		if op.P4Supported() {
			t.Errorf("%s should not be P4-supported", op)
		}
	}
}

func TestFinalizeAssignsSequentialIDs(t *testing.T) {
	p := buildMiniLB(t)
	stmts := p.Fn.Stmts()
	if len(stmts) != p.Fn.NumStmts {
		t.Fatalf("Stmts len %d != NumStmts %d", len(stmts), p.Fn.NumStmts)
	}
	for i, s := range stmts {
		if s.ID != i {
			t.Errorf("stmt %d has ID %d", i, s.ID)
		}
		if got := p.Fn.Stmt(i); got != s {
			t.Errorf("Stmt(%d) returned wrong statement", i)
		}
	}
	blk, idx := p.Fn.StmtBlock(stmts[len(stmts)-1].ID)
	if blk == nil || idx != len(blk.Instrs) {
		t.Errorf("last stmt should be a terminator: blk=%v idx=%d", blk, idx)
	}
}

func TestMiniLBExecNewAndExistingConnection(t *testing.T) {
	p := buildMiniLB(t)
	st := NewState(p)
	st.Vecs["backends"] = []uint64{uint64(packet.MakeIPv4Addr(10, 0, 1, 1)), uint64(packet.MakeIPv4Addr(10, 0, 1, 2))}

	pkt := packet.BuildTCP(packet.MakeIPv4Addr(1, 2, 3, 4), packet.MakeIPv4Addr(9, 9, 9, 9), 1000, 80, packet.TCPOptions{})
	res, err := p.Exec(&Env{State: st, Pkt: pkt})
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != ActionSent {
		t.Fatalf("action = %v", res.Action)
	}
	first := pkt.IP.DstIP
	if first != packet.MakeIPv4Addr(10, 0, 1, 1) && first != packet.MakeIPv4Addr(10, 0, 1, 2) {
		t.Fatalf("daddr = %v, not a backend", first)
	}
	if st.Table("map").Len() != 1 {
		t.Fatalf("map entries = %d, want 1", st.Table("map").Len())
	}

	// Same connection again: must hit the map and go to the same backend.
	pkt2 := packet.BuildTCP(packet.MakeIPv4Addr(1, 2, 3, 4), packet.MakeIPv4Addr(9, 9, 9, 9), 1000, 80, packet.TCPOptions{})
	res2, err := p.Exec(&Env{State: st, Pkt: pkt2})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Action != ActionSent || pkt2.IP.DstIP != first {
		t.Errorf("second packet: action=%v daddr=%v want %v", res2.Action, pkt2.IP.DstIP, first)
	}
	if res2.Steps >= res.Steps {
		t.Errorf("hit path (%d steps) should be shorter than miss path (%d)", res2.Steps, res.Steps)
	}
	if st.Table("map").Len() != 1 {
		t.Errorf("map entries = %d after second packet", st.Table("map").Len())
	}
}

func TestExecVectorOutOfRange(t *testing.T) {
	p := buildMiniLB(t)
	st := NewState(p) // backends left empty -> Mod by zero
	pkt := packet.BuildTCP(1, 2, 3, 4, packet.TCPOptions{})
	if _, err := p.Exec(&Env{State: st, Pkt: pkt}); err == nil {
		t.Fatal("want error for empty backends (mod by zero)")
	}
}

func TestExecLoopTerminatesViaStepLimit(t *testing.T) {
	b := NewBuilder("loop")
	c := b.Const("t", Bool, 1)
	body := b.NewBlock()
	b.Jump(body)
	b.SetBlock(body)
	b.Branch(c, body, body)
	fn := b.Fn()
	fn.Finalize()
	p := &Program{Name: "loop", Fn: fn}
	pkt := packet.BuildTCP(1, 2, 3, 4, packet.TCPOptions{})
	if _, err := p.Exec(&Env{State: NewState(p), Pkt: pkt}); err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("err = %v, want step limit", err)
	}
}

func TestStateCloneAndEqual(t *testing.T) {
	p := buildMiniLB(t)
	st := NewState(p)
	st.Vecs["backends"] = []uint64{1, 2, 3}
	st.MapInsert("map", MakeMapKey(7), []uint64{42})
	st.Globals["x"] = 5

	c := st.Clone()
	if !st.Equal(c) || !c.Equal(st) {
		t.Fatal("clone not equal")
	}
	if v, _ := c.MapFind("map", MakeMapKey(7)); true {
		v[0] = 43
	}
	if st.Equal(c) {
		t.Fatal("mutating clone affected equality check (shallow copy?)")
	}
	if v, _ := st.MapFind("map", MakeMapKey(7)); v[0] != 42 {
		t.Fatal("clone shares map storage")
	}
	c2 := st.Clone()
	c2.Vecs["backends"][0] = 9
	if st.Vecs["backends"][0] != 1 {
		t.Fatal("clone shares vector storage")
	}
	c3 := st.Clone()
	c3.MapRemove("map", MakeMapKey(7))
	if st.Equal(c3) {
		t.Fatal("missing key not detected")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	// Branch condition must be bool.
	b := NewBuilder("bad")
	x := b.Const("x", U32, 1)
	blk := b.NewBlock()
	b.Branch(x, blk, blk)
	b.SetBlock(blk)
	b.Drop()
	fn := b.Fn()
	fn.Finalize()
	p := &Program{Name: "bad", Fn: fn}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "want bool") {
		t.Errorf("err = %v, want bool-condition error", err)
	}

	// Unknown global.
	b2 := NewBuilder("bad2")
	g := &Global{Name: "m", Kind: KindMap, KeyTypes: []Type{U32}, ValTypes: []Type{U32}}
	k := b2.Const("k", U32, 0)
	b2.MapFind("r", g, k)
	b2.Drop()
	fn2 := b2.Fn()
	fn2.Finalize()
	p2 := &Program{Name: "bad2", Fn: fn2} // g not registered
	if err := p2.Validate(); err == nil || !strings.Contains(err.Error(), "unknown global") {
		t.Errorf("err = %v, want unknown-global error", err)
	}

	// Duplicate globals.
	p3 := &Program{Name: "bad3", Globals: []*Global{
		{Name: "g", Kind: KindScalar, ValTypes: []Type{U32}},
		{Name: "g", Kind: KindScalar, ValTypes: []Type{U32}},
	}, Fn: fn}
	if err := p3.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate global") {
		t.Errorf("err = %v, want duplicate-global error", err)
	}
}

func TestEvalBinOpSemantics(t *testing.T) {
	cases := []struct {
		op      Op
		a, b, v uint64
	}{
		{Add, 3, 4, 7},
		{Sub, 3, 4, ^uint64(0)}, // wraps
		{And, 0xF0, 0x3C, 0x30},
		{Or, 0xF0, 0x0C, 0xFC},
		{Xor, 0xFF, 0x0F, 0xF0},
		{Shl, 1, 4, 16},
		{Shr, 16, 4, 1},
		{Shl, 1, 64, 0},
		{Shr, 1, 200, 0},
		{Mul, 6, 7, 42},
		{Div, 42, 6, 7},
		{Mod, 43, 6, 1},
		{Eq, 5, 5, 1},
		{Ne, 5, 5, 0},
		{Lt, 4, 5, 1},
		{Le, 5, 5, 1},
		{Gt, 5, 4, 1},
		{Ge, 3, 4, 0},
	}
	for _, c := range cases {
		got, err := evalBinOp(c.op, c.a, c.b)
		if err != nil {
			t.Errorf("%s(%d,%d): %v", c.op, c.a, c.b, err)
			continue
		}
		if got != c.v {
			t.Errorf("%s(%d,%d) = %d, want %d", c.op, c.a, c.b, got, c.v)
		}
	}
	if _, err := evalBinOp(Div, 1, 0); err == nil {
		t.Error("div by zero must error")
	}
	if _, err := evalBinOp(Mod, 1, 0); err == nil {
		t.Error("mod by zero must error")
	}
}

func TestConvertTruncates(t *testing.T) {
	b := NewBuilder("conv")
	x := b.Const("x", U32, 0x12345678)
	y := b.Convert("y", U16, x)
	eq := b.BinOp("eq", Eq, y, b.Const("want", U16, 0x5678))
	out := b.NewBlock()
	drop := b.NewBlock()
	b.Branch(eq, out, drop)
	b.SetBlock(out)
	b.Send()
	b.SetBlock(drop)
	b.Drop()
	fn := b.Fn()
	fn.Finalize()
	p := &Program{Name: "conv", Fn: fn}
	pkt := packet.BuildTCP(1, 2, 3, 4, packet.TCPOptions{})
	res, err := p.Exec(&Env{State: NewState(p), Pkt: pkt})
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != ActionSent {
		t.Error("conversion did not truncate to 0x5678")
	}
}

func TestPayloadMatchAndHash(t *testing.T) {
	b := NewBuilder("pm")
	m := b.PayloadMatch("m", "SSH-")
	h := b.Hash("h", b.Const("c", U32, 5))
	zero := b.Const("z", U32, 0)
	hnz := b.BinOp("hnz", Ne, h, zero)
	both := b.BinOp("both", And, m, hnz)
	s := b.NewBlock()
	d := b.NewBlock()
	b.Branch(both, s, d)
	b.SetBlock(s)
	b.Send()
	b.SetBlock(d)
	b.Drop()
	fn := b.Fn()
	fn.Finalize()
	p := &Program{Name: "pm", Fn: fn}

	pkt := packet.BuildTCP(1, 2, 3, 22, packet.TCPOptions{Payload: []byte("SSH-2.0-OpenSSH")})
	res, err := p.Exec(&Env{State: NewState(p), Pkt: pkt})
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != ActionSent {
		t.Error("payload match failed")
	}
	pkt2 := packet.BuildTCP(1, 2, 3, 22, packet.TCPOptions{Payload: []byte("HTTP/1.1")})
	res2, err := p.Exec(&Env{State: NewState(p), Pkt: pkt2})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Action != ActionDropped {
		t.Error("payload match false positive")
	}
}

func TestMapMultiValueAndRemove(t *testing.T) {
	g := &Global{Name: "nat", Kind: KindMap, KeyTypes: []Type{U32, U16}, ValTypes: []Type{U32, U16}, MaxEntries: 1024}
	b := NewBuilder("natty")
	k1 := b.LoadHeader("sip", "ip.saddr", U32)
	k2 := b.LoadHeader("sport", "tcp.sport", U16)
	found, vals := b.MapFind("e", g, k1, k2)
	hit := b.NewBlock()
	miss := b.NewBlock()
	b.Branch(found, hit, miss)
	b.SetBlock(hit)
	b.StoreHeader("ip.daddr", vals[0])
	b.StoreHeader("tcp.dport", vals[1])
	b.MapRemove(g, []Reg{k1, k2})
	b.Send()
	b.SetBlock(miss)
	b.MapInsert(g, []Reg{k1, k2}, []Reg{k1, k2})
	b.Drop()
	fn := b.Fn()
	fn.Finalize()
	p := &Program{Name: "natty", Globals: []*Global{g}, Fn: fn}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	st := NewState(p)
	pkt := packet.BuildTCP(packet.MakeIPv4Addr(10, 0, 0, 7), 2, 333, 4, packet.TCPOptions{})
	res, _ := p.Exec(&Env{State: st, Pkt: pkt})
	if res.Action != ActionDropped || st.Table("nat").Len() != 1 {
		t.Fatalf("first packet: action=%v entries=%d", res.Action, st.Table("nat").Len())
	}
	pkt2 := packet.BuildTCP(packet.MakeIPv4Addr(10, 0, 0, 7), 2, 333, 4, packet.TCPOptions{})
	res2, _ := p.Exec(&Env{State: st, Pkt: pkt2})
	if res2.Action != ActionSent {
		t.Fatalf("second packet: action=%v", res2.Action)
	}
	if pkt2.IP.DstIP != packet.MakeIPv4Addr(10, 0, 0, 7) || pkt2.TCP.DstPort != 333 {
		t.Errorf("rewrite wrong: %v:%d", pkt2.IP.DstIP, pkt2.TCP.DstPort)
	}
	if st.Table("nat").Len() != 0 {
		t.Errorf("remove did not delete entry")
	}
}

func TestGlobalScalarCounter(t *testing.T) {
	g := &Global{Name: "ctr", Kind: KindScalar, ValTypes: []Type{U16}}
	b := NewBuilder("count")
	v := b.GlobalLoad("v", g)
	one := b.Const("one", U16, 1)
	nv := b.BinOp("nv", Add, v, one)
	b.GlobalStore(g, nv)
	b.Send()
	fn := b.Fn()
	fn.Finalize()
	p := &Program{Name: "count", Globals: []*Global{g}, Fn: fn}
	st := NewState(p)
	pkt := packet.BuildTCP(1, 2, 3, 4, packet.TCPOptions{})
	for i := 0; i < 70000; i++ {
		if _, err := p.Exec(&Env{State: st, Pkt: pkt}); err != nil {
			t.Fatal(err)
		}
	}
	// u16 counter wraps at 65536.
	if st.Globals["ctr"] != 70000%65536 {
		t.Errorf("ctr = %d, want %d", st.Globals["ctr"], 70000%65536)
	}
}

func TestXferLoadStoreRequireContext(t *testing.T) {
	b := NewBuilder("x")
	v := b.XferLoad("v", "hash32", U32)
	b.XferStore("out", v)
	b.Send()
	fn := b.Fn()
	fn.Finalize()
	p := &Program{Name: "x", Fn: fn}
	pkt := packet.BuildTCP(1, 2, 3, 4, packet.TCPOptions{})
	if _, err := p.Exec(&Env{State: NewState(p), Pkt: pkt}); err == nil {
		t.Fatal("want error without Xfer context")
	}
	// The builder assigned "hash32" slot 1 and "out" slot 2.
	xfer := make([]uint64, b.NumXferSlots())
	xfer[0] = 123
	if _, err := p.Exec(&Env{State: NewState(p), Pkt: pkt, Xfer: xfer}); err != nil {
		t.Fatal(err)
	}
	if xfer[1] != 123 {
		t.Errorf("xfer out slot = %d, want 123", xfer[1])
	}
}

func TestProgramStringContainsStatements(t *testing.T) {
	p := buildMiniLB(t)
	s := p.String()
	for _, want := range []string{"program minilb", "map map<u16 -> u32> max=65536",
		"vec backends<u32> max=16", "loadhdr ip.saddr", "map.find", "branch", "send"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q\n%s", want, s)
		}
	}
}

func TestMakeMapKeyProperty(t *testing.T) {
	prop := func(a, b uint64) bool {
		// Distinct component order => distinct keys; same values => equal.
		k1 := MakeMapKey(a, b)
		k2 := MakeMapKey(a, b)
		k3 := MakeMapKey(b, a)
		if k1 != k2 {
			return false
		}
		if a != b && k1 == k3 {
			return false
		}
		// Arity participates in identity.
		return MakeMapKey(a) != MakeMapKey(a, 0) || false
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestGlobalSizeBytes(t *testing.T) {
	m := &Global{Name: "m", Kind: KindMap, KeyTypes: []Type{U16}, ValTypes: []Type{U32}, MaxEntries: 65536}
	if got := m.SizeBytes(); got != 65536*48/8 {
		t.Errorf("map size = %d, want %d", got, 65536*48/8)
	}
	s := &Global{Name: "s", Kind: KindScalar, ValTypes: []Type{U16}}
	if got := s.SizeBytes(); got != 2 {
		t.Errorf("scalar size = %d", got)
	}
}

func TestPrintAllKinds(t *testing.T) {
	// Build a function touching every printable instruction kind and check
	// each one renders into the textual IR.
	m := &Global{Name: "m", Kind: KindMap, KeyTypes: []Type{U32}, ValTypes: []Type{U32}, MaxEntries: 8}
	v := &Global{Name: "v", Kind: KindVec, ValTypes: []Type{U32}, MaxEntries: 8}
	g := &Global{Name: "g", Kind: KindScalar, ValTypes: []Type{U32}}
	l := &Global{Name: "l", Kind: KindLPM, ValTypes: []Type{U32}, MaxEntries: 8}

	b := NewBuilder("all")
	c := b.Const("c", U32, 7)
	x := b.BinOp("x", Add, c, c)
	nb := b.BinOp("cb", Eq, x, c)
	nn := b.Not("nn", nb)
	cv := b.Convert("cv", U16, x)
	h := b.LoadHeader("h", "ip.saddr", U32)
	b.StoreHeader("ip.daddr", h)
	pm := b.PayloadMatch("pm", "SIG")
	hs := b.Hash("hs", x, cv)
	f, vals := b.MapFind("f", m, c)
	b.MapInsert(m, []Reg{c}, []Reg{x})
	b.MapRemove(m, []Reg{c})
	ve := b.VecGet("ve", v, c)
	vl := b.VecLen("vl", v)
	gl := b.GlobalLoad("gl", g)
	b.GlobalStore(g, gl)
	lf, lvals := b.LpmFind("lf", l, c)
	xl := b.XferLoad("xl", "tvar", U32)
	b.XferStore("tvar2", xl)
	_ = []Reg{nn, pm, hs, f, vals[0], ve, vl, lf, lvals[0]}

	t1 := b.NewBlock()
	t2 := b.NewBlock()
	t3 := b.NewBlock()
	b.Branch(nb, t1, t2)
	b.SetBlock(t1)
	b.Jump(t3)
	b.SetBlock(t2)
	b.ToNext()
	b.SetBlock(t3)
	b.Send()
	fn := b.Fn()
	fn.Finalize()
	p := &Program{Name: "all", Globals: []*Global{m, v, g, l}, Fn: fn}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	out := p.String()
	for _, want := range []string{
		"const 7", "add", "eq", "not", "convert", "loadhdr ip.saddr",
		"storehdr ip.daddr", `paymatch "SIG"`, "hash(", "m.find(", "m.insert(",
		"m.remove(", "v[", "v.size()", "gload g", "gstore g", "l.lookup(",
		"xferload tvar", "xferstore tvar2", "branch", "jump", "tonext", "send",
		"lpm l<u32 -> u32> max=8",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("printed IR missing %q\n%s", want, out)
		}
	}
	// Executing it also exercises the interpreter paths.
	st := NewState(p)
	st.Vecs["v"] = []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	st.AddRoute("l", 0, 0, 5)
	pkt := packet.BuildTCP(1, 2, 3, 4, packet.TCPOptions{Payload: []byte("SIG")})
	if _, err := ExecFunc(p, fn, &Env{State: st, Pkt: pkt, Xfer: []uint64{9, 0}}); err != nil {
		t.Fatal(err)
	}
}

// sendProg wraps a single mutilated function into a program for the
// structural Validate tests.
func sendProg(mutate func(fn *Function)) *Program {
	b := NewBuilder("struct")
	x := b.Const("x", U32, 1)
	b.StoreHeader("ip.saddr", x)
	b.Send()
	fn := b.Fn()
	fn.Finalize()
	mutate(fn)
	return &Program{Name: "struct", Fn: fn}
}

func TestValidateStructuralErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(fn *Function)
		want   string
	}{
		{"block ID mismatch", func(fn *Function) {
			fn.Blocks[0].ID = 3
		}, "has ID 3"},
		{"missing terminator", func(fn *Function) {
			fn.Blocks[0].Term = Instr{}
		}, "missing terminator"},
		{"non-terminator as terminator", func(fn *Function) {
			fn.Blocks[0].Term = Instr{Kind: BinOp, Dst: []Reg{0}, Args: []Reg{0, 0}}
		}, "non-terminator kind"},
		{"jump target out of range", func(fn *Function) {
			fn.Blocks[0].Term = Instr{Kind: Jump, Then: 7}
		}, "does not exist"},
		{"jump with arguments", func(fn *Function) {
			fn.Blocks[0].Term = Instr{Kind: Jump, Then: 0, Args: []Reg{0}}
		}, "jump takes no arguments"},
		{"send with arguments", func(fn *Function) {
			fn.Blocks[0].Term = Instr{Kind: Send, Args: []Reg{0}}
		}, "takes no arguments"},
		{"const with args", func(fn *Function) {
			fn.Blocks[0].Instrs[0] = Instr{Kind: Const, Dst: []Reg{0}, Args: []Reg{0}}
		}, "want 0 args"},
		{"storehdr with dst", func(fn *Function) {
			fn.Blocks[0].Instrs[1] = Instr{Kind: StoreHeader, Obj: "ip.saddr", Dst: []Reg{0}, Args: []Reg{0}}
		}, "want 0 dsts"},
		{"loadhdr with args", func(fn *Function) {
			fn.Blocks[0].Instrs[0] = Instr{Kind: LoadHeader, Obj: "ip.saddr", Dst: []Reg{0}, Args: []Reg{0}}
		}, "want 0 args"},
		{"hash without inputs", func(fn *Function) {
			fn.Blocks[0].Instrs[0] = Instr{Kind: Hash, Dst: []Reg{0}}
		}, "at least one argument"},
		{"terminator kind in body", func(fn *Function) {
			fn.Blocks[0].Instrs[0] = Instr{Kind: Drop}
		}, "terminator kind inside block body"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := sendProg(tc.mutate)
			err := p.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestValidateBranchTargetsOutOfRange(t *testing.T) {
	b := NewBuilder("br")
	c := b.Const("c", Bool, 1)
	then := b.NewBlock()
	b.Branch(c, then, then)
	b.SetBlock(then)
	b.Drop()
	fn := b.Fn()
	fn.Finalize()
	fn.Blocks[0].Term.Else = 9
	p := &Program{Name: "br", Fn: fn}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "do not exist") {
		t.Errorf("err = %v, want branch-target error", err)
	}
}

func TestValidateGlobalOpArities(t *testing.T) {
	g := &Global{Name: "m", Kind: KindMap, KeyTypes: []Type{U32}, ValTypes: []Type{U32}}
	sc := &Global{Name: "s", Kind: KindScalar, ValTypes: []Type{U32}}
	cases := []struct {
		name string
		in   Instr
		want string
	}{
		{"mapinsert with dst", Instr{Kind: MapInsert, Obj: "m", Dst: []Reg{0}, Args: []Reg{0, 0}}, "want 0 dsts"},
		{"mapremove wrong keys", Instr{Kind: MapRemove, Obj: "m", Args: []Reg{0, 0}}, "want 1 args"},
		{"globalstore with dst", Instr{Kind: GlobalStore, Obj: "s", Dst: []Reg{0}, Args: []Reg{0}}, "want 0 dsts"},
		{"veclen on a map", Instr{Kind: VecLen, Obj: "m", Dst: []Reg{0}, Args: []Reg{0}}, "is map, want vec"},
		{"xferload with args", Instr{Kind: XferLoad, Obj: "f", Dst: []Reg{0}, Args: []Reg{0}}, "want 0 args"},
		{"xferstore with dst", Instr{Kind: XferStore, Obj: "f", Dst: []Reg{0}, Args: []Reg{0}}, "want 0 dsts"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder("g")
			b.Const("x", U32, 0)
			b.Drop()
			fn := b.Fn()
			fn.Blocks[0].Instrs = append(fn.Blocks[0].Instrs, tc.in)
			fn.Finalize()
			p := &Program{Name: "g", Globals: []*Global{g, sc}, Fn: fn}
			err := p.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}
