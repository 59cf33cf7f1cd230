package partition

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gallium/internal/deps"
	"gallium/internal/ir"
	"gallium/internal/packet"
)

// buildMiniLB reproduces the paper's running example (§4, Figures 3-5).
func buildMiniLB(t testing.TB) (*ir.Program, map[string]int) {
	connMap := &ir.Global{Name: "map", Kind: ir.KindMap, KeyTypes: []ir.Type{ir.U16}, ValTypes: []ir.Type{ir.U32}, MaxEntries: 65536}
	backends := &ir.Global{Name: "backends", Kind: ir.KindVec, ValTypes: []ir.Type{ir.U32}, MaxEntries: 16}

	b := ir.NewBuilder("process")
	saddr := b.LoadHeader("saddr", "ip.saddr", ir.U32)
	daddr := b.LoadHeader("daddr", "ip.daddr", ir.U32)
	hash32 := b.BinOp("hash32", ir.Xor, saddr, daddr)
	maskC := b.Const("maskc", ir.U32, 0xFFFF)
	masked := b.BinOp("masked", ir.And, hash32, maskC)
	key := b.Convert("key", ir.U16, masked)
	found, vals := b.MapFind("bk", connMap, key)

	hit := b.NewBlock()
	miss := b.NewBlock()
	b.Branch(found, hit, miss)

	b.SetBlock(hit)
	b.StoreHeader("ip.daddr", vals[0])
	b.Send()

	b.SetBlock(miss)
	size := b.VecLen("size", backends)
	idx := b.BinOp("idx", ir.Mod, hash32, size)
	addr := b.VecGet("addr", backends, idx)
	b.StoreHeader("ip.daddr", addr)
	b.MapInsert(connMap, []ir.Reg{key}, []ir.Reg{addr})
	b.Send()

	fn := b.Fn()
	fn.Finalize()
	p := &ir.Program{Name: "minilb", Globals: []*ir.Global{connMap, backends}, Fn: fn}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	names := []string{"load_saddr", "load_daddr", "hash32", "maskc", "masked", "key",
		"find", "branch", "store_hit", "send_hit", "size", "idx", "vecget",
		"store_miss", "insert", "send_miss"}
	ids := map[string]int{}
	for i, s := range fn.Stmts() {
		ids[names[i]] = s.ID
	}
	return p, ids
}

// TestMiniLBPartitionMatchesPaper checks the partition against Figure 4.
// One deliberate difference: the paper partitions at C++ statement
// granularity, so `backends.size()` travels with the `%` statement to the
// server; at IR granularity the size read is offloadable on its own.
func TestMiniLBPartitionMatchesPaper(t *testing.T) {
	p, ids := buildMiniLB(t)
	res, err := Partition(p, DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	wantPre := []string{"load_saddr", "load_daddr", "hash32", "maskc", "masked", "key", "find", "branch", "store_hit", "send_hit"}
	for _, n := range wantPre {
		if res.Assign[ids[n]] != Pre {
			t.Errorf("%s assigned %v, want pre", n, res.Assign[ids[n]])
		}
	}
	wantSrv := []string{"idx", "vecget", "insert"}
	for _, n := range wantSrv {
		if res.Assign[ids[n]] != NonOff {
			t.Errorf("%s assigned %v, want non_off", n, res.Assign[ids[n]])
		}
	}
	wantPost := []string{"store_miss", "send_miss"}
	for _, n := range wantPost {
		if res.Assign[ids[n]] != Post {
			t.Errorf("%s assigned %v, want post", n, res.Assign[ids[n]])
		}
	}
}

// TestMiniLBTransfersMatchFigure5 checks the synthesized headers: the
// server→post packet carries exactly the branch condition and the chosen
// backend address (Figure 5b); the pre→server packet carries the condition
// and hash32 (Figure 5a) plus, at IR granularity, the map key and vector
// size the server-side statements consume.
func TestMiniLBTransfersMatchFigure5(t *testing.T) {
	p, _ := buildMiniLB(t)
	res, err := Partition(p, DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	aNames := transferNames(res.TransferA)
	for _, want := range []string{"bk_ok", "hash32", "key"} {
		if !containsPrefix(aNames, want) {
			t.Errorf("transfer A missing %s: %v", want, aNames)
		}
	}
	bNames := transferNames(res.TransferB)
	if len(bNames) != 2 {
		t.Errorf("transfer B = %v, want exactly {cond, backend addr}", bNames)
	}
	for _, want := range []string{"bk_ok", "addr"} {
		if !containsPrefix(bNames, want) {
			t.Errorf("transfer B missing %s: %v", want, bNames)
		}
	}
	// The condition is 1 bit, as in Figure 5.
	for _, v := range res.TransferB {
		if strings.HasPrefix(v.Name, "bk_ok") && v.Bits != 1 {
			t.Errorf("condition transferred as %d bits, want 1", v.Bits)
		}
	}
	if res.FormatA.DataLen() > packet.MaxTransferBytes || res.FormatB.DataLen() > packet.MaxTransferBytes {
		t.Errorf("formats exceed 20-byte budget: %d/%d", res.FormatA.DataLen(), res.FormatB.DataLen())
	}
}

func transferNames(vars []TransferVar) []string {
	out := make([]string, len(vars))
	for i, v := range vars {
		out[i] = v.Name
	}
	return out
}

func containsPrefix(names []string, prefix string) bool {
	for _, n := range names {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}

func TestMiniLBOffloadedGlobals(t *testing.T) {
	p, ids := buildMiniLB(t)
	res, err := Partition(p, DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	// The connection map is offloaded and its switch access is the find.
	if got, ok := res.SwitchAccess["map"]; !ok || got != ids["find"] {
		t.Errorf("map switch access = %v (ok=%v), want find (%d)", got, ok, ids["find"])
	}
	// Each offloaded global has exactly one switch access (Constraint 3).
	for _, gn := range res.OffloadedGlobals {
		if _, ok := res.SwitchAccess[gn]; !ok {
			t.Errorf("offloaded global %s without switch access", gn)
		}
	}
}

// TestMiniLBPipelineEquivalence is the paper's goal (1): the partitioned
// pipeline must be functionally equivalent to the input program. Random
// packet traces through both must produce identical actions, identical
// rewritten packets, and identical final state.
func TestMiniLBPipelineEquivalence(t *testing.T) {
	p, _ := buildMiniLB(t)
	res, err := Partition(p, DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	stRef := ir.NewState(p)
	stPart := ir.NewState(p)
	backends := []uint64{
		uint64(packet.MakeIPv4Addr(10, 0, 1, 1)),
		uint64(packet.MakeIPv4Addr(10, 0, 1, 2)),
		uint64(packet.MakeIPv4Addr(10, 0, 1, 3)),
	}
	stRef.Vecs["backends"] = append([]uint64(nil), backends...)
	stPart.Vecs["backends"] = append([]uint64(nil), backends...)

	fastPaths := 0
	for i := 0; i < 2000; i++ {
		// A small client pool so both map hits and misses occur.
		src := packet.MakeIPv4Addr(1, 2, byte(rng.Intn(8)), byte(rng.Intn(8)))
		dst := packet.MakeIPv4Addr(9, 9, 9, 9)
		pktRef := packet.BuildTCP(src, dst, uint16(rng.Intn(1000)), 80, packet.TCPOptions{})
		pktPart := pktRef.Clone()

		rRef, err := p.Exec(&ir.Env{State: stRef, Pkt: pktRef})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := res.ExecPipeline(stPart, pktPart)
		if err != nil {
			t.Fatal(err)
		}
		if rRef.Action != tr.Action {
			t.Fatalf("pkt %d: action mismatch ref=%v part=%v", i, rRef.Action, tr.Action)
		}
		if pktRef.IP.DstIP != pktPart.IP.DstIP || pktRef.IP.SrcIP != pktPart.IP.SrcIP {
			t.Fatalf("pkt %d: header mismatch ref=%v part=%v", i, pktRef.IP.DstIP, pktPart.IP.DstIP)
		}
		if tr.FastPath {
			fastPaths++
		}
	}
	if !stRef.Equal(stPart) {
		t.Fatal("final state mismatch between reference and partitioned execution")
	}
	// Repeated connections must take the fast path.
	if fastPaths == 0 {
		t.Error("no packet ever took the fast path")
	}
	if fastPaths == 2000 {
		t.Error("every packet took the fast path (misses should go to the server)")
	}
}

func TestLoopForcesNonOffload(t *testing.T) {
	// A per-packet loop: every statement in the cycle must end up on the
	// server (rule 5 / P4 has no loops).
	g := &ir.Global{Name: "acc", Kind: ir.KindScalar, ValTypes: []ir.Type{ir.U32}}
	b := ir.NewBuilder("looper")
	head := b.NewBlock()
	body := b.NewBlock()
	exit := b.NewBlock()
	b.Jump(head)
	b.SetBlock(head)
	v := b.GlobalLoad("v", g)
	lim := b.Const("lim", ir.U32, 10)
	c := b.BinOp("c", ir.Lt, v, lim)
	b.Branch(c, body, exit)
	b.SetBlock(body)
	v2 := b.GlobalLoad("v2", g)
	one := b.Const("one", ir.U32, 1)
	sum := b.BinOp("sum", ir.Add, v2, one)
	b.GlobalStore(g, sum)
	b.Jump(head)
	b.SetBlock(exit)
	b.Send()
	fn := b.Fn()
	fn.Finalize()
	p := &ir.Program{Name: "looper", Globals: []*ir.Global{g}, Fn: fn}

	res, err := Partition(p, DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fn.Stmts() {
		switch s.Kind {
		case ir.GlobalLoad, ir.GlobalStore, ir.BinOp, ir.Const:
			blk, _ := fn.StmtBlock(s.ID)
			if blk.ID == 1 || blk.ID == 2 { // head & body are on the cycle
				if res.Assign[s.ID] != NonOff {
					t.Errorf("stmt %d (%s) in loop assigned %v", s.ID, s.Kind, res.Assign[s.ID])
				}
			}
		}
	}
}

func TestPayloadMatchStaysOnServer(t *testing.T) {
	b := ir.NewBuilder("dpi")
	m := b.PayloadMatch("m", "EVIL")
	drop := b.NewBlock()
	fwd := b.NewBlock()
	b.Branch(m, drop, fwd)
	b.SetBlock(drop)
	b.Drop()
	b.SetBlock(fwd)
	b.Send()
	fn := b.Fn()
	fn.Finalize()
	p := &ir.Program{Name: "dpi", Fn: fn}
	res, err := Partition(p, DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	stmts := fn.Stmts()
	if res.Assign[stmts[0].ID] != NonOff {
		t.Error("payload match must stay on the server")
	}
	// The terminators depend on the match result, so neither can be pre:
	// no fast path exists for this program.
	for _, s := range stmts {
		if s.Kind == ir.Send || s.Kind == ir.Drop {
			if res.Assign[s.ID] == Pre {
				t.Errorf("terminator %d assigned pre despite payload dependency", s.ID)
			}
		}
	}
}

func TestUnannotatedMapNotOffloaded(t *testing.T) {
	// Without a max-size annotation the map has no P4 realization.
	g := &ir.Global{Name: "m", Kind: ir.KindMap, KeyTypes: []ir.Type{ir.U32}, ValTypes: []ir.Type{ir.U32}, MaxEntries: 0}
	b := ir.NewBuilder("f")
	k := b.LoadHeader("k", "ip.saddr", ir.U32)
	found, _ := b.MapFind("r", g, k)
	s1 := b.NewBlock()
	s2 := b.NewBlock()
	b.Branch(found, s1, s2)
	b.SetBlock(s1)
	b.Send()
	b.SetBlock(s2)
	b.Drop()
	fn := b.Fn()
	fn.Finalize()
	p := &ir.Program{Name: "f", Globals: []*ir.Global{g}, Fn: fn}
	res, err := Partition(p, DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OffloadedGlobals) != 0 {
		t.Errorf("offloaded globals = %v, want none", res.OffloadedGlobals)
	}
}

func TestMemoryConstraintEvictsTable(t *testing.T) {
	p, ids := buildMiniLB(t)
	c := DefaultConstraints()
	c.SwitchMemoryBytes = 1024 // far below the 65536-entry map
	res, err := Partition(p, c)
	if err != nil {
		t.Fatal(err)
	}
	for _, gn := range res.OffloadedGlobals {
		if p.Global(gn).SizeBytes() > c.SwitchMemoryBytes {
			t.Errorf("global %s (%d bytes) kept on switch over budget", gn, p.Global(gn).SizeBytes())
		}
	}
	if res.Report.SwitchMemoryBytes > c.SwitchMemoryBytes {
		t.Errorf("switch memory %d > budget %d", res.Report.SwitchMemoryBytes, c.SwitchMemoryBytes)
	}
	// The find can no longer run on the switch.
	if res.Assign[ids["find"]] != NonOff {
		t.Errorf("find assigned %v despite memory pressure", res.Assign[ids["find"]])
	}
	// Equivalence must still hold.
	assertEquivalent(t, p, res, 500)
}

func TestDepthConstraintLimitsChains(t *testing.T) {
	// A long dependency chain: v1 = a+1; v2 = v1+1; ... depth 30.
	b := ir.NewBuilder("chain")
	one := b.Const("one", ir.U32, 1)
	v := b.LoadHeader("v0", "ip.saddr", ir.U32)
	for i := 0; i < 30; i++ {
		v = b.BinOp("v", ir.Add, v, one)
	}
	b.StoreHeader("ip.daddr", v)
	b.Send()
	fn := b.Fn()
	fn.Finalize()
	p := &ir.Program{Name: "chain", Fn: fn}

	c := DefaultConstraints()
	c.PipelineDepth = 8
	res, err := Partition(p, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.DepthPre > c.PipelineDepth {
		t.Errorf("pre depth %d > pipeline depth %d", res.Report.DepthPre, c.PipelineDepth)
	}
	if res.Report.DepthPost > c.PipelineDepth {
		t.Errorf("post depth %d > pipeline depth %d", res.Report.DepthPost, c.PipelineDepth)
	}
	if res.Report.NumSrv == 0 {
		t.Error("a 30-deep chain must push something to the server")
	}
	assertEquivalent(t, p, res, 200)
}

// TestChainLengths checks the one longest-chain pass behind constraint 2
// and the report's depths on a hand-built dependence graph: the chain
// 0→1→2→3→6 with a shortcut 0→3, and statements 4 and 5 on a cycle
// hanging off 1 and feeding 6. The cycle is on no chain, so 6 is reached
// only through 3; dropping 2 with the filter leaves 0→3→6 as the longest.
func TestChainLengths(t *testing.T) {
	g := &deps.Graph{N: 7, Out: make([][]deps.Edge, 7)}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {1, 4}, {4, 5}, {5, 4}, {5, 6}, {3, 6}} {
		g.Out[e[0]] = append(g.Out[e[0]], deps.Edge{To: e[1]})
	}
	for _, tc := range []struct {
		name       string
		keep       func(int) bool
		into, from []int
	}{
		{"all", func(int) bool { return true }, []int{1, 2, 3, 4, 0, 0, 5}, []int{5, 4, 3, 2, 0, 0, 1}},
		{"without 2", func(s int) bool { return s != 2 }, []int{1, 2, 0, 2, 0, 0, 3}, []int{3, 1, 0, 2, 0, 0, 1}},
	} {
		into, from := chainLengths(g, tc.keep)
		if !slices.Equal(into, tc.into) || !slices.Equal(from, tc.from) {
			t.Errorf("%s: into %v from %v, want into %v from %v", tc.name, into, from, tc.into, tc.from)
		}
	}
}

func TestTransferConstraintMovesCode(t *testing.T) {
	p, _ := buildMiniLB(t)
	c := DefaultConstraints()
	c.TransferBytes = 1 // absurdly tight: only tiny transfers allowed
	res, err := Partition(p, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.FormatA.DataLen() > 1 || res.FormatB.DataLen() > 1 {
		t.Errorf("transfers %d/%d bytes exceed 1-byte budget", res.FormatA.DataLen(), res.FormatB.DataLen())
	}
	assertEquivalent(t, p, res, 500)
}

func TestMetadataConstraint(t *testing.T) {
	p, _ := buildMiniLB(t)
	c := DefaultConstraints()
	c.MetadataBytes = 4
	res, err := Partition(p, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.MaxMetadataBits > c.MetadataBytes*8 {
		t.Errorf("metadata %d bits > budget %d", res.Report.MaxMetadataBits, c.MetadataBytes*8)
	}
	assertEquivalent(t, p, res, 500)
}

// assertEquivalent drives random traffic through the reference program and
// the partitioned pipeline and demands identical behaviour.
func assertEquivalent(t *testing.T, p *ir.Program, res *Result, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	stRef := ir.NewState(p)
	stPart := ir.NewState(p)
	for name := range stRef.Vecs {
		vals := []uint64{1, 2, 3, 4, 5}
		stRef.Vecs[name] = append([]uint64(nil), vals...)
		stPart.Vecs[name] = append([]uint64(nil), vals...)
	}
	for i := 0; i < n; i++ {
		src := packet.MakeIPv4Addr(1, 2, byte(rng.Intn(4)), byte(rng.Intn(16)))
		pktRef := packet.BuildTCP(src, packet.MakeIPv4Addr(9, 9, 9, 9), uint16(rng.Intn(100)), 80, packet.TCPOptions{Payload: []byte("hello")})
		pktPart := pktRef.Clone()
		rRef, err := p.Exec(&ir.Env{State: stRef, Pkt: pktRef})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := res.ExecPipeline(stPart, pktPart)
		if err != nil {
			t.Fatal(err)
		}
		if rRef.Action != tr.Action {
			t.Fatalf("pkt %d action mismatch: ref=%v part=%v", i, rRef.Action, tr.Action)
		}
		if pktRef.IP.DstIP != pktPart.IP.DstIP || pktRef.TCP.DstPort != pktPart.TCP.DstPort {
			t.Fatalf("pkt %d rewrite mismatch", i)
		}
	}
	if !stRef.Equal(stPart) {
		t.Fatal("final state mismatch")
	}
}

func TestReportCounts(t *testing.T) {
	p, _ := buildMiniLB(t)
	res, err := Partition(p, DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	r := res.Report
	if r.NumPre+r.NumSrv+r.NumPost != r.NumStmts {
		t.Errorf("partition counts %d+%d+%d != %d", r.NumPre, r.NumSrv, r.NumPost, r.NumStmts)
	}
	if f := r.OffloadFraction(); f <= 0 || f > 1 {
		t.Errorf("offload fraction = %v", f)
	}
	if r.SwitchMemoryBytes <= 0 {
		t.Error("switch memory accounting empty despite offloaded map")
	}
}

func TestLabelRulesManualFixpoint(t *testing.T) {
	// Direct unit test of the rules on a hand-made graph: a statement
	// depending on a non-offloadable one loses pre (rule 2), and a
	// statement whose dependent is server-only loses post (rule 1).
	p, ids := buildMiniLB(t)
	res, err := Partition(p, DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	// idx uses Mod: {non_off} only.
	if res.Labels[ids["idx"]] != LNonOff {
		t.Errorf("idx labels = %v", res.Labels[ids["idx"]])
	}
	// vecget depends on idx -> no pre (rule 2). Its dependent insert is
	// non-off -> no post (rule 1).
	if res.Labels[ids["vecget"]].Has(LPre) || res.Labels[ids["vecget"]].Has(LPost) {
		t.Errorf("vecget labels = %v, want {non}", res.Labels[ids["vecget"]])
	}
	// key keeps pre but loses post (insert depends on it).
	if !res.Labels[ids["key"]].Has(LPre) {
		t.Errorf("key labels = %v, want pre", res.Labels[ids["key"]])
	}
	if res.Labels[ids["key"]].Has(LPost) {
		t.Errorf("key labels = %v, post should be removed via rule 1", res.Labels[ids["key"]])
	}
	// store_miss keeps post but not pre.
	if res.Labels[ids["store_miss"]].Has(LPre) || !res.Labels[ids["store_miss"]].Has(LPost) {
		t.Errorf("store_miss labels = %v, want {non,post}", res.Labels[ids["store_miss"]])
	}
}

// TestGlobalWriteBlocksFastPath exercises label rule 6: an insert with no
// dependence edge to the send (no header rewrite between them) must still
// keep the send off the switch's pre pass, or the write would be lost when
// the switch emits the packet.
func TestGlobalWriteBlocksFastPath(t *testing.T) {
	g := &ir.Global{Name: "seen", Kind: ir.KindMap, KeyTypes: []ir.Type{ir.U32}, ValTypes: []ir.Type{ir.U8}, MaxEntries: 1024}
	b := ir.NewBuilder("track")
	sip := b.LoadHeader("sip", "ip.saddr", ir.U32)
	found, _ := b.MapFind("s", g, sip)
	known := b.NewBlock()
	fresh := b.NewBlock()
	b.Branch(found, known, fresh)
	b.SetBlock(known)
	b.Send() // fast path: host already tracked
	b.SetBlock(fresh)
	one := b.Const("one", ir.U8, 1)
	b.MapInsert(g, []ir.Reg{sip}, []ir.Reg{one})
	b.Send() // must NOT be pre: the insert has no dep edge to it
	fn := b.Fn()
	fn.Finalize()
	p := &ir.Program{Name: "track", Globals: []*ir.Global{g}, Fn: fn}

	res, err := Partition(p, DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	var sends []int
	for _, s := range fn.Stmts() {
		if s.Kind == ir.Send {
			sends = append(sends, s.ID)
		}
	}
	if res.Assign[sends[0]] != Pre {
		t.Errorf("known-host send assigned %v, want pre (fast path)", res.Assign[sends[0]])
	}
	if res.Assign[sends[1]] == Pre {
		t.Error("fresh-host send assigned pre; the insert would be lost")
	}
	assertEquivalent(t, p, res, 300)
}
