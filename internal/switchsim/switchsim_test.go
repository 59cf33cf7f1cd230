package switchsim

import (
	"strings"
	"testing"

	"gallium/internal/ir"
	"gallium/internal/lang"
	"gallium/internal/middleboxes"
	"gallium/internal/packet"
	"gallium/internal/partition"
)

func compileMB(t *testing.T, name string) *partition.Result {
	t.Helper()
	spec, err := middleboxes.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.Compile(spec.Source)
	if err != nil {
		t.Fatal(err)
	}
	res, err := partition.Partition(prog, partition.DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// install stages ups on shard 0 and flips them — the whole control-plane
// protocol, as every sequential driver runs it.
func install(t *testing.T, sw *Switch, ups ...Update) {
	t.Helper()
	for _, u := range ups {
		if err := sw.StageShard(0, u); err != nil {
			t.Fatal(err)
		}
	}
	sw.FlipShard(0)
}

func TestWriteBackVisibilityProtocol(t *testing.T) {
	res := compileMB(t, "minilb")
	sw := New(res)
	tbl, ok := sw.Table("conn")
	if !ok {
		t.Fatal("conn table not resident")
	}
	key := ir.MakeMapKey(42)

	// Step 1: staged entries are invisible.
	if err := sw.StageShard(0, Update{Table: "conn", Key: key, Vals: []uint64{7}}); err != nil {
		t.Fatal(err)
	}
	if _, visible := tbl.Lookup(key); visible {
		t.Fatal("staged entry visible before flip")
	}
	if tbl.Len() != 0 {
		t.Fatalf("staged entry counted before flip: Len = %d", tbl.Len())
	}

	// Step 2: the flip makes it visible atomically.
	sw.FlipShard(0)
	v, visible := tbl.Lookup(key)
	if !visible || v[0] != 7 {
		t.Fatalf("entry not visible after flip: %v %v", v, visible)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d after flip, want 1", tbl.Len())
	}
}

func TestWriteBackDeletion(t *testing.T) {
	res := compileMB(t, "minilb")
	sw := New(res)
	tbl, _ := sw.Table("conn")
	key := ir.MakeMapKey(9)
	install(t, sw, Update{Table: "conn", Key: key, Vals: []uint64{1}})

	if err := sw.StageShard(0, Update{Table: "conn", Key: key, Delete: true}); err != nil {
		t.Fatal(err)
	}
	if _, visible := tbl.Lookup(key); !visible {
		t.Fatal("deletion visible before flip")
	}
	sw.FlipShard(0)
	if _, visible := tbl.Lookup(key); visible {
		t.Fatal("entry still visible after flipped deletion")
	}
	if tbl.Len() != 0 {
		t.Fatalf("Len = %d after flipped deletion, want 0", tbl.Len())
	}
}

func TestAtomicBatchAcrossTables(t *testing.T) {
	// MazuNAT updates two tables per new connection; §3.1 requires other
	// packets to observe all or none of a packet's updates. Staging both
	// then flipping once gives exactly that.
	res := compileMB(t, "mazunat")
	sw := New(res)
	fwdKey := ir.MakeMapKey(1, 1000)
	revKey := ir.MakeMapKey(7)
	if err := sw.StageShard(0, Update{Table: "nat_fwd", Key: fwdKey, Vals: []uint64{7}}); err != nil {
		t.Fatal(err)
	}
	if err := sw.StageShard(0, Update{Table: "nat_rev", Key: revKey, Vals: []uint64{1, 1000}}); err != nil {
		t.Fatal(err)
	}
	fwd, _ := sw.Table("nat_fwd")
	rev, _ := sw.Table("nat_rev")
	_, v1 := fwd.Lookup(fwdKey)
	_, v2 := rev.Lookup(revKey)
	if v1 || v2 {
		t.Fatal("partial visibility before flip")
	}
	sw.FlipShard(0)
	_, v1 = fwd.Lookup(fwdKey)
	_, v2 = rev.Lookup(revKey)
	if !v1 || !v2 {
		t.Fatal("partial visibility after flip")
	}
}

// regBoxSource has a control-plane-configured register: the global is
// read-only in the data plane (a written global may not offload at all —
// partition rule 7), so it lands on the switch and only a staged update
// can change it.
const regBoxSource = `
middlebox regbox {
    global u16 blocked;
    map<u16 -> u16> seen(max = 16);
    proc process(pkt p) {
        u16 b = blocked;
        if (p.tcp.dport == b) {
            drop(p);
        }
        let m = seen.find(p.tcp.dport);
        if (m.ok) {
            send(p);
        } else {
            seen.insert(p.tcp.dport, b);
            send(p);
        }
    }
}
`

func compileSrc(t *testing.T, src string) *partition.Result {
	t.Helper()
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := partition.Partition(prog, partition.DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRegisterStagedUntilFlip(t *testing.T) {
	res := compileSrc(t, regBoxSource)
	sw := New(res)
	if err := sw.StageShard(0, Update{Register: "blocked", RegVal: 5}); err != nil {
		t.Fatal(err)
	}
	if v, _ := sw.Register("blocked"); v != 0 {
		t.Fatal("register updated before flip")
	}
	sw.FlipShard(0)
	if v, _ := sw.Register("blocked"); v != 5 {
		t.Fatalf("register = %d after flip, want 5", v)
	}
}

func TestTableCapacityEnforced(t *testing.T) {
	src := `
middlebox tinytbl {
    map<u16 -> u32> t(max = 2);
    proc process(pkt p) {
        let r = t.find(p.tcp.dport);
        if (r.ok) { send(p); } else { drop(p); }
    }
}
`
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := partition.Partition(prog, partition.DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	sw := New(res)
	for i := 0; i < 2; i++ {
		if err := sw.StageShard(0, Update{Table: "t", Key: ir.MakeMapKey(uint64(i)), Vals: []uint64{1}}); err != nil {
			t.Fatal(err)
		}
		sw.FlipShard(0)
	}
	err = sw.StageShard(0, Update{Table: "t", Key: ir.MakeMapKey(99), Vals: []uint64{1}})
	if err == nil || !strings.Contains(err.Error(), "full") {
		t.Fatalf("err = %v, want capacity error", err)
	}
	// Overwriting an existing key is still allowed.
	if err := sw.StageShard(0, Update{Table: "t", Key: ir.MakeMapKey(0), Vals: []uint64{2}}); err != nil {
		t.Fatalf("overwrite rejected: %v", err)
	}
}

func TestDataPlaneIsReadOnly(t *testing.T) {
	res := compileMB(t, "minilb")
	sw := New(res)
	a := &access{sw: sw, v: sw.view.Load()}
	key := ir.MakeMapKey(1)
	if err := a.MapInsert(sw.globals["conn"], &key, []uint64{1}); err == nil {
		t.Error("data-plane insert must be rejected")
	}
	if err := a.MapRemove(sw.globals["conn"], &key); err == nil {
		t.Error("data-plane remove must be rejected")
	}
	if err := a.GlobalStore(0, 1); err == nil {
		t.Error("data-plane register write must be rejected")
	}

	// The same through a pass: a pre partition that contains a write (the
	// whole program standing in for it) fails, naming the statement.
	bad := *res
	bad.PreFn = res.Prog.Fn
	sw = New(&bad)
	if err := sw.LoadVector("backends", middleboxes.Backends); err != nil {
		t.Fatal(err)
	}
	pkt := packet.BuildTCP(packet.MakeIPv4Addr(1, 2, 3, 4), packet.MakeIPv4Addr(9, 9, 9, 9), 1000, 80, packet.TCPOptions{})
	_, err := sw.ProcessPreShard(pkt, 0, nil)
	if err == nil || !strings.Contains(err.Error(), "ir: stmt ") || !strings.Contains(err.Error(), "read-only") {
		t.Errorf("pre pass with a table insert: err = %v, want a read-only error naming its statement", err)
	}
}

func TestProcessPreFastAndSlowPaths(t *testing.T) {
	res := compileMB(t, "minilb")
	sw := New(res)
	if err := sw.LoadVector("backends", middleboxes.Backends); err != nil {
		t.Fatal(err)
	}

	// Unknown connection: slow path, gallium_a attached with transfers.
	pkt := packet.BuildTCP(packet.MakeIPv4Addr(1, 2, 3, 4), packet.MakeIPv4Addr(9, 9, 9, 9), 1000, 80, packet.TCPOptions{})
	r, err := sw.ProcessPreShard(pkt, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Action != ir.ActionNext {
		t.Fatalf("action = %v, want next (miss)", r.Action)
	}
	if !pkt.HasGallium {
		t.Fatal("slow-path packet lacks gallium header")
	}
	// hash32 must ride in the header (Figure 5a).
	var hashField string
	for _, v := range res.TransferA {
		if strings.HasPrefix(v.Name, "hash32") {
			hashField = v.Name
		}
	}
	if hashField == "" {
		t.Fatal("no hash32 transfer var")
	}
	got := headerField(t, res.FormatA, pkt.GalData, hashField)
	want := uint64(packet.MakeIPv4Addr(1, 2, 3, 4) ^ packet.MakeIPv4Addr(9, 9, 9, 9))
	if got != want {
		t.Errorf("hash32 in header = %#x, want %#x", got, want)
	}

	// Install the mapping; the same connection now takes the fast path.
	key := ir.MakeMapKey(want & 0xFFFF)
	backend := middleboxes.Backends[0]
	if err := sw.StageShard(0, Update{Table: "conn", Key: key, Vals: []uint64{backend}}); err != nil {
		t.Fatal(err)
	}
	sw.FlipShard(0)
	pkt2 := packet.BuildTCP(packet.MakeIPv4Addr(1, 2, 3, 4), packet.MakeIPv4Addr(9, 9, 9, 9), 1000, 80, packet.TCPOptions{})
	r2, err := sw.ProcessPreShard(pkt2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Action != ir.ActionSent {
		t.Fatalf("action = %v, want sent (fast path)", r2.Action)
	}
	if uint64(pkt2.IP.DstIP) != backend {
		t.Errorf("daddr = %v, want backend", pkt2.IP.DstIP)
	}
	st := sw.Stats()
	if st.FastPath != 1 || st.ToServer != 1 || st.PrePackets != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestProcessPostRequiresHeader(t *testing.T) {
	res := compileMB(t, "minilb")
	sw := New(res)
	pkt := packet.BuildTCP(1, 2, 3, 4, packet.TCPOptions{})
	if _, err := sw.ProcessPostShard(pkt, 0, nil); err == nil {
		t.Fatal("post pass must reject packets without gallium_b")
	}
}

func TestLoadVectorChecksAnnotation(t *testing.T) {
	res := compileMB(t, "minilb")
	sw := New(res)
	big := make([]uint64, 17) // annotation is max=16
	if err := sw.LoadVector("backends", big); err == nil {
		t.Error("oversized vector accepted")
	}
	if err := sw.LoadVector("nosuch", []uint64{1}); err == nil {
		t.Error("unknown vector accepted")
	}
}

// TestFullPrePostPass drives a MiniLB miss through pre, emulates the
// server turnaround, and runs the post pass directly on the switch.
func TestFullPrePostPass(t *testing.T) {
	res := compileMB(t, "minilb")
	sw := New(res)
	if err := sw.LoadVector("backends", middleboxes.Backends); err != nil {
		t.Fatal(err)
	}
	pkt := packet.BuildTCP(packet.MakeIPv4Addr(1, 2, 3, 4), packet.MakeIPv4Addr(9, 9, 9, 9), 1000, 80, packet.TCPOptions{})
	pre, err := sw.ProcessPreShard(pkt, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Action != ir.ActionNext || !pkt.HasGallium {
		t.Fatalf("pre: %+v gallium=%v", pre, pkt.HasGallium)
	}
	// Emulate the server: strip A, compute, attach B with the cond and
	// chosen backend.
	pkt.StripGallium()
	pkt.AttachGallium(res.FormatB)
	for _, v := range res.TransferB {
		var val uint64
		if strings.HasSuffix(v.Name[:strings.LastIndex(v.Name, "_r")], "ok") || strings.Contains(v.Name, "_ok") {
			val = 0 // miss path
		} else {
			val = middleboxes.Backends[1]
		}
		setHeaderField(t, res.FormatB, pkt.GalData, v.Name, val)
	}
	post, err := sw.ProcessPostShard(pkt, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if post.Action != ir.ActionSent {
		t.Fatalf("post action = %v", post.Action)
	}
	if pkt.HasGallium {
		t.Error("post pass must strip the gallium header")
	}
	if uint64(pkt.IP.DstIP) != middleboxes.Backends[1] {
		t.Errorf("post rewrite daddr = %v", pkt.IP.DstIP)
	}
	st := sw.Stats()
	if st.PostPackets != 1 {
		t.Errorf("post packets = %d", st.PostPackets)
	}
}

// TestSwitchRegisterAndLpmDataPlane exercises the register (a read-only
// config scalar) and LPM (ipgateway) read paths on the switch pipeline.
func TestSwitchRegisterAndLpmDataPlane(t *testing.T) {
	// regbox: a miss packet packs the register value it read into the
	// gallium header (the paper's §6.2 description) for the server-side
	// insert to consume.
	res := compileSrc(t, regBoxSource)
	sw := New(res)
	if err := sw.StageShard(0, Update{Register: "blocked", RegVal: 77}); err != nil {
		t.Fatal(err)
	}
	sw.FlipShard(0)
	pkt := packet.BuildTCP(packet.MakeIPv4Addr(10, 0, 0, 1), packet.MakeIPv4Addr(99, 9, 9, 9), 1234, 80, packet.TCPOptions{Flags: packet.TCPFlagSYN})
	pre, err := sw.ProcessPreShard(pkt, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Action != ir.ActionNext {
		t.Fatalf("pre action = %v", pre.Action)
	}
	foundCounter := false
	for _, v := range res.TransferA {
		if strings.HasPrefix(v.Name, "b_") {
			if got := headerField(t, res.FormatA, pkt.GalData, v.Name); got != 77 {
				t.Errorf("register value in header = %d, want 77", got)
			}
			foundCounter = true
		}
	}
	if !foundCounter {
		t.Error("register value not in the transfer header")
	}

	// ipgateway: LPM routing entirely on the switch.
	resGw := compileMB(t, "ipgateway")
	swGw := New(resGw)
	if err := swGw.LoadLPM("routes", []ir.LpmEntry{
		{Key: 0, PrefixLen: 0, Vals: []uint64{111}},
		{Key: uint64(packet.MakeIPv4Addr(10, 0, 0, 0)), PrefixLen: 8, Vals: []uint64{222}},
	}); err != nil {
		t.Fatal(err)
	}
	gw := packet.BuildTCP(1, packet.MakeIPv4Addr(10, 7, 7, 7), 1, 2, packet.TCPOptions{})
	preGw, err := swGw.ProcessPreShard(gw, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if preGw.Action != ir.ActionSent || uint64(gw.IP.DstIP) != 222 {
		t.Errorf("lpm route: action=%v hop=%v", preGw.Action, gw.IP.DstIP)
	}
	// Unknown LPM table rejected; over-capacity rejected.
	if err := swGw.LoadLPM("nosuch", nil); err == nil {
		t.Error("unknown lpm table accepted")
	}
	big := make([]ir.LpmEntry, 257)
	if err := swGw.LoadLPM("routes", big); err == nil {
		t.Error("over-annotation lpm accepted")
	}
}

// TestVecGetOnSwitch builds a program whose vector *read* is offloaded (an
// indexed table).
func TestVecGetOnSwitch(t *testing.T) {
	src := `
middlebox vexer {
    vec<u32> table(max = 8);
    proc process(pkt p) {
        u32 idx = (u32)(p.ip.ttl) & 3;
        u32 v = table[idx];
        p.ip.daddr = v;
        send(p);
    }
}
`
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := partition.Partition(prog, partition.DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.NumSrv != 0 {
		t.Fatalf("vexer should fully offload, %d on server", res.Report.NumSrv)
	}
	sw := New(res)
	if err := sw.LoadVector("table", []uint64{10, 20, 30, 40}); err != nil {
		t.Fatal(err)
	}
	pkt := packet.BuildTCP(1, 2, 3, 4, packet.TCPOptions{})
	pkt.IP.TTL = 2
	pre, err := sw.ProcessPreShard(pkt, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Action != ir.ActionSent || uint64(pkt.IP.DstIP) != 30 {
		t.Errorf("vecget: action=%v daddr=%v, want sent/30", pre.Action, pkt.IP.DstIP)
	}
	// Out-of-range index on the data plane is an execution error.
	pkt2 := packet.BuildTCP(1, 2, 3, 4, packet.TCPOptions{})
	pkt2.IP.TTL = 7 // 7&3=3 -> in range; shrink the vector to force the error
	if err := sw.LoadVector("table", []uint64{10}); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.ProcessPreShard(pkt2, 0, nil); err == nil {
		t.Error("want error for out-of-range vector index")
	}
}
