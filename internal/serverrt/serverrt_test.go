package serverrt_test

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"gallium/internal/engine"
	"gallium/internal/ir"
	"gallium/internal/lang"
	"gallium/internal/middleboxes"
	"gallium/internal/packet"
	"gallium/internal/partition"
	"gallium/internal/serverrt"
	"gallium/internal/switchsim"
)

// compileBox partitions a bundled middlebox under the given constraints.
func compileBox(t *testing.T, name string, cons partition.Constraints) (*ir.Program, *partition.Result) {
	t.Helper()
	spec, err := middleboxes.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.Compile(spec.Source)
	if err != nil {
		t.Fatal(err)
	}
	res, err := partition.Partition(prog, cons)
	if err != nil {
		t.Fatal(err)
	}
	return prog, res
}

// deploy builds the offloaded switch and server pair on a testbed under
// the given cost model, seeded by setup when non-nil.
func deploy(t *testing.T, res *partition.Result, model engine.CostModel, setup func(*ir.State)) *engine.Testbed {
	t.Helper()
	stage := engine.StageConfig{Res: res}
	if setup != nil {
		stage.Setup = func(_ int, st *ir.State) { setup(st) }
	}
	tb, err := engine.NewTestbed(engine.Config{Model: model, Stages: []engine.StageConfig{stage}})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// inject runs one packet through a testbed under engine.InstantModel,
// where every packet may arrive at time 0, and returns its fate as the
// middlebox's action, and whether the switch alone handled it.
func inject(t *testing.T, tb *engine.Testbed, pkt *packet.Packet) (ir.Action, bool) {
	t.Helper()
	d, err := tb.Inject(0, pkt)
	if err != nil {
		t.Fatal(err)
	}
	if d.Delivered {
		return ir.ActionSent, d.FastPath
	}
	return ir.ActionDropped, d.FastPath
}

// TestDeploymentEquivalenceAllMiddleboxes is the strongest equivalence
// check in the repository: random traffic through the REAL runtime — the
// switch pipeline with its tables, wire-format Gallium headers serialized
// and reparsed on every hop, the server partition, and the write-back
// synchronization protocol, on a timing-free testbed — must match the
// reference interpreter packet for packet and end in identical state.
func TestDeploymentEquivalenceAllMiddleboxes(t *testing.T) {
	names := []string{"minilb", "mazunat", "l4lb", "firewall", "proxy", "trojandetector"}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			prog, res := compileBox(t, name, partition.DefaultConstraints())
			ref := ir.NewState(prog)

			setup := func(st *ir.State) {
				middleboxes.ConfigureState(name, st)
				if name == "proxy" {
					middleboxes.RedirectPort(st, 80)
				}
				if name == "firewall" {
					rng := rand.New(rand.NewSource(3))
					for i := 0; i < 24; i++ {
						middleboxes.AllowFlow(st, randTuple(rng))
					}
				}
			}
			setup(ref)
			tb := deploy(t, res, engine.InstantModel(), setup)

			rng := rand.New(rand.NewSource(3))
			for i := 0; i < 2500; i++ {
				tup := randTuple(rng)
				flags := packet.TCPFlagACK
				switch rng.Intn(8) {
				case 0:
					flags = packet.TCPFlagSYN
				case 1:
					flags = packet.TCPFlagFIN | packet.TCPFlagACK
				}
				payloads := []string{"", "GET /x.zip HTTP/1.1", "data", "SSH-2.0"}
				var pktRef *packet.Packet
				if tup.Proto == packet.IPProtocolUDP {
					pktRef = packet.BuildUDP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort, []byte(payloads[rng.Intn(4)]))
				} else {
					pktRef = packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort,
						packet.TCPOptions{Flags: flags, Payload: []byte(payloads[rng.Intn(4)])})
				}
				pktDep := pktRef.Clone()

				rRef, err := prog.Exec(&ir.Env{State: ref, Pkt: pktRef})
				if err != nil {
					t.Fatalf("pkt %d: reference: %v", i, err)
				}
				action, _ := inject(t, tb, pktDep)
				if rRef.Action != action {
					t.Fatalf("pkt %d (%v): action ref=%v dep=%v", i, tup, rRef.Action, action)
				}
				if action == ir.ActionSent {
					for _, f := range []string{"ip.saddr", "ip.daddr", "l4.sport", "l4.dport"} {
						a, _ := pktRef.GetField(f)
						b, _ := pktDep.GetField(f)
						if a != b {
							t.Fatalf("pkt %d (%v): %s ref=%d dep=%d", i, tup, f, a, b)
						}
					}
					if pktDep.HasGallium {
						t.Fatalf("pkt %d: delivered packet still carries a gallium header", i)
					}
				}
			}
			if !ref.Equal(tb.ServerState()) {
				t.Fatal("final server state mismatch with reference")
			}
			// Switch table contents must mirror the server's replicated maps
			// once the last packet's write-back has flipped.
			tb.Due(0)
			for _, gn := range res.OffloadedGlobals {
				g := res.Prog.Global(gn)
				if g.Kind != ir.KindMap {
					continue
				}
				tbl, _ := tb.Switch().Table(gn)
				srv := ref.Table(gn)
				srv.Range(func(e int32) bool {
					got, ok := tbl.Lookup(srv.Key(e))
					if !ok || got[0] != srv.Vals(e)[0] {
						t.Fatalf("switch table %s out of sync at %v", gn, srv.Key(e))
					}
					return true
				})
				if tbl.Len() != srv.Len() {
					t.Fatalf("switch table %s has %d entries, server has %d", gn, tbl.Len(), srv.Len())
				}
			}
		})
	}
}

func randTuple(rng *rand.Rand) packet.FiveTuple {
	proto := packet.IPProtocolTCP
	if rng.Intn(5) == 0 {
		proto = packet.IPProtocolUDP
	}
	src := packet.MakeIPv4Addr(10, 0, 0, byte(1+rng.Intn(20)))
	dst := packet.MakeIPv4Addr(93, 184, 0, byte(rng.Intn(20)))
	if rng.Intn(3) == 0 {
		src, dst = dst, packet.MakeIPv4Addr(203, 0, 113, 1)
	}
	ports := []uint16{80, 22, 443, 6667, 8080}
	return packet.FiveTuple{
		SrcIP: src, DstIP: dst,
		SrcPort: uint16(1024 + rng.Intn(32)), DstPort: ports[rng.Intn(len(ports))],
		Proto: proto,
	}
}

func TestServerRecordsReplicatedUpdates(t *testing.T) {
	_, res := compileBox(t, "minilb", partition.DefaultConstraints())
	tb := deploy(t, res, engine.InstantModel(), func(st *ir.State) { middleboxes.ConfigureState("minilb", st) })
	pkt := packet.BuildTCP(packet.MakeIPv4Addr(1, 2, 3, 4), packet.MakeIPv4Addr(9, 9, 9, 9), 1, 80, packet.TCPOptions{})
	if _, fast := inject(t, tb, pkt); fast {
		t.Fatal("first packet of a connection must take the slow path")
	}
	if tb.Report().Stats.CtlOps == 0 {
		t.Fatal("server insert produced no write-back")
	}
	// The switch now has the entry: second packet is fast.
	pkt2 := packet.BuildTCP(packet.MakeIPv4Addr(1, 2, 3, 4), packet.MakeIPv4Addr(9, 9, 9, 9), 1, 80, packet.TCPOptions{})
	ops := tb.Report().Stats.CtlOps
	if _, fast := inject(t, tb, pkt2); !fast {
		t.Fatal("second packet should take the fast path after sync")
	}
	if tb.Report().Stats.CtlOps != ops {
		t.Error("fast path produced a write-back")
	}
}

func TestServerRejectsPacketWithoutHeader(t *testing.T) {
	_, res := compileBox(t, "minilb", partition.DefaultConstraints())
	pkt := packet.BuildTCP(1, 2, 3, 4, packet.TCPOptions{})
	if _, err := serverrt.New(res).Process(pkt); err == nil {
		t.Fatal("server must reject packets without gallium_a")
	}
}

// TestRunToCompletionCausality verifies §3.1 with delayed synchronization:
// a packet causally after p (released only once p's updates are synced)
// observes all of p's updates, while a packet racing the sync observes
// none — and in both cases each update batch is atomic.
func TestRunToCompletionCausality(t *testing.T) {
	_, res := compileBox(t, "mazunat", partition.DefaultConstraints())
	sw, srv := switchsim.New(res), serverrt.New(res)

	// p: first outbound packet of a connection (slow path, allocates a
	// port, updates fwd+rev+counter).
	p := packet.BuildTCP(packet.MakeIPv4Addr(10, 0, 0, 1), packet.MakeIPv4Addr(99, 0, 0, 1), 1234, 80, packet.TCPOptions{Flags: packet.TCPFlagSYN})
	pre, err := sw.ProcessPreShard(p, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Action != ir.ActionNext {
		t.Fatal("expected slow path")
	}
	rx, err := packet.DecodePacket(p.Serialize(), res.FormatA)
	if err != nil {
		t.Fatal(err)
	}
	srvRes, err := srv.Process(rx)
	if err != nil {
		t.Fatal(err)
	}
	// fwd+rev map inserts replicate; the port counter stays server-only
	// (its read-modify-write cannot split across the async write-back).
	if len(srvRes.Updates) != 2 {
		t.Fatalf("expected fwd+rev updates, got %d", len(srvRes.Updates))
	}
	for _, u := range srvRes.Updates {
		if u.Register != "" {
			t.Fatalf("register %q replicated despite server-side RMW", u.Register)
		}
	}
	// Stage but do NOT flip: a concurrent packet q of the same connection
	// must observe NONE of the updates (it re-takes the slow path).
	for _, u := range srvRes.Updates {
		if err := sw.StageShard(0, u); err != nil {
			t.Fatal(err)
		}
	}
	q := packet.BuildTCP(packet.MakeIPv4Addr(10, 0, 0, 1), packet.MakeIPv4Addr(99, 0, 0, 1), 1234, 80, packet.TCPOptions{})
	qPre, err := sw.ProcessPreShard(q, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if qPre.Action != ir.ActionNext {
		t.Fatal("racing packet observed staged (unflipped) state")
	}

	// Flip: p would now be released (output commit). A causally-later
	// packet observes ALL updates: fast path with the same translation.
	sw.FlipShard(0)
	q2 := packet.BuildTCP(packet.MakeIPv4Addr(10, 0, 0, 1), packet.MakeIPv4Addr(99, 0, 0, 1), 1234, 80, packet.TCPOptions{})
	q2Pre, err := sw.ProcessPreShard(q2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if q2Pre.Action != ir.ActionSent {
		t.Fatalf("causally-later packet action = %v, want fast-path sent", q2Pre.Action)
	}
	// Finish p's journey (server → switch post pass) to get its final
	// translation: the sport rewrite may execute on either side of the
	// split, so only the fully processed packet is comparable.
	back, err := packet.DecodePacket(rx.Serialize(), res.FormatB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.ProcessPostShard(back, 0, nil); err != nil {
		t.Fatal(err)
	}
	if q2.TCP.SrcPort != back.TCP.SrcPort {
		t.Errorf("translation mismatch: q2 port %d, p port %d", q2.TCP.SrcPort, back.TCP.SrcPort)
	}
}

// TestIPGatewayDeploymentEquivalence runs the LPM-based gateway through
// the full deployment (LPM tables load onto the switch at configure time).
func TestIPGatewayDeploymentEquivalence(t *testing.T) {
	prog, res := compileBox(t, "ipgateway", partition.DefaultConstraints())
	ref := ir.NewState(prog)
	setup := func(st *ir.State) { middleboxes.ConfigureState("ipgateway", st) }
	setup(ref)
	tb := deploy(t, res, engine.InstantModel(), setup)
	rng := rand.New(rand.NewSource(17))
	fast := 0
	for i := 0; i < 1500; i++ {
		dst := packet.MakeIPv4Addr(byte(rng.Intn(30)), byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(20)))
		pktRef := packet.BuildTCP(packet.MakeIPv4Addr(1, 1, 1, 1), dst, 5, 6, packet.TCPOptions{})
		pktDep := pktRef.Clone()
		rRef, err := prog.Exec(&ir.Env{State: ref, Pkt: pktRef})
		if err != nil {
			t.Fatal(err)
		}
		action, fastPath := inject(t, tb, pktDep)
		if rRef.Action != action {
			t.Fatalf("pkt %d: action ref=%v dep=%v", i, rRef.Action, action)
		}
		if action == ir.ActionSent && (pktRef.IP.DstIP != pktDep.IP.DstIP || pktRef.IP.TTL != pktDep.IP.TTL) {
			t.Fatalf("pkt %d: hop/ttl mismatch", i)
		}
		if fastPath {
			fast++
		}
	}
	if fast != 1500 {
		t.Errorf("fast path %d/1500; the gateway should never touch the server", fast)
	}
}

// TestServerSideLPM forces an LPM lookup onto the server (unannotated
// table has no P4 realization) and checks the recorder's read path.
func TestServerSideLPM(t *testing.T) {
	src := `
middlebox srvlpm {
    lpm<u32 -> u32> routes;
    proc process(pkt p) {
        let r = routes.lookup(p.ip.daddr);
        if (r.ok) {
            p.ip.daddr = r.v0;
            send(p);
        } else {
            drop(p);
        }
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
	if len(res.OffloadedGlobals) != 0 {
		t.Fatalf("unannotated lpm offloaded: %v", res.OffloadedGlobals)
	}
	tb := deploy(t, res, engine.InstantModel(), func(st *ir.State) {
		st.AddRoute("routes", uint64(packet.MakeIPv4Addr(10, 0, 0, 0)), 8, 42)
	})
	pkt := packet.BuildTCP(1, packet.MakeIPv4Addr(10, 1, 2, 3), 1, 2, packet.TCPOptions{})
	action, fast := inject(t, tb, pkt)
	if fast {
		t.Error("server-side lpm cannot be fast")
	}
	if action != ir.ActionSent || uint64(pkt.IP.DstIP) != 42 {
		t.Errorf("action=%v hop=%v", action, pkt.IP.DstIP)
	}
	miss := packet.BuildTCP(1, packet.MakeIPv4Addr(11, 1, 2, 3), 1, 2, packet.TCPOptions{})
	if action, _ := inject(t, tb, miss); action != ir.ActionDropped {
		t.Errorf("miss action = %v", action)
	}
}

// TestDeploymentReconfigureAtomicFlip drives the bare pair's hot-reconfig
// path: a whitelist swap staged through Reconfigure must take effect
// between two packets — the old rule serves the packet before the call,
// the new rule the packet after — on both the server state and the
// offloaded switch tables, in one flip.
func TestDeploymentReconfigureAtomicFlip(t *testing.T) {
	_, res := compileBox(t, "firewall", partition.DefaultConstraints())
	tupA := packet.FiveTuple{
		SrcIP: packet.MakeIPv4Addr(10, 0, 0, 1), DstIP: packet.MakeIPv4Addr(93, 184, 0, 7),
		SrcPort: 34000, DstPort: 80, Proto: packet.IPProtocolTCP,
	}
	tupB := tupA
	tupB.SrcIP = packet.MakeIPv4Addr(10, 0, 0, 2)
	tb := deploy(t, res, engine.InstantModel(), func(st *ir.State) { middleboxes.AllowFlow(st, tupA) })

	send := func(tup packet.FiveTuple) ir.Action {
		t.Helper()
		pkt := packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort,
			packet.TCPOptions{Flags: packet.TCPFlagACK})
		action, _ := inject(t, tb, pkt)
		return action
	}

	if got := send(tupA); got != ir.ActionSent {
		t.Fatalf("pre-reconfig: whitelisted flow A got %v, want sent", got)
	}
	if got := send(tupB); got == ir.ActionSent {
		t.Fatal("pre-reconfig: flow B passed before it was whitelisted")
	}

	keyA := ir.MakeMapKey(uint64(tupA.SrcIP), uint64(tupA.DstIP), uint64(tupA.SrcPort), uint64(tupA.DstPort), uint64(tupA.Proto))
	keyB := ir.MakeMapKey(uint64(tupB.SrcIP), uint64(tupB.DstIP), uint64(tupB.SrcPort), uint64(tupB.DstPort), uint64(tupB.Proto))
	mutate := func(_ int, st *ir.State) []switchsim.Update {
		st.MapRemove("wl_out", keyA)
		middleboxes.AllowFlow(st, tupB)
		return nil
	}
	updates := []switchsim.Update{
		{Table: "wl_out", Key: keyB, Vals: []uint64{1}},
		{Table: "wl_out", Key: keyA, Delete: true},
	}
	if err := tb.Reconfigure(engine.Reconfig{Mutate: mutate, Updates: updates}); err != nil {
		t.Fatal(err)
	}

	if got := send(tupB); got != ir.ActionSent {
		t.Fatalf("post-reconfig: whitelisted flow B got %v, want sent", got)
	}
	if got := send(tupA); got == ir.ActionSent {
		t.Fatal("post-reconfig: flow A still passes after its rule was removed")
	}
	if got := tb.Switch().Stats().Reconfigs; got != 1 {
		t.Fatalf("switch counted %d reconfigs, want 1", got)
	}
}

// TestMissingTransferFieldTouchesNoPacket hands the runtimes a Result
// whose TransferA names a variable FormatA lacks (l4lb's, whose pre pass
// sends a new flow's SYN to the server unmodified). Neither the switch's
// pre pass nor the server may read or write the header's data area for
// it: each fails on the first packet that carries the header and leaves
// the packet's bytes as they were.
func TestMissingTransferFieldTouchesNoPacket(t *testing.T) {
	_, res := compileBox(t, "l4lb", partition.DefaultConstraints())
	bad := *res
	bad.TransferA = append(slices.Clone(res.TransferA), partition.TransferVar{Name: "ghost", Bits: 8, Slot: 1})
	if _, err := partition.XferCodec(bad.TransferA, bad.FormatA, bad.NumXferSlots); err == nil {
		t.Fatal("XferCodec accepted a variable its format lacks")
	}
	syn := func() *packet.Packet {
		return packet.BuildTCP(packet.MakeIPv4Addr(10, 0, 0, 1), packet.MakeIPv4Addr(93, 184, 216, 34),
			40000, 443, packet.TCPOptions{Flags: packet.TCPFlagSYN})
	}

	pkt := syn()
	before := pkt.Serialize()
	if _, err := switchsim.New(&bad).NewPass(0).Pre(pkt, nil); err == nil {
		t.Fatal("Pre packed a header with a variable its format lacks")
	}
	if after := pkt.Serialize(); !bytes.Equal(after, before) || pkt.HasGallium {
		t.Fatalf("Pre changed the packet:\n got %x\nwant %x", after, before)
	}

	pkt = syn()
	r, err := switchsim.New(res).NewPass(0).Pre(pkt, nil)
	if err != nil || r.Action != ir.ActionNext || !pkt.HasGallium {
		t.Fatalf("sound pre pass: %+v, gallium %v, %v", r, pkt.HasGallium, err)
	}
	before = pkt.Serialize()
	if _, err := serverrt.New(&bad).Process(pkt); err == nil {
		t.Fatal("Process unpacked a header with a variable its format lacks")
	}
	if after := pkt.Serialize(); !bytes.Equal(after, before) || !pkt.HasGallium {
		t.Fatalf("Process changed the packet:\n got %x\nwant %x", after, before)
	}
}

// TestRecycleReusesUpdates: a Result's Updates outlive every later
// Process until the caller recycles them — a caller may collect many
// packets' batches before staging any — and after Recycle the next packet
// records into the same update list and value arena.
func TestRecycleReusesUpdates(t *testing.T) {
	_, res := compileBox(t, "mazunat", partition.DefaultConstraints())
	sw, srv := switchsim.New(res), serverrt.New(res)
	newFlow := func(i int) serverrt.Result {
		t.Helper()
		p := packet.BuildTCP(packet.MakeIPv4Addr(10, 0, 0, byte(i)), packet.MakeIPv4Addr(99, 0, 0, 1), 1234, 80, packet.TCPOptions{Flags: packet.TCPFlagSYN})
		if pre, err := sw.ProcessPreShard(p, 0, nil); err != nil || pre.Action != ir.ActionNext {
			t.Fatalf("flow %d: pre-pass %v, %v; want the slow path", i, pre.Action, err)
		}
		r, err := srv.Process(p)
		if err != nil || len(r.Updates) != 2 {
			t.Fatalf("flow %d: %d updates, %v; want its two inserts", i, len(r.Updates), err)
		}
		return r
	}
	// fwd is flow i's nat_fwd insert: its key's source is 10.0.0.i.
	fwd := func(r serverrt.Result) switchsim.Update {
		for _, u := range r.Updates {
			if u.Table == "nat_fwd" {
				return u
			}
		}
		t.Fatal("no nat_fwd insert")
		return switchsim.Update{}
	}
	kept := []serverrt.Result{newFlow(1), newFlow(2), newFlow(3)}
	for i, r := range kept {
		if u := fwd(r); u.Key.K[0] != uint64(packet.MakeIPv4Addr(10, 0, 0, byte(i+1))) || u.Vals[0] != uint64(i) {
			t.Errorf("kept result %d now holds %v -> %v", i+1, u.Key, u.Vals)
		}
	}
	srv.Recycle()
	r := newFlow(4)
	if &r.Updates[0] != &kept[2].Updates[0] || &fwd(r).Vals[0] != &fwd(kept[2]).Vals[0] {
		t.Error("the packet after Recycle did not record into the recycled update list and arena")
	}
	if &kept[1].Updates[0] == &kept[2].Updates[0] {
		t.Error("an unrecycled result's update list was reused")
	}
}
