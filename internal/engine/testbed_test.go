package engine

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"weak"

	"gallium/internal/ir"
	"gallium/internal/lang"
	"gallium/internal/middleboxes"
	"gallium/internal/packet"
	"gallium/internal/partition"
	"gallium/internal/switchsim"
)

func buildTestbed(t *testing.T, name string, mode Mode, cores int) *Testbed {
	t.Helper()
	_, res := compileMB(t, name)
	setup := func(_ int, st *ir.State) { middleboxes.ConfigureState(name, st) }
	tb, err := NewTestbed(Config{Mode: mode, Workers: cores, Stages: oneStage(res, setup)})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestLatencyFastVsSlowPath(t *testing.T) {
	tb := buildTestbed(t, "minilb", Offloaded, 1)

	// First packet: slow path (miss), includes the sync stall.
	p1 := packet.BuildTCP(packet.MakeIPv4Addr(1, 2, 3, 4), packet.MakeIPv4Addr(9, 9, 9, 9), 1000, 80, packet.TCPOptions{Flags: packet.TCPFlagSYN})
	d1, err := tb.Inject(0, p1)
	if err != nil {
		t.Fatal(err)
	}
	if !d1.Delivered || d1.FastPath {
		t.Fatalf("first packet: %+v, want slow-path delivery", d1)
	}
	// Output commit: the slow packet waits for the 1-entry sync (~135 µs).
	if d1.LatencyNs < 130_000 {
		t.Errorf("slow-path latency %d ns should include the sync stall", d1.LatencyNs)
	}

	// After the sync, the same connection takes the fast path.
	p2 := packet.BuildTCP(packet.MakeIPv4Addr(1, 2, 3, 4), packet.MakeIPv4Addr(9, 9, 9, 9), 1000, 80, packet.TCPOptions{})
	d2, err := tb.Inject(400_000, p2)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.FastPath {
		t.Fatal("second packet should be fast after sync")
	}
	// Fast-path latency ≈ Table 2's Gallium numbers (±1 µs).
	if d2.LatencyNs < 14_000 || d2.LatencyNs > 18_000 {
		t.Errorf("fast-path latency = %.1f µs, want ≈ 16 µs", float64(d2.LatencyNs)/1000)
	}
}

func TestSoftwareLatencyMatchesTable2(t *testing.T) {
	tb := buildTestbed(t, "minilb", Software, 1)
	// Warm the connection table first.
	p0 := packet.BuildTCP(packet.MakeIPv4Addr(1, 2, 3, 4), packet.MakeIPv4Addr(9, 9, 9, 9), 1000, 80, packet.TCPOptions{Flags: packet.TCPFlagSYN})
	if _, err := tb.Inject(0, p0); err != nil {
		t.Fatal(err)
	}
	p := packet.BuildTCP(packet.MakeIPv4Addr(1, 2, 3, 4), packet.MakeIPv4Addr(9, 9, 9, 9), 1000, 80, packet.TCPOptions{})
	d, err := tb.Inject(1_000_000, p)
	if err != nil {
		t.Fatal(err)
	}
	// FastClick latencies in Table 2 cluster at 22-23 µs.
	if d.LatencyNs < 20_000 || d.LatencyNs > 26_000 {
		t.Errorf("software latency = %.1f µs, want ≈ 22-23 µs", float64(d.LatencyNs)/1000)
	}
}

func TestServerQueueSaturation(t *testing.T) {
	// Offer far more than one software core can process; the queue must
	// overflow and the delivered rate must settle at the core's capacity.
	tb := buildTestbed(t, "minilb", Software, 1)
	m := DefaultModel()
	pktSize := 200
	offered := 5e6 // 5 Mpps at ~1.4k cycles/pkt >> 1 core
	interval := 1e9 / offered
	n := 30000
	// Warm one connection so processing is uniform fast-hit work.
	for i := 0; i < n; i++ {
		p := packet.BuildTCP(packet.MakeIPv4Addr(1, 2, 3, 4), packet.MakeIPv4Addr(9, 9, 9, 9), 1000, 80, packet.TCPOptions{})
		p.PadTo(pktSize)
		if _, err := tb.Inject(int64(float64(i)*interval), p); err != nil {
			t.Fatal(err)
		}
	}
	st := tb.Report().Stats
	if st.QueueDrops == 0 {
		t.Fatal("no queue drops under overload")
	}
	// Delivered pps should sit at the single-core service rate, which we
	// derive from the measured per-packet cycles.
	durS := float64(st.LastDeliverNs-st.FirstDeliverNs) / 1e9
	deliveredPps := float64(st.Delivered) / durS
	avgCycles := st.ServerCycles / float64(st.SlowPath)
	capacityPps := m.CoreHz / avgCycles
	if deliveredPps > capacityPps*1.15 || deliveredPps < capacityPps*0.7 {
		t.Errorf("delivered %.2f Mpps, single-core capacity ≈ %.2f Mpps", deliveredPps/1e6, capacityPps/1e6)
	}
}

func TestMultiCoreScaling(t *testing.T) {
	// Same overload, 4 cores: should deliver roughly 4x the packets of 1
	// core (many flows spread across cores via RSS).
	run := func(cores int) int {
		tb := buildTestbed(t, "firewall", Software, cores)
		// Allow all generated flows.
		setup := tb.ServerState()
		interval := 1e9 / 14e6 // well above 4-core capacity
		n := 20000
		for i := 0; i < n; i++ {
			sport := uint16(1000 + i%64)
			src := packet.MakeIPv4Addr(10, 0, 0, byte(1+i%32))
			tup := packet.FiveTuple{SrcIP: src, DstIP: packet.MakeIPv4Addr(9, 9, 9, 9), SrcPort: sport, DstPort: 80, Proto: packet.IPProtocolTCP}
			middleboxes.AllowFlow(setup, tup)
			p := packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort, packet.TCPOptions{})
			p.PadTo(200)
			if _, err := tb.Inject(int64(float64(i)*interval), p); err != nil {
				t.Fatal(err)
			}
		}
		return tb.Report().Stats.Delivered
	}
	d1 := run(1)
	d4 := run(4)
	ratio := float64(d4) / float64(d1)
	if ratio < 2.5 || ratio > 4.6 {
		t.Errorf("4-core/1-core delivered ratio = %.2f, want ≈ 4 (RSS imbalance allowed)", ratio)
	}
}

func TestOffloadedSkipsServer(t *testing.T) {
	tb := buildTestbed(t, "proxy", Offloaded, 1)
	// Proxy forwards unregistered ports entirely on the switch.
	for i := 0; i < 100; i++ {
		p := packet.BuildTCP(packet.MakeIPv4Addr(1, 1, 1, 1), packet.MakeIPv4Addr(2, 2, 2, 2), uint16(1000+i), 22, packet.TCPOptions{})
		if _, err := tb.Inject(int64(i)*10_000, p); err != nil {
			t.Fatal(err)
		}
	}
	st := tb.Report().Stats
	if st.FastPath != 100 || st.SlowPath != 0 {
		t.Errorf("stats = %+v, want 100%% fast path", st)
	}
	if st.ServerCycles != 0 {
		t.Errorf("server cycles = %f, want 0", st.ServerCycles)
	}
}

func TestCacheModePuntsInTestbed(t *testing.T) {
	spec, err := middleboxes.Lookup("minilb")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.Compile(spec.Source)
	if err != nil {
		t.Fatal(err)
	}
	c := partition.DefaultConstraints()
	c.CacheEntries = map[string]int{"conn": 8}
	res, err := partition.Partition(prog, c)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewTestbed(Config{Stages: oneStage(res, func(_ int, st *ir.State) { middleboxes.ConfigureState("minilb", st) })})
	if err != nil {
		t.Fatal(err)
	}
	// One connection: first packet punts (cold cache) but must NOT stall
	// on synchronization — the conn insert and the read-through fill are
	// both cache fills.
	mk := func() *packet.Packet {
		return packet.BuildTCP(packet.MakeIPv4Addr(1, 2, 3, 4), packet.MakeIPv4Addr(9, 9, 9, 9), 7, 80, packet.TCPOptions{})
	}
	d1, err := tb.Inject(0, mk())
	if err != nil {
		t.Fatal(err)
	}
	if d1.FastPath {
		t.Fatal("cold cache cannot be fast")
	}
	if d1.LatencyNs > 100_000 {
		t.Errorf("punted packet stalled %.0f µs; cache fills must not output-commit", float64(d1.LatencyNs)/1000)
	}
	// After the fill propagates (~135 µs control-plane latency), the
	// connection is switch-resident.
	d2, err := tb.Inject(400_000, mk())
	if err != nil {
		t.Fatal(err)
	}
	if !d2.FastPath {
		t.Fatal("warmed cache should serve the second packet")
	}
	st := tb.Report().Stats
	if st.SlowPath != 1 {
		t.Errorf("slow path count = %d, want 1", st.SlowPath)
	}
}

func TestTableOverflowDegradesGracefully(t *testing.T) {
	// A 4-entry connection table with 40 concurrent connections: the
	// switch fills up, further inserts are rejected, and the overflow
	// connections simply keep taking the slow path — no failures.
	src := `
middlebox tiny {
    map<u32,u16 -> u8> conns(max = 4);
    proc process(pkt p) {
        let c = conns.find(p.ip.saddr, p.tcp.sport);
        if (c.ok) {
            send(p);
        } else {
            conns.insert(p.ip.saddr, p.tcp.sport, 1);
            send(p);
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
	tb, err := NewTestbed(Config{Stages: oneStage(res, nil)})
	if err != nil {
		t.Fatal(err)
	}
	tNs := int64(0)
	for round := 0; round < 3; round++ {
		for i := 0; i < 40; i++ {
			p := packet.BuildTCP(packet.IPv4Addr(i), 2, uint16(i), 80, packet.TCPOptions{})
			d, err := tb.Inject(tNs, p)
			if err != nil {
				t.Fatalf("round %d conn %d: %v", round, i, err)
			}
			if !d.Delivered {
				t.Fatalf("round %d conn %d not delivered", round, i)
			}
			tNs += 500_000
		}
	}
	st := tb.Report().Stats
	if st.CtlRejected == 0 {
		t.Error("no control-plane rejections despite a 4-entry table and 40 connections")
	}
	if n := tb.Switch().Stats().TableEntries["conns"]; n > 4 {
		t.Errorf("switch table exceeded capacity: %d", n)
	}
	// The four resident connections should be fast by round 2+.
	if st.FastPath == 0 {
		t.Error("resident connections never took the fast path")
	}
}

// TestTestbedOutOfOrderInjectionRejected: the testbed refuses an Inject
// whose time runs backwards.
func TestTestbedOutOfOrderInjectionRejected(t *testing.T) {
	tb := buildTestbed(t, "minilb", Offloaded, 1)
	p := packet.BuildTCP(1, 2, 3, 4, packet.TCPOptions{})
	if _, err := tb.Inject(100, p.Clone()); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Inject(50, p.Clone()); err == nil {
		t.Fatal("want error for out-of-order injection")
	}
}

func TestModeZeroDefaultsToOffloaded(t *testing.T) {
	// A zero-Mode config (e.g. built from TestbedConfig{}) must run the
	// offloaded deployment, even though Mode(0) itself is "unset".
	_, res := compileMB(t, "firewall")
	tb, err := NewTestbed(Config{Stages: oneStage(res, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Switch() == nil {
		t.Fatal("zero Mode did not build the offloaded deployment")
	}
	if _, err := NewTestbed(Config{Mode: Mode(7), Stages: oneStage(res, nil)}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestSlowPathPacketPinsNoFrame: a packet that took the slow path leaves
// Inject decoded in place from its last hop's frame, which the walker
// reuses. It may hold its own Payload and GalData and nothing else:
// any other byte slice reachable from it would be that frame, kept alive
// for as long as the caller keeps the packet.
func TestSlowPathPacketPinsNoFrame(t *testing.T) {
	tb := buildTestbed(t, "minilb", Offloaded, 1)
	pkt := packet.BuildTCP(packet.MakeIPv4Addr(1, 2, 3, 4), packet.MakeIPv4Addr(9, 9, 9, 9), 1000, 80,
		packet.TCPOptions{Flags: packet.TCPFlagSYN, Payload: make([]byte, 64)})
	d, err := tb.Inject(0, pkt)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Delivered || d.FastPath {
		t.Fatalf("delivery %+v, want a slow-path delivery", d)
	}
	var frames []weak.Pointer[byte]
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Slice:
			if path != ".Payload" && path != ".GalData" && v.Cap() > 0 {
				frames = append(frames, weak.Make((*byte)(v.UnsafePointer())))
			}
		}
	}
	walk(reflect.ValueOf(pkt).Elem(), "")
	runtime.GC()
	for _, f := range frames {
		if f.Value() != nil {
			t.Fatal("the packet keeps a frame of the slow path's hops alive")
		}
	}
	runtime.KeepAlive(pkt)
}

// TestReconfigureFailedBatchUnstaged: a reconfiguration whose batch fails
// to stage part way leaves nothing pending (§4.3.3: a batch is visible
// whole or not at all). The valid insert staged ahead of the bad one must
// not ride the next write-back's flip.
func TestReconfigureFailedBatchUnstaged(t *testing.T) {
	_, res := compileMB(t, "mazunat")
	tb, err := NewTestbed(Config{Stages: oneStage(res, func(_ int, st *ir.State) { middleboxes.ConfigureState("mazunat", st) })})
	if err != nil {
		t.Fatal(err)
	}
	valid := ir.MakeMapKey(uint64(packet.MakeIPv4Addr(10, 9, 9, 9)), 7777)
	err = tb.Reconfigure(Reconfig{Updates: []switchsim.Update{
		{Table: "nat_fwd", Key: valid, Vals: []uint64{40000}},
		{Table: "nat_fwd", Key: ir.MakeMapKey(uint64(packet.MakeIPv4Addr(10, 9, 9, 8)), 7777), Vals: []uint64{40001, 1}},
	}})
	if err == nil {
		t.Fatal("a wrong-arity insert was staged")
	}
	// A new flow's SYN stages its own write-back; Due flips the lane.
	syn := packet.BuildTCP(packet.MakeIPv4Addr(10, 0, 0, 1), packet.MakeIPv4Addr(9, 9, 9, 9), 1234, 80,
		packet.TCPOptions{Flags: packet.TCPFlagSYN})
	if d, err := tb.Inject(0, syn); err != nil || !d.Delivered || d.FastPath {
		t.Fatalf("new flow: %+v, %v (want a slow-path delivery)", d, err)
	}
	tb.Due(math.MaxInt64)
	fwd, _ := tb.Switch().Table("nat_fwd")
	if _, ok := fwd.Lookup(ir.MakeMapKey(uint64(packet.MakeIPv4Addr(10, 0, 0, 1)), 1234)); !ok {
		t.Fatal("the SYN's write-back never flipped")
	}
	if _, ok := fwd.Lookup(valid); ok {
		t.Fatal("the failed batch's valid insert became visible with the next flip")
	}
	if rep := tb.Report(); rep.Reconfigs != 0 || rep.Stats.CtlOps != 2 {
		t.Errorf("after the refused batch: %d reconfigs, %d ops staged; want 0 and the SYN's 2", rep.Reconfigs, rep.Stats.CtlOps)
	}
}
