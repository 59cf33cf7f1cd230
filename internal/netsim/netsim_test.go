package netsim

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
)

func buildTestbed(t *testing.T, name string, mode Mode, cores int) *Testbed {
	t.Helper()
	spec, err := middleboxes.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.Compile(spec.Source)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Model: DefaultModel(),
		Mode:  mode,
		Cores: cores,
		Prog:  prog,
		Setup: func(st *ir.State) { middleboxes.ConfigureState(name, st) },
	}
	if mode == Offloaded {
		res, err := partition.Partition(prog, partition.DefaultConstraints())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Res = res
	}
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestCostModelCtlBatchMatchesTable3(t *testing.T) {
	m := DefaultModel()
	cases := []struct {
		n      int
		wantUs float64
		tolUs  float64
	}{
		{1, 135, 25}, // Table 3: 135.2 ± 22.0 µs
		{2, 270, 35}, // 270.1 ± 33.0
		{4, 371, 40}, // 371.0 ± 39.2
	}
	for _, c := range cases {
		got := m.CtlBatchNs(c.n) / 1000
		if math.Abs(got-c.wantUs) > c.tolUs {
			t.Errorf("CtlBatch(%d) = %.1f µs, want %.1f ± %.1f", c.n, got, c.wantUs, c.tolUs)
		}
	}
	if m.CtlBatchNs(0) != 0 {
		t.Error("empty batch must be free")
	}
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

func TestOutOfOrderInjectionRejected(t *testing.T) {
	tb := buildTestbed(t, "minilb", Offloaded, 1)
	p := packet.BuildTCP(1, 2, 3, 4, packet.TCPOptions{})
	if _, err := tb.Inject(100, p.Clone()); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Inject(50, p.Clone()); err == nil {
		t.Fatal("want error for out-of-order injection")
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
	st := tb.Stats()
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
		return tb.Stats().Delivered
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
	st := tb.Stats()
	if st.FastPath != 100 || st.SlowPath != 0 {
		t.Errorf("stats = %+v, want 100%% fast path", st)
	}
	if st.ServerCycles != 0 {
		t.Errorf("server cycles = %f, want 0", st.ServerCycles)
	}
}

func TestFluidProcessorSharing(t *testing.T) {
	cfg := DefaultFluidConfig()
	cfg.Workers = 2
	cfg.BottleneckBps = 8e9 // 1 GB/s
	cfg.RTTNs = 0
	cfg.SetupNs = 0
	cfg.MaxRounds = 0
	// Two equal flows sharing 1 GB/s: each runs at 500 MB/s, both finish
	// at 2 ms (1 MB each).
	flows := [][]int64{{1_000_000}, {1_000_000}}
	st, err := RunFluid(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Records) != 2 {
		t.Fatalf("records = %d", len(st.Records))
	}
	for _, r := range st.Records {
		if math.Abs(float64(r.FCTNs)-2e6) > 1e3 {
			t.Errorf("FCT = %d ns, want ≈ 2 ms", r.FCTNs)
		}
	}
	if math.Abs(st.ThroughputBps()-8e9) > 1e8 {
		t.Errorf("throughput = %.2g, want 8e9", st.ThroughputBps())
	}
}

func TestFluidShortVsLongFlow(t *testing.T) {
	cfg := DefaultFluidConfig()
	cfg.Workers = 2
	cfg.BottleneckBps = 8e9
	cfg.RTTNs = 0
	cfg.SetupNs = 0
	cfg.MaxRounds = 0
	flows := [][]int64{{100_000}, {10_000_000}}
	st, err := RunFluid(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	// Short flow: shares until it completes at 2×100KB/1GBps = 200 µs.
	// Long flow: 200 µs of half rate + remaining 9.9 MB at full rate.
	var short, long FlowRecord
	for _, r := range st.Records {
		if r.Size == 100_000 {
			short = r
		} else {
			long = r
		}
	}
	if math.Abs(float64(short.FCTNs)-200e3) > 2e3 {
		t.Errorf("short FCT = %d, want ≈ 200 µs", short.FCTNs)
	}
	wantLong := 200e3 + (10e6-100e3)/1.0e0/1e0 // remaining bytes at 1 GB/s => ns
	wantLong = 200e3 + (10e6-100e3)/1.0        // bytes / (1 byte/ns)
	if math.Abs(float64(long.FCTNs)-wantLong) > 1e4 {
		t.Errorf("long FCT = %d, want ≈ %.0f", long.FCTNs, wantLong)
	}
}

func TestFluidSetupDelaysThroughput(t *testing.T) {
	// Many small flows with setup cost: throughput collapses vs no setup.
	sizes := make([]int64, 2000)
	for i := range sizes {
		sizes[i] = 10_000
	}
	mk := func(setup float64) float64 {
		cfg := DefaultFluidConfig()
		cfg.Workers = 10
		cfg.BottleneckBps = 100e9
		cfg.SetupNs = setup
		cfg.RTTNs = 16_000
		flows := make([][]int64, 10)
		for i, s := range sizes {
			flows[i%10] = append(flows[i%10], s)
		}
		st, err := RunFluid(cfg, flows)
		if err != nil {
			t.Fatal(err)
		}
		return st.ThroughputBps()
	}
	with := mk(300_000)
	without := mk(0)
	if with >= without {
		t.Errorf("setup cost did not reduce throughput: %.2g vs %.2g", with, without)
	}
}

func TestBinFCT(t *testing.T) {
	records := []FlowRecord{
		{Size: 50_000, FCTNs: 100},
		{Size: 50_000, FCTNs: 300},
		{Size: 1_000_000, FCTNs: 1000},
		{Size: 50_000_000, FCTNs: 9000},
	}
	avg, counts := BinFCT(records)
	if counts[0] != 2 || counts[1] != 1 || counts[2] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if avg[0] != 200 || avg[1] != 1000 || avg[2] != 9000 {
		t.Errorf("avgs = %v", avg)
	}
}

func TestSlowStartRounds(t *testing.T) {
	cfg := DefaultFluidConfig()
	if r := cfg.slowStartRounds(1000); r != 1 {
		t.Errorf("1 KB: rounds = %d, want 1", r)
	}
	if r := cfg.slowStartRounds(15 * 1460); r != 2 {
		t.Errorf("15 pkts: rounds = %d, want 2 (10 then 20)", r)
	}
	small := cfg.slowStartRounds(100_000)
	big := cfg.slowStartRounds(100_000_000)
	if small >= big && big != cfg.MaxRounds {
		t.Errorf("rounds not monotone: %d vs %d", small, big)
	}
	if big > cfg.MaxRounds {
		t.Errorf("rounds exceed cap: %d", big)
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
	tb, err := NewTestbed(Config{
		Model: DefaultModel(), Mode: Offloaded, Cores: 1, Res: res, Prog: prog,
		Setup: func(st *ir.State) { middleboxes.ConfigureState("minilb", st) },
	})
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
	st := tb.Stats()
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
	tb, err := NewTestbed(Config{Model: DefaultModel(), Mode: Offloaded, Cores: 1, Res: res, Prog: prog})
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
	st := tb.Stats()
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

// TestFluidMatchesPacketLevel cross-validates the two simulation engines:
// an uncontended flow driven packet by packet through the testbed must
// complete in about the time the fluid engine predicts from the same
// measured parameters.
func TestFluidMatchesPacketLevel(t *testing.T) {
	tb := buildTestbed(t, "minilb", Offloaded, 1)
	tup := packet.FiveTuple{
		SrcIP: packet.MakeIPv4Addr(1, 2, 3, 4), DstIP: packet.MakeIPv4Addr(9, 9, 9, 9),
		SrcPort: 1000, DstPort: 80, Proto: packet.IPProtocolTCP,
	}
	drv := &FlowDriver{TB: tb, MSS: 1460, InitWindow: 10}
	const size = 3_000_000 // 3 MB
	got, err := drv.Run(0, tup, size)
	if err != nil {
		t.Fatal(err)
	}

	// Fluid prediction with the same parameters: the SYN pays the sync
	// stall (~135 µs + slow path), data rides the fast path at ~16 µs RTT
	// and drains at line rate.
	m := DefaultModel()
	fc := DefaultFluidConfig()
	fc.Workers = 1
	fc.BottleneckBps = m.LineRateBps
	fc.SetupNs = 135_000 + 25_000 // sync + slow-path first packet
	fc.RTTNs = 32_000             // ~2x one-way fast path
	fl, err := RunFluid(fc, [][]int64{{size}})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(fl.Records[0].FCTNs)
	have := float64(got.FCTNs)
	ratio := have / want
	t.Logf("packet-level FCT = %.0f µs, fluid FCT = %.0f µs (ratio %.2f, %d packets, %d rounds)",
		have/1000, want/1000, ratio, got.Packets, got.Rounds)
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("engines disagree by %.2fx", ratio)
	}
}

func TestModeZeroDefaultsToOffloaded(t *testing.T) {
	// A zero-Mode config (e.g. built from TestbedConfig{}) must run the
	// offloaded deployment, even though Mode(0) itself is "unset".
	spec, err := middleboxes.Lookup("firewall")
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
	tb, err := NewTestbed(Config{Model: DefaultModel(), Res: res, Prog: prog})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Switch() == nil {
		t.Fatal("zero Mode did not build the offloaded deployment")
	}
	if _, err := NewTestbed(Config{Model: DefaultModel(), Mode: Mode(7), Res: res, Prog: prog}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestRSSShardSymmetricAndBounded(t *testing.T) {
	fwd := packet.BuildTCP(packet.MakeIPv4Addr(10, 0, 0, 1), packet.MakeIPv4Addr(20, 0, 0, 2), 1234, 80, packet.TCPOptions{})
	rev := packet.BuildTCP(packet.MakeIPv4Addr(20, 0, 0, 2), packet.MakeIPv4Addr(10, 0, 0, 1), 80, 1234, packet.TCPOptions{})
	for _, n := range []int{1, 2, 4, 8} {
		f, r := RSSShard(fwd, n), RSSShard(rev, n)
		if f != r {
			t.Errorf("n=%d: directions land on different shards (%d vs %d)", n, f, r)
		}
		if f < 0 || f >= n {
			t.Errorf("n=%d: shard %d out of range", n, f)
		}
	}
	if got := RSSShard(fwd, 0); got != 0 {
		t.Errorf("RSSShard(_, 0) = %d, want 0", got)
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
