package eval

import (
	"fmt"
	"math"
	"testing"

	"gallium"
	"gallium/internal/engine"
	"gallium/internal/ir"
	"gallium/internal/middleboxes"
	"gallium/internal/packet"
)

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

// TestFluidMatchesPacketLevel cross-validates the two simulation engines:
// an uncontended flow driven packet by packet through the testbed must
// complete in about the time the fluid engine predicts from the same
// measured parameters.
func TestFluidMatchesPacketLevel(t *testing.T) {
	c, err := CompileOne("minilb")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := c.NewTestbed(gallium.TestbedConfig{Setup: func(st *ir.State) { middleboxes.ConfigureState("minilb", st) }})
	if err != nil {
		t.Fatal(err)
	}
	tup := packet.FiveTuple{
		SrcIP: packet.MakeIPv4Addr(1, 2, 3, 4), DstIP: packet.MakeIPv4Addr(9, 9, 9, 9),
		SrcPort: 1000, DstPort: 80, Proto: packet.IPProtocolTCP,
	}
	m := engine.DefaultModel()
	fc := DefaultFluidConfig()
	const size = 3_000_000 // 3 MB
	got, err := driveFlow(tb, m, fc, tup, size)
	if err != nil {
		t.Fatal(err)
	}

	// Fluid prediction with the same parameters: the SYN pays the sync
	// stall (~135 µs + slow path), data rides the fast path at ~16 µs RTT
	// and drains at line rate.
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

// drivenFlow reports one flow driveFlow sent.
type drivenFlow struct {
	FCTNs   int64
	Packets int
	Rounds  int
}

// driveFlow sends one TCP flow of size bytes, starting at time 0, through
// the packet-level testbed (whose cost model is m) with slow-start
// windowing: each round sends a window of fc.MSS-sized segments back to
// back, then waits one RTT (forward delivery plus the reverse path) before
// doubling the window, from fc.InitWindow. It returns when the last
// segment is delivered. The reverse (ACK) path is approximated as the
// forward fast-path latency: ACKs cross the same switch but skip the
// middlebox server. For an uncontended flow the fluid engine must predict
// about the same completion time.
func driveFlow(tb *gallium.Testbed, m engine.CostModel, fc FluidConfig, tup packet.FiveTuple, size int64) (drivenFlow, error) {
	reverseNs := int64(2*m.EndpointStackNs + 2*m.LinkPropNs + m.SwitchPipelineNs +
		m.SerializationNs(64))

	res := drivenFlow{}
	remaining := int((size + int64(fc.MSS) - 1) / int64(fc.MSS))
	if remaining == 0 {
		remaining = 1
	}

	// SYN establishes middlebox state (and pays any synchronization
	// stall under output commit).
	syn := packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort, packet.TCPOptions{Flags: packet.TCPFlagSYN})
	d, err := tb.Inject(0, syn)
	if err != nil {
		return res, err
	}
	if !d.Delivered {
		return res, fmt.Errorf("SYN not delivered")
	}
	res.Packets++
	// Handshake completes one reverse trip later.
	t := d.DeliverNs + reverseNs

	w := fc.InitWindow
	lastDeliver := d.DeliverNs
	var seq uint32
	for remaining > 0 {
		res.Rounds++
		burst := min(w, remaining)
		sendAt := t
		for i := 0; i < burst; i++ {
			p := packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort,
				packet.TCPOptions{Flags: packet.TCPFlagACK, Seq: seq})
			p.PadTo(fc.MSS + 54)
			d, err := tb.Inject(sendAt, p)
			if err != nil {
				return res, err
			}
			if d.Delivered {
				lastDeliver = max(lastDeliver, d.DeliverNs)
				res.Packets++
			}
			seq += uint32(fc.MSS)
			// Back-to-back at the sender's line rate.
			sendAt += int64(m.SerializationNs(fc.MSS + 54))
		}
		remaining -= burst
		// The next round starts when the last ACK returns.
		t = lastDeliver + reverseNs
		w *= 2
	}
	res.FCTNs = lastDeliver + reverseNs
	return res, nil
}
