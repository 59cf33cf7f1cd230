package netsim

import (
	"math"
	"testing"

	"gallium/internal/packet"
)

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
