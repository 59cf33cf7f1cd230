package engine

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
