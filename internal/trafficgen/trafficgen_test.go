package trafficgen

import (
	"math/rand"
	"testing"

	"gallium/internal/engine"
	"gallium/internal/packet"
)

func TestDistributionsShape(t *testing.T) {
	for _, d := range []FlowSizeDist{Enterprise(), DataMining()} {
		rng := rand.New(rand.NewSource(1))
		n := 50000
		small := 0
		var total float64
		for i := 0; i < n; i++ {
			s := d.Sample(rng)
			if s < 100 || s > 2_000_000_000 {
				t.Fatalf("%s: size %d out of range", d.Name, s)
			}
			if s <= 15_000 { // ≈ 10 full-size packets
				small++
			}
			total += float64(s)
		}
		frac := float64(small) / float64(n)
		// The paper: ~90% of flows in both workloads have <10 packets.
		if frac < 0.80 || frac > 0.97 {
			t.Errorf("%s: %.1f%% of flows are small, want ≈ 90%%", d.Name, 100*frac)
		}
		t.Logf("%s: mean flow = %.0f bytes, small-flow fraction = %.2f", d.Name, total/float64(n), frac)
	}
}

func TestDataMiningTailHeavier(t *testing.T) {
	e := Enterprise().SampleFlows(50000, 7)
	dm := DataMining().SampleFlows(50000, 7)
	meanE, meanDM := mean(e), mean(dm)
	if meanDM < 3*meanE {
		t.Errorf("data-mining mean (%.0f) should dwarf enterprise mean (%.0f)", meanDM, meanE)
	}
	// Long flows (>10MB) carry most data-mining bytes.
	var longBytes, allBytes float64
	for _, s := range dm {
		allBytes += float64(s)
		if s > 10_000_000 {
			longBytes += float64(s)
		}
	}
	if longBytes/allBytes < 0.5 {
		t.Errorf("data-mining long flows carry %.0f%% of bytes, want >50%%", 100*longBytes/allBytes)
	}
}

func mean(xs []int64) float64 {
	var t float64
	for _, x := range xs {
		t += float64(x)
	}
	return t / float64(len(xs))
}

func TestSamplingDeterministic(t *testing.T) {
	a := Enterprise().SampleFlows(100, 42)
	b := Enterprise().SampleFlows(100, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different samples")
		}
	}
}

func TestSplitWorkers(t *testing.T) {
	sizes := []int64{1, 2, 3, 4, 5, 6, 7}
	w := SplitWorkers(sizes, 3)
	if len(w) != 3 || len(w[0]) != 3 || len(w[1]) != 2 || len(w[2]) != 2 {
		t.Fatalf("split = %v", w)
	}
	if w[0][0] != 1 || w[1][0] != 2 || w[2][0] != 3 || w[0][1] != 4 {
		t.Fatalf("round-robin order wrong: %v", w)
	}
}

func TestIperfGenerate(t *testing.T) {
	cfg := IperfConfig{Conns: 4, PacketSize: 500, PPS: 1e6, DurationNs: 1_000_000, Seed: 1}
	var count, syns int
	var lastT int64 = -1
	tuples := map[packet.FiveTuple]bool{}
	err := cfg.Generate(func(tNs int64, pkt *packet.Packet) error {
		if tNs < lastT {
			t.Fatal("timestamps not monotone")
		}
		lastT = tNs
		if pkt.WireLen() != 500 {
			t.Fatalf("packet size = %d, want 500", pkt.WireLen())
		}
		if pkt.TCP.SYN() {
			syns++
		}
		tup, _ := pkt.Tuple()
		tuples[tup] = true
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 1000 {
		t.Errorf("count = %d, want 1000 (1 Mpps for 1 ms)", count)
	}
	if syns != 4 {
		t.Errorf("syns = %d, want one per connection", syns)
	}
	if len(tuples) != 4 {
		t.Errorf("distinct tuples = %d, want 4", len(tuples))
	}
	// Tuples() must announce the same tuples in advance.
	for _, tup := range cfg.Tuples() {
		if !tuples[tup] {
			t.Errorf("announced tuple %v never generated", tup)
		}
	}
}

func TestIperfConfigValidation(t *testing.T) {
	cfg := IperfConfig{}
	if err := cfg.Generate(func(int64, *packet.Packet) error { return nil }); err == nil {
		t.Fatal("want error without PPS/Duration")
	}
}

// TestIperfGenerateDeterministicWithSeed: two runs of the same seeded
// config must produce byte-identical streams at identical times — the
// property every differential experiment (1-worker vs 8-worker engine
// runs) rests on.
func TestIperfGenerateDeterministicWithSeed(t *testing.T) {
	cfg := IperfConfig{Conns: 7, PPS: 1e6, DurationNs: 500_000, Seed: 99}
	type rec struct {
		t     int64
		bytes string
	}
	capture := func() []rec {
		var out []rec
		if err := cfg.Generate(func(tNs int64, pkt *packet.Packet) error {
			out = append(out, rec{tNs, string(pkt.Serialize())})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := capture(), capture()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("stream lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("packet %d differs between identically seeded runs", i)
		}
	}
	// A different seed must actually change the stream (SYN ISNs).
	cfg.Seed = 100
	c := capture()
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seed has no effect on the generated stream")
	}
}

// TestIperfShardDistributionUniform: the engine's RSS dispatch of iperf
// tuples must spread flows evenly across shards. Chi-squared over 8 bins
// with 512 flows; the df=7 critical value at p=0.001 is 24.3 — a fixed
// generator and hash make this deterministic, so a failure means the
// hash, not bad luck.
func TestIperfShardDistributionUniform(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical sweep; runs in full mode and CI")
	}
	const nFlows, shards = 512, 8
	srcs := make([]packet.IPv4Addr, nFlows)
	for i := range srcs {
		srcs[i] = packet.MakeIPv4Addr(10, byte(i/250), byte(i%250), byte(1+i%200))
	}
	cfg := IperfConfig{Conns: nFlows, SrcIPs: srcs}
	counts := make([]float64, shards)
	for _, tup := range cfg.Tuples() {
		pkt := packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort, packet.TCPOptions{})
		counts[engine.RSSShard(pkt, shards)]++
	}
	exp := float64(nFlows) / shards
	chi2 := 0.0
	for _, c := range counts {
		chi2 += (c - exp) * (c - exp) / exp
	}
	if chi2 > 24.3 {
		t.Fatalf("shard distribution not uniform: counts=%v chi2=%.1f > 24.3", counts, chi2)
	}
}

// TestProbeGenerate checks spacing, ordering, sequencing, and the
// SYN-first option.
func TestProbeGenerate(t *testing.T) {
	cfg := ProbeConfig{Count: 5, IntervalNs: 2000, StartNs: 100, SYNFirst: true}
	var times []int64
	var seqs []uint32
	var flags []uint8
	if err := cfg.Generate(func(tNs int64, pkt *packet.Packet) error {
		times = append(times, tNs)
		seqs = append(seqs, pkt.TCP.Seq)
		flags = append(flags, pkt.TCP.Flags)
		if pkt.WireLen() < 64 {
			t.Errorf("probe shorter than minimum frame: %d", pkt.WireLen())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(times) != 5 {
		t.Fatalf("probes = %d, want 5", len(times))
	}
	for i := range times {
		if times[i] != 100+int64(i)*2000 {
			t.Errorf("probe %d at %d, want %d", i, times[i], 100+int64(i)*2000)
		}
		if seqs[i] != uint32(i) {
			t.Errorf("probe %d seq %d", i, seqs[i])
		}
	}
	if flags[0] != packet.TCPFlagSYN {
		t.Error("first probe is not a SYN despite SYNFirst")
	}
	if flags[1] != packet.TCPFlagACK {
		t.Error("later probes must be plain ACKs")
	}

	// Defaults: 20 probes on the default tuple, no SYN.
	def := ProbeConfig{}
	n := 0
	first := true
	if err := def.Generate(func(tNs int64, pkt *packet.Packet) error {
		if first && pkt.TCP.Flags == packet.TCPFlagSYN {
			t.Error("default probe stream starts with SYN")
		}
		first = false
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Errorf("default count = %d, want 20", n)
	}
	if got := def.Tuples(); len(got) != 1 || got[0].Proto != packet.IPProtocolTCP {
		t.Errorf("default tuples = %v", got)
	}
}
