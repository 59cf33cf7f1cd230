package difftest_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gallium"
	"gallium/internal/difftest"
	"gallium/internal/flowstate"
)

// TestExpiryDirectiveRoundTrip: a case with a flow table armed writes a
// // difftest:expiry line that parses back to the identical config, so
// corpus replay runs the same lifecycle that diverged at capture time.
func TestExpiryDirectiveRoundTrip(t *testing.T) {
	t.Parallel()
	c := difftest.GenCase(11, 4)
	s := time.Duration(difftest.PacketSpacingNs)
	c.Spec.Expiry = &flowstate.Config{
		Capacity: 512,
		TCPTimeouts: flowstate.TCPTimeouts{
			Syn: 1 * s, Established: 4 * s, Fin: 2 * s,
		},
		UDPTimeout: 6 * s,
	}
	src := difftest.FormatCorpusProgram(c, nil)
	if !strings.Contains(src, "// difftest:expiry 512 ") {
		t.Fatalf("expiry directive missing from corpus text:\n%s", src)
	}
	spec, err := difftest.ParseCorpusProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Expiry == nil || *spec.Expiry != *c.Spec.Expiry {
		t.Fatalf("expiry round trip drifted: %+v, want %+v", spec.Expiry, c.Spec.Expiry)
	}

	for _, bad := range []string{
		"// difftest:expiry 512 1 2\n",     // wrong arity
		"// difftest:expiry 512 9 4 1 6\n", // syn > established
		"// difftest:expiry 0 1 4 2 6\n",   // non-positive capacity
		"// difftest:expiry 512 x 4 2 6\n", // non-numeric
	} {
		if _, err := difftest.ParseCorpusProgram(bad); err == nil {
			t.Errorf("malformed directive accepted: %q", bad)
		}
	}
}

// TestGenProgramArmsExpiry: the generator attaches valid lifecycle
// configs to a healthy fraction of seeds, and a capacity of a few entries
// to a healthy fraction of those, so the fuzz loop actually exercises the
// expiry leg — timeouts and evictions — rather than skipping it everywhere.
func TestGenProgramArmsExpiry(t *testing.T) {
	t.Parallel()
	armed, small := 0, 0
	for seed := uint64(0); seed < 200; seed++ {
		e := difftest.GenProgram(seed).Expiry
		if e == nil {
			continue
		}
		armed++
		if e.Capacity <= 7 {
			small++
		}
		if err := e.Validate(); err != nil {
			t.Fatalf("seed %d: generated expiry config invalid: %v", seed, err)
		}
		for _, d := range []time.Duration{e.TCPTimeouts.Syn, e.TCPTimeouts.Established,
			e.TCPTimeouts.Fin, e.UDPTimeout} {
			if d%time.Duration(difftest.PacketSpacingNs) != 0 {
				t.Fatalf("seed %d: timeout %v is not a multiple of the packet spacing", seed, d)
			}
		}
	}
	if armed < 20 || armed > 100 {
		t.Fatalf("expiry armed on %d/200 seeds, want roughly a quarter", armed)
	}
	if small < armed/4 || small > 3*armed/4 {
		t.Fatalf("%d of the %d armed seeds have a capacity of a few entries, want roughly half", small, armed)
	}
}

// corpusTOS runs a shipped expiry corpus pair through the engine — one
// worker, lifecycle armed from the pair's directive when arm is set — and
// returns each delivered packet's TOS byte.
func corpusTOS(t *testing.T, name string, arm bool) []uint8 {
	t.Helper()
	dir := filepath.Join("testdata", "regressions")
	src, err := os.ReadFile(filepath.Join(dir, name+".mc"))
	if err != nil {
		t.Fatal(err)
	}
	trText, err := os.ReadFile(filepath.Join(dir, name+".trace"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := difftest.ParseCorpusProgram(string(src))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Expiry == nil {
		t.Fatal("corpus case carries no expiry directive")
	}
	tr, err := difftest.ParseTrace(string(trText))
	if err != nil {
		t.Fatal(err)
	}
	art, err := gallium.Compile(string(src), gallium.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	tos := make([]uint8, len(tr.Packets))
	opts := []gallium.Option{
		gallium.WithWorkers(1),
		gallium.WithQueueDepth(len(tr.Packets) + 8),
		gallium.WithDeliveries(func(d gallium.Delivery) {
			if d.Delivered && d.Seq >= 0 && d.Seq < int64(len(tos)) {
				tos[d.Seq] = d.Pkt.IP.TOS
			}
		}),
	}
	if arm {
		cfg := spec.Expiry.Normalized()
		cfg.SweepEvery = 1
		opts = append(opts, gallium.WithFlowTable(cfg))
	}
	if _, err := art.Run(context.Background(), tr, opts...); err != nil {
		t.Fatal(err)
	}
	return tos
}

// TestExpiryCorpusCaseBites runs the shipped stale-window corpus program
// through the engine twice — lifecycle off, then on — and checks the
// returning flow's packet is the discriminator: without expiry its map
// entry survives the idle gap (hit, tos=7); with the armed flow table
// the entry is gone from server AND switch when the flow returns (miss,
// tos=1). The corpus replay test then holds the oracle and the engine to
// the same answer; this test pins that the answer is the interesting one.
func TestExpiryCorpusCaseBites(t *testing.T) {
	t.Parallel()
	if tos := corpusTOS(t, "expiry-stale-window", false); tos[len(tos)-1] != 7 {
		t.Fatalf("without lifecycle the returning packet should hit (tos=7), got tos=%d", tos[len(tos)-1])
	}
	if tos := corpusTOS(t, "expiry-stale-window", true); tos[len(tos)-1] != 1 {
		t.Fatalf("with lifecycle armed the returning packet should miss (tos=1), got tos=%d", tos[len(tos)-1])
	}
}

// TestEvictionCorpusCaseBites does the same for the capacity-eviction
// pair, whose timeouts never fire: unarmed, the last two packets (flows A
// and B returning) both hit; armed with its two-entry table, the sweep
// after flow C's insert evicted B, the least recently touched, so A hits
// and B misses.
func TestEvictionCorpusCaseBites(t *testing.T) {
	t.Parallel()
	if tos := corpusTOS(t, "expiry-capacity-eviction", false); tos[4] != 7 || tos[5] != 7 {
		t.Fatalf("without lifecycle both returning packets should hit (7, 7), got (%d, %d)", tos[4], tos[5])
	}
	if tos := corpusTOS(t, "expiry-capacity-eviction", true); tos[4] != 7 || tos[5] != 1 {
		t.Fatalf("with a two-entry table A should hit and the evicted B miss (7, 1), got (%d, %d)", tos[4], tos[5])
	}
}
