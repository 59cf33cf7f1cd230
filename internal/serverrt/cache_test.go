package serverrt_test

import (
	"math/rand"
	"strings"
	"testing"

	"gallium/internal/engine"
	"gallium/internal/ir"
	"gallium/internal/middleboxes"
	"gallium/internal/packet"
	"gallium/internal/partition"
)

// compileCached partitions a bundled middlebox with the named tables as
// §7 switch caches of the given capacity.
func compileCached(t *testing.T, name string, caches map[string]int) (*ir.Program, *partition.Result) {
	t.Helper()
	c := partition.DefaultConstraints()
	c.CacheEntries = caches
	return compileBox(t, name, c)
}

// deployCached builds an instant testbed where the named tables run as §7
// switch caches, seeded with the middlebox's configured state.
func deployCached(t *testing.T, name string, caches map[string]int) *engine.Testbed {
	t.Helper()
	_, res := compileCached(t, name, caches)
	return deploy(t, res, engine.InstantModel(), func(st *ir.State) { middleboxes.ConfigureState(name, st) })
}

// TestCacheModeEquivalence drives far more connections than the cache
// holds through the LB and NAT: behaviour must still match the reference
// exactly — correctness never depends on what happens to be cached.
func TestCacheModeEquivalence(t *testing.T) {
	cases := []struct {
		name   string
		caches map[string]int
	}{
		{"minilb", map[string]int{"conn": 16}},
		{"l4lb", map[string]int{"conns": 16}},
		{"mazunat", map[string]int{"nat_fwd": 8, "nat_rev": 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, res := compileCached(t, tc.name, tc.caches)
			ref := ir.NewState(prog)
			setup := func(st *ir.State) { middleboxes.ConfigureState(tc.name, st) }
			setup(ref)
			tb := deploy(t, res, engine.InstantModel(), setup)

			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 4000; i++ {
				// ~200 distinct connections against 8-16 cache slots.
				src := packet.MakeIPv4Addr(10, 0, byte(rng.Intn(5)), byte(1+rng.Intn(40)))
				pktRef := packet.BuildTCP(src, packet.MakeIPv4Addr(99, 9, 9, 9), uint16(5000+rng.Intn(40)), 80,
					packet.TCPOptions{Flags: packet.TCPFlagACK})
				if rng.Intn(10) == 0 {
					pktRef.TCP.Flags = packet.TCPFlagSYN
				}
				pktDep := pktRef.Clone()

				rRef, err := prog.Exec(&ir.Env{State: ref, Pkt: pktRef})
				if err != nil {
					t.Fatal(err)
				}
				action, _ := inject(t, tb, pktDep)
				if rRef.Action != action {
					t.Fatalf("pkt %d: action ref=%v dep=%v", i, rRef.Action, action)
				}
				if action == ir.ActionSent {
					for _, f := range []string{"ip.saddr", "ip.daddr", "l4.sport", "l4.dport"} {
						a, _ := pktRef.GetField(f)
						b, _ := pktDep.GetField(f)
						if a != b {
							t.Fatalf("pkt %d: %s ref=%d dep=%d", i, f, a, b)
						}
					}
				}
			}
			if !ref.Equal(tb.ServerState()) {
				t.Fatal("server state diverged from reference")
			}
			// Cache stayed within capacity.
			tb.Due(0)
			st := tb.Switch().Stats()
			for tbl, cap := range tc.caches {
				if st.TableEntries[tbl] > cap {
					t.Errorf("cache %s holds %d entries, capacity %d", tbl, st.TableEntries[tbl], cap)
				}
			}
			if st.Evictions == 0 {
				t.Error("no evictions despite cache pressure")
			}
			if st.Punts == 0 {
				t.Error("no punts despite cache misses")
			}
			t.Logf("%s: %d punts, %d evictions, fast path %d/%d",
				tc.name, st.Punts, st.Evictions, st.FastPath, st.PrePackets)
		})
	}
}

// TestCachePuntLeavesPacketUntouched: a cache miss must punt the original
// packet — no pipeline effects may leak (P4 predicates actions on the punt
// flag).
func TestCachePuntLeavesPacketUntouched(t *testing.T) {
	tb := deployCached(t, "minilb", map[string]int{"conn": 4})
	pkt := packet.BuildTCP(packet.MakeIPv4Addr(1, 2, 3, 4), packet.MakeIPv4Addr(9, 9, 9, 9), 7, 80, packet.TCPOptions{})
	pre, err := tb.Switch().ProcessPreShard(pkt, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !pre.Punt {
		t.Fatal("first packet should miss the empty cache and punt")
	}
	if pkt.HasGallium {
		t.Error("punted packet must not carry a gallium header")
	}
	if pkt.IP.DstIP != packet.MakeIPv4Addr(9, 9, 9, 9) {
		t.Error("punted packet was modified by the discarded pipeline pass")
	}
}

// TestCacheFillEnablesFastPath: after a punt warms the cache, the same
// connection hits on the switch.
func TestCacheFillEnablesFastPath(t *testing.T) {
	tb := deployCached(t, "minilb", map[string]int{"conn": 4})
	p1 := packet.BuildTCP(packet.MakeIPv4Addr(1, 2, 3, 4), packet.MakeIPv4Addr(9, 9, 9, 9), 7, 80, packet.TCPOptions{})
	if _, fast := inject(t, tb, p1); fast {
		t.Fatal("first packet cannot be fast")
	}
	p2 := packet.BuildTCP(packet.MakeIPv4Addr(1, 2, 3, 4), packet.MakeIPv4Addr(9, 9, 9, 9), 7, 80, packet.TCPOptions{})
	if _, fast := inject(t, tb, p2); !fast {
		t.Fatal("second packet should hit the warmed cache")
	}
	if p2.IP.DstIP != p1.IP.DstIP {
		t.Errorf("backend changed across cache fill: %v vs %v", p2.IP.DstIP, p1.IP.DstIP)
	}
}

// TestCacheInvalidationOnRemove: l4lb's FIN path removes the connection;
// the switch cache must be invalidated synchronously so later packets of
// that tuple punt (and get a fresh authoritative answer).
func TestCacheInvalidationOnRemove(t *testing.T) {
	tb := deployCached(t, "l4lb", map[string]int{"conns": 8})
	client := packet.MakeIPv4Addr(172, 16, 0, 3)
	vip := packet.MakeIPv4Addr(10, 0, 2, 2)
	mk := func(flags uint8) *packet.Packet {
		return packet.BuildTCP(client, vip, 6000, 80, packet.TCPOptions{Flags: flags})
	}
	inject(t, tb, mk(packet.TCPFlagSYN)) // punt + fill
	if _, fast := inject(t, tb, mk(packet.TCPFlagACK)); !fast {
		t.Fatal("data packet should hit the cache")
	}
	// FIN hits the cache, goes to the server partition, removes the entry;
	// the removal is a synchronous update (TestOutputCommitStallRule).
	inject(t, tb, mk(packet.TCPFlagFIN|packet.TCPFlagACK))
	tb.Due(0)
	tbl, _ := tb.Switch().Table("conns")
	if tbl.Len() != 0 {
		t.Errorf("cache still holds %d entries after FIN", tbl.Len())
	}
	// Next packet of the tuple punts (authoritative miss → new entry).
	pre, err := tb.Switch().ProcessPreShard(mk(packet.TCPFlagACK), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !pre.Punt {
		t.Error("post-FIN packet should punt on the invalidated cache")
	}
}

// TestOutputCommitStallRule pins §7's output-commit rule on the Testbed.
// A punted batch of read-through fills releases its packet at server
// completion: a racing lookup just punts to the authoritative server. A
// batch with any synchronous update holds the packet until the control
// plane has pushed and flipped every update it staged, CtlBatchNs(staged).
// Each packet runs through two testbeds that differ only in what the
// control plane costs, so the gap between their latencies is the stall.
func TestOutputCommitStallRule(t *testing.T) {
	model := engine.DefaultModel()
	model.StackJitterFrac = 0
	free := model
	free.CtlOpSerialNs, free.CtlOpPipelinedNs = 0, 0
	// batch is what a packet's server run ships to the switch.
	const (
		none = iota
		fills
		sync
	)
	client := packet.MakeIPv4Addr(10, 0, 0, 3)
	for _, tc := range []struct {
		name    string
		caches  map[string]int
		dst     packet.IPv4Addr
		flags   []uint8 // one connection's packets, in order
		batches []int
		punts   int // of those packets, the cache misses
	}{
		{"minilb/insert", nil, packet.MakeIPv4Addr(9, 9, 9, 9),
			[]uint8{packet.TCPFlagSYN, packet.TCPFlagACK}, []int{sync, none}, 0},
		{"minilb/fill", map[string]int{"conn": 4}, packet.MakeIPv4Addr(9, 9, 9, 9),
			[]uint8{packet.TCPFlagSYN, packet.TCPFlagACK}, []int{fills, none}, 1},
		{"l4lb/fill-then-remove", map[string]int{"conns": 8}, packet.MakeIPv4Addr(10, 0, 2, 2),
			[]uint8{packet.TCPFlagSYN, packet.TCPFlagACK, packet.TCPFlagFIN | packet.TCPFlagACK}, []int{fills, none, sync}, 1},
		// A punted batch of one fill (the cached nat_fwd) and one
		// synchronous insert (nat_rev) waits for both.
		{"mazunat/fill-and-insert", map[string]int{"nat_fwd": 8}, packet.MakeIPv4Addr(93, 184, 216, 34),
			[]uint8{packet.TCPFlagSYN, packet.TCPFlagACK}, []int{sync, none}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			name, _, _ := strings.Cut(tc.name, "/")
			_, res := compileCached(t, name, tc.caches)
			setup := func(st *ir.State) { middleboxes.ConfigureState(name, st) }
			tb, tbFree := deploy(t, res, model, setup), deploy(t, res, free, setup)
			for i, flags := range tc.flags {
				mk := func() *packet.Packet {
					return packet.BuildTCP(client, tc.dst, 6000, 80, packet.TCPOptions{Flags: flags})
				}
				// 10 ms apart: every earlier flip has landed.
				tNs := int64(i) * 10_000_000
				ops := tb.Report().Stats.CtlOps
				d, err := tb.Inject(tNs, mk())
				if err != nil {
					t.Fatal(err)
				}
				dFree, err := tbFree.Inject(tNs, mk())
				if err != nil {
					t.Fatal(err)
				}
				staged := tb.Report().Stats.CtlOps - ops
				if !d.Delivered || !dFree.Delivered {
					t.Fatalf("packet %d not delivered: %+v, %+v", i, d, dFree)
				}
				if (staged > 0) != (tc.batches[i] != none) {
					t.Fatalf("packet %d staged %d updates, want a batch: %v", i, staged, tc.batches[i] != none)
				}
				want := int64(0)
				if tc.batches[i] == sync {
					want = int64(model.CtlBatchNs(staged))
				}
				if stall := d.LatencyNs - dFree.LatencyNs; stall != want {
					t.Errorf("packet %d (%d staged) held %d ns for its write-back, want %d", i, staged, stall, want)
				}
			}
			if got := tb.Switch().Stats().Punts; got != tc.punts {
				t.Errorf("%d packets punted, want %d", got, tc.punts)
			}
		})
	}
}

// TestCacheHitRateGrowsWithCapacity: the §7 trade-off — more switch
// memory, higher fast-path coverage.
func TestCacheHitRateGrowsWithCapacity(t *testing.T) {
	run := func(capEntries int) float64 {
		tb := deployCached(t, "minilb", map[string]int{"conn": capEntries})
		rng := rand.New(rand.NewSource(5))
		fast := 0
		total := 6000
		for i := 0; i < total; i++ {
			// Zipf-ish reuse: a small hot set plus a cold tail.
			var src packet.IPv4Addr
			if rng.Intn(4) > 0 {
				src = packet.MakeIPv4Addr(10, 0, 0, byte(1+rng.Intn(8))) // hot
			} else {
				src = packet.MakeIPv4Addr(10, 0, 1, byte(1+rng.Intn(100))) // cold
			}
			p := packet.BuildTCP(src, packet.MakeIPv4Addr(9, 9, 9, 9), 1000, 80, packet.TCPOptions{})
			if _, fastPath := inject(t, tb, p); fastPath {
				fast++
			}
		}
		return float64(fast) / float64(total)
	}
	small := run(4)
	big := run(64)
	if big <= small {
		t.Errorf("hit rate did not grow with cache size: %.2f (4 entries) vs %.2f (64)", small, big)
	}
	t.Logf("fast-path rate: %.1f%% with 4 entries, %.1f%% with 64", 100*small, 100*big)
}
