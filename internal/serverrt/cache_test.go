package serverrt_test

import (
	"math/rand"
	"testing"

	"gallium/internal/ir"
	"gallium/internal/lang"
	"gallium/internal/middleboxes"
	"gallium/internal/netsim"
	"gallium/internal/packet"
	"gallium/internal/partition"
	"gallium/internal/serverrt"
)

// deployCached builds a deployment where the named tables run as §7
// switch caches of the given capacity.
func deployCached(t *testing.T, name string, caches map[string]int) (*ir.Program, *netsim.Deployment) {
	t.Helper()
	spec, err := middleboxes.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.Compile(spec.Source)
	if err != nil {
		t.Fatal(err)
	}
	c := partition.DefaultConstraints()
	c.CacheEntries = caches
	res, err := partition.Partition(prog, c)
	if err != nil {
		t.Fatal(err)
	}
	return prog, netsim.NewDeployment(res)
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
			prog, d := deployCached(t, tc.name, tc.caches)
			ref := serverrt.NewSoftware(prog)
			setup := func(st *ir.State) { middleboxes.ConfigureState(tc.name, st) }
			setup(ref.State)
			if err := d.Configure(setup); err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(11))
			punts := 0
			for i := 0; i < 4000; i++ {
				// ~200 distinct connections against 8-16 cache slots.
				src := packet.MakeIPv4Addr(10, 0, byte(rng.Intn(5)), byte(1+rng.Intn(40)))
				pktRef := packet.BuildTCP(src, packet.MakeIPv4Addr(99, 9, 9, 9), uint16(5000+rng.Intn(40)), 80,
					packet.TCPOptions{Flags: packet.TCPFlagACK})
				if rng.Intn(10) == 0 {
					pktRef.TCP.Flags = packet.TCPFlagSYN
				}
				pktDep := pktRef.Clone()

				rRef, err := ref.Process(pktRef)
				if err != nil {
					t.Fatal(err)
				}
				tr, err := d.Process(pktDep)
				if err != nil {
					t.Fatalf("pkt %d: %v", i, err)
				}
				if rRef.Action != tr.Action {
					t.Fatalf("pkt %d: action ref=%v dep=%v", i, rRef.Action, tr.Action)
				}
				if tr.Action == ir.ActionSent {
					for _, f := range []string{"ip.saddr", "ip.daddr", "l4.sport", "l4.dport"} {
						a, _ := pktRef.GetField(f)
						b, _ := pktDep.GetField(f)
						if a != b {
							t.Fatalf("pkt %d: %s ref=%d dep=%d", i, f, a, b)
						}
					}
				}
				if !tr.FastPath && tr.SrvSteps > 0 {
					punts++
				}
			}
			if !ref.State.Equal(d.Server.State) {
				t.Fatal("server state diverged from reference")
			}
			// Cache stayed within capacity.
			st := d.Switch.Stats()
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
	_, d := deployCached(t, "minilb", map[string]int{"conn": 4})
	if err := d.Configure(func(st *ir.State) { middleboxes.ConfigureState("minilb", st) }); err != nil {
		t.Fatal(err)
	}
	pkt := packet.BuildTCP(packet.MakeIPv4Addr(1, 2, 3, 4), packet.MakeIPv4Addr(9, 9, 9, 9), 7, 80, packet.TCPOptions{})
	pre, err := d.Switch.ProcessPreShard(pkt, 0, nil)
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
	_, d := deployCached(t, "minilb", map[string]int{"conn": 4})
	if err := d.Configure(func(st *ir.State) { middleboxes.ConfigureState("minilb", st) }); err != nil {
		t.Fatal(err)
	}
	p1 := packet.BuildTCP(packet.MakeIPv4Addr(1, 2, 3, 4), packet.MakeIPv4Addr(9, 9, 9, 9), 7, 80, packet.TCPOptions{})
	tr1, err := d.Process(p1)
	if err != nil {
		t.Fatal(err)
	}
	if tr1.FastPath {
		t.Fatal("first packet cannot be fast")
	}
	// The fill must not have stalled the packet: cache fills are not
	// output-commit events (a racing packet just punts).
	if tr1.SyncOps != 0 {
		t.Errorf("cache fill stalled the packet (%d sync ops)", tr1.SyncOps)
	}
	p2 := packet.BuildTCP(packet.MakeIPv4Addr(1, 2, 3, 4), packet.MakeIPv4Addr(9, 9, 9, 9), 7, 80, packet.TCPOptions{})
	tr2, err := d.Process(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !tr2.FastPath {
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
	_, d := deployCached(t, "l4lb", map[string]int{"conns": 8})
	if err := d.Configure(func(st *ir.State) { middleboxes.ConfigureState("l4lb", st) }); err != nil {
		t.Fatal(err)
	}
	client := packet.MakeIPv4Addr(172, 16, 0, 3)
	vip := packet.MakeIPv4Addr(10, 0, 2, 2)
	mk := func(flags uint8) *packet.Packet {
		return packet.BuildTCP(client, vip, 6000, 80, packet.TCPOptions{Flags: flags})
	}
	if _, err := d.Process(mk(packet.TCPFlagSYN)); err != nil { // punt + fill
		t.Fatal(err)
	}
	tr, err := d.Process(mk(packet.TCPFlagACK))
	if err != nil {
		t.Fatal(err)
	}
	if !tr.FastPath {
		t.Fatal("data packet should hit the cache")
	}
	// FIN hits the cache, goes to the server partition, removes the entry;
	// the removal is a synchronous update.
	trFin, err := d.Process(mk(packet.TCPFlagFIN | packet.TCPFlagACK))
	if err != nil {
		t.Fatal(err)
	}
	if trFin.SyncOps == 0 {
		t.Error("connection removal did not synchronize")
	}
	tbl, _ := d.Switch.Table("conns")
	if tbl.Len() != 0 {
		t.Errorf("cache still holds %d entries after FIN", tbl.Len())
	}
	// Next packet of the tuple punts (authoritative miss → new entry).
	pre, err := d.Switch.ProcessPreShard(mk(packet.TCPFlagACK), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !pre.Punt {
		t.Error("post-FIN packet should punt on the invalidated cache")
	}
}

// TestCacheHitRateGrowsWithCapacity: the §7 trade-off — more switch
// memory, higher fast-path coverage.
func TestCacheHitRateGrowsWithCapacity(t *testing.T) {
	run := func(capEntries int) float64 {
		_, d := deployCached(t, "minilb", map[string]int{"conn": capEntries})
		if err := d.Configure(func(st *ir.State) { middleboxes.ConfigureState("minilb", st) }); err != nil {
			t.Fatal(err)
		}
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
			tr, err := d.Process(p)
			if err != nil {
				t.Fatal(err)
			}
			if tr.FastPath {
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
