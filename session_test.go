package gallium_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	gallium "gallium"
	"gallium/internal/ctlplane"
	"gallium/internal/difftest"
	"gallium/internal/engine"
	"gallium/internal/ir"
	"gallium/internal/middleboxes"
	"gallium/internal/packet"
	"gallium/internal/trafficgen"
)

// TestSessionLifecycle drives the long-lived path directly: Open, two
// Feeds with monotonic virtual time, a live Stats barrier between them,
// and Close.
func TestSessionLifecycle(t *testing.T) {
	art, err := gallium.CompileBuiltin("firewall", gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen := iperfWorkload(8)
	s, err := gallium.Open(art,
		gallium.WithWorkers(4),
		gallium.WithScenario(),
		gallium.WithFlows(gen.Tuples()),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Feed(gen); err != nil {
		t.Fatal(err)
	}
	mid, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if mid.Stats.Injected == 0 || mid.Stats.Delivered != mid.Stats.Injected {
		t.Fatalf("first feed not fully delivered: %+v", mid.Stats)
	}
	if err := s.Feed(trafficgen.Shifted{WL: gen, OffsetNs: gen.DurationNs}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Injected != 2*mid.Stats.Injected {
		t.Errorf("two feeds injected %d, want %d", rep.Stats.Injected, 2*mid.Stats.Injected)
	}
	if rep.Stats.Delivered != rep.Stats.Injected {
		t.Errorf("second feed dropped traffic: %+v", rep.Stats)
	}
	// Close is idempotent: the report is sticky.
	again, err := s.Close()
	if err != nil || again != rep {
		t.Errorf("second Close = (%v, %v), want the first report", again, err)
	}
}

// TestReconfigDifferentialOracle runs the same trace with a mid-trace
// firewall rule swap through the concurrent session AND the sequential
// testbed (the oracle), switching configuration at the same packet index,
// and requires identical per-packet fates.
func TestReconfigDifferentialOracle(t *testing.T) {
	art, err := gallium.CompileBuiltin("firewall", gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	flowA := packet.FiveTuple{
		SrcIP: packet.MakeIPv4Addr(10, 0, 0, 1), DstIP: packet.MakeIPv4Addr(198, 51, 100, 9),
		SrcPort: 34000, DstPort: 443, Proto: packet.IPProtocolTCP,
	}
	flowB := packet.FiveTuple{
		SrcIP: packet.MakeIPv4Addr(10, 0, 0, 2), DstIP: packet.MakeIPv4Addr(198, 51, 100, 9),
		SrcPort: 34001, DstPort: 443, Proto: packet.IPProtocolTCP,
	}
	// Interleave A and B; initially only A passes, after the swap only B.
	var tr difftest.Trace
	for i := 0; i < 12; i++ {
		f := flowA
		if i%2 == 1 {
			f = flowB
		}
		tr.Packets = append(tr.Packets, difftest.TracePacket{
			Proto: 6, Src: f.SrcIP, Dst: f.DstIP, Sport: f.SrcPort, Dport: f.DstPort,
			Flags: packet.TCPFlagACK, TTL: 64, Seq: uint32(i),
		})
	}
	const cut = 6 // reconfigure before packet index 6
	seed := func(st *ir.State) { middleboxes.AllowFlow(st, flowA) }
	// Both sides apply the identical typed operation.
	swap := gallium.FirewallRuleSwap{Rules: []packet.FiveTuple{flowB}}

	// Oracle: sequential testbed, reconfigured between injections cut-1
	// and cut.
	tb, err := art.NewTestbed(gallium.TestbedConfig{Setup: seed})
	if err != nil {
		t.Fatal(err)
	}
	oracle := make([]bool, len(tr.Packets))
	for i := range tr.Packets {
		if i == cut {
			if err := tb.Reconfigure(swap); err != nil {
				t.Fatal(err)
			}
		}
		d, err := tb.Inject(int64(i)*difftest.PacketSpacingNs, tr.Build(i))
		if err != nil {
			t.Fatal(err)
		}
		oracle[i] = d.Delivered
	}

	// Subject: one-worker session, reconfigured between two feeds split at
	// the same index.
	var mu sync.Mutex
	got := make([]bool, len(tr.Packets))
	s, err := gallium.Open(art,
		gallium.WithWorkers(1),
		gallium.WithState(func(shard int, st *ir.State) { seed(st) }),
		gallium.WithDeliveries(func(d gallium.Delivery) {
			mu.Lock()
			defer mu.Unlock()
			if d.Seq >= 0 && d.Seq < int64(len(got)) {
				got[d.Seq] = d.Delivered
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Feed(&difftest.Trace{Packets: tr.Packets[:cut]}); err != nil {
		t.Fatal(err)
	}
	if err := s.Reconfigure(swap); err != nil {
		t.Fatal(err)
	}
	if err := s.Feed(trafficgen.Shifted{
		WL: &difftest.Trace{Packets: tr.Packets[cut:]}, OffsetNs: cut * difftest.PacketSpacingNs,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range oracle {
		if oracle[i] != got[i] {
			t.Errorf("packet %d: oracle delivered=%v, session delivered=%v", i, oracle[i], got[i])
		}
	}
	// Sanity on the semantics themselves: A passes only before the cut, B
	// only after.
	for i := range oracle {
		wantDelivered := (i < cut && i%2 == 0) || (i >= cut && i%2 == 1)
		if oracle[i] != wantDelivered {
			t.Errorf("oracle packet %d delivered=%v, semantics want %v", i, oracle[i], wantDelivered)
		}
	}
}

// TestTestbedRefusesEngineOnlyOptions: every option and engine config
// field that needs concurrent workers or a Close is refused by the
// sequential testbed, with an error naming it.
func TestTestbedRefusesEngineOnlyOptions(t *testing.T) {
	art, err := gallium.CompileBuiltin("mazunat", gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, opt := range map[string]gallium.Option{
		"WithDeliveries": gallium.WithDeliveries(func(gallium.Delivery) {}),
		"WithQueueDepth": gallium.WithQueueDepth(8),
		"WithFlowTable":  gallium.WithFlowTable(gallium.FlowTable{Capacity: 64}),
		"WithState":      gallium.WithState(func(int, *ir.State) {}),
	} {
		if _, err := art.NewTestbed(gallium.TestbedConfig{}, opt); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("NewTestbed with %s: %v, want an error naming it", name, err)
		}
	}
	stages := []engine.StageConfig{{Name: art.Name, Res: art.Res}}
	for name, cfg := range map[string]engine.Config{
		"QueueDepth": {Stages: stages, QueueDepth: 8},
		"OnDelivery": {Stages: stages, OnDelivery: func(engine.Delivery) {}},
		"FlowTable":  {Stages: stages, FlowTable: &gallium.FlowTable{Capacity: 64}},
	} {
		if _, err := engine.NewTestbed(cfg); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("engine.NewTestbed with %s set: %v, want an error naming it", name, err)
		}
	}
	if _, err := engine.NewTestbed(engine.Config{Stages: stages}); err != nil {
		t.Fatalf("the same config without them: %v", err)
	}
}

// TestTestbedHidesCommit: the facade Testbed embeds the engine's, so
// every exported engine method is a library call. Staging raw switch
// updates must not be one of them: a change goes through Reconfigure,
// which ctlplane.Compile checks.
func TestTestbedHidesCommit(t *testing.T) {
	typ := reflect.TypeOf((*gallium.Testbed)(nil))
	if _, ok := typ.MethodByName("Reconfigure"); !ok {
		t.Fatal("method set lacks Reconfigure; the lookup below proves nothing")
	}
	if _, ok := typ.MethodByName("Commit"); ok {
		t.Error("*gallium.Testbed exports Commit: raw switch updates skip ctlplane.Compile")
	}
}

// TestReconfigAccountingMatchesEngine applies one compiled operation to a
// testbed and to a one-worker session and requires the same control-plane
// accounting from both: the staged updates in CtlOps, one CtlBatch only
// when something was staged, and the same rejections. A rule swap stages
// both whitelist tables; a flow-table retune stages nothing; on a §7
// cached LB, a new flow's read-through fill still awaits its scheduled
// flip on the testbed when the pool change flips, and is counted then.
func TestReconfigAccountingMatchesEngine(t *testing.T) {
	flow := packet.FiveTuple{
		SrcIP: packet.MakeIPv4Addr(10, 0, 0, 1), DstIP: packet.MakeIPv4Addr(198, 51, 100, 9),
		SrcPort: 34000, DstPort: 80, Proto: packet.IPProtocolTCP,
	}
	syn := difftest.Trace{Packets: []difftest.TracePacket{{
		Proto: 6, Src: flow.SrcIP, Dst: flow.DstIP, Sport: flow.SrcPort, Dport: flow.DstPort,
		Flags: packet.TCPFlagSYN, TTL: 64,
	}}}
	for _, tc := range []struct {
		name, mb string
		cache    map[string]int
		op       gallium.ReconfigOp
		traffic  *difftest.Trace
	}{
		{"rule-swap", "firewall", nil, gallium.FirewallRuleSwap{Rules: []packet.FiveTuple{flow}}, nil},
		{"flow-table", "firewall", nil, gallium.FlowTableUpdate{Table: gallium.FlowTable{Capacity: 64}}, nil},
		{"pool-after-fill", "l4lb", map[string]int{"conns": 8},
			gallium.LBPoolChange{Backends: []gallium.Backend{{Addr: packet.MakeIPv4Addr(10, 0, 1, 1), Weight: 1}}}, &syn},
	} {
		t.Run(tc.name, func(t *testing.T) {
			art, err := gallium.CompileBuiltin(tc.mb, gallium.Options{CacheEntries: tc.cache})
			if err != nil {
				t.Fatal(err)
			}
			flows := []packet.FiveTuple{flow}
			tb, err := art.NewTestbed(gallium.TestbedConfig{}, gallium.WithScenario(), gallium.WithFlows(flows))
			if err != nil {
				t.Fatal(err)
			}
			s, err := gallium.Open(art, gallium.WithWorkers(1), gallium.WithScenario(), gallium.WithFlows(flows))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if tc.traffic != nil {
				if _, err := tb.Inject(0, tc.traffic.Build(0)); err != nil {
					t.Fatal(err)
				}
				if err := s.Feed(tc.traffic); err != nil {
					t.Fatal(err)
				}
			}
			if err := tb.Reconfigure(tc.op); err != nil {
				t.Fatal(err)
			}
			if err := s.Reconfigure(tc.op); err != nil {
				t.Fatal(err)
			}
			rep, err := s.Stats()
			if err != nil {
				t.Fatal(err)
			}
			got, want := tb.Report().Stats, rep.Stats
			if got.CtlOps != want.CtlOps || got.CtlBatches != want.CtlBatches || got.CtlRejected != want.CtlRejected {
				t.Errorf("testbed counts ops %d, batches %d, rejected %d; engine %d, %d, %d",
					got.CtlOps, got.CtlBatches, got.CtlRejected, want.CtlOps, want.CtlBatches, want.CtlRejected)
			}
		})
	}
}

// TestLBPoolDrainSemantics pins the draining protocol: without Drain,
// connections on removed backends are purged at the flip; with Drain they
// survive until natural teardown.
func TestLBPoolDrainSemantics(t *testing.T) {
	for _, drain := range []bool{false, true} {
		t.Run(fmt.Sprintf("drain=%v", drain), func(t *testing.T) {
			art, err := gallium.CompileBuiltin("l4lb", gallium.Options{})
			if err != nil {
				t.Fatal(err)
			}
			gen := iperfWorkload(8)
			var kept, total int
			s, err := gallium.Open(art,
				gallium.WithWorkers(2),
				gallium.WithScenario(),
				gallium.WithFlows(gen.Tuples()),
				gallium.WithState(func(shard int, st *ir.State) {
					// Seed-phase visits see an empty conns map; the
					// settle visits count the surviving connections.
					tb := st.Table("conns")
					tb.Range(func(e int32) bool {
						total++
						if v := tb.Vals(e); len(v) > 0 && v[0] != middleboxes.Backends[0] {
							kept++
						}
						return true
					})
				}),
			)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Feed(gen); err != nil {
				t.Fatal(err)
			}
			// Shrink the pool to backend 0 only.
			err = s.Reconfigure(gallium.LBPoolChange{
				Backends: []gallium.Backend{{Addr: packet.IPv4Addr(middleboxes.Backends[0]), Weight: 1}},
				Drain:    drain,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if drain && total == 0 {
				t.Fatal("no connections established before the pool change")
			}
			if drain && kept == 0 {
				t.Error("draining pool change purged connections that should survive")
			}
			if !drain && kept != 0 {
				t.Errorf("%d connection(s) still pinned to removed backends after non-draining change", kept)
			}
		})
	}
}

// TestNATRepartitionMovesAllocators: after a repartition, each shard
// allocates external ports from its new base.
func TestNATRepartitionMovesAllocators(t *testing.T) {
	art, err := gallium.CompileBuiltin("mazunat", gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen := iperfWorkload(4)
	bases := []uint16{2000, 22000, 42000, 62000}
	var got []uint64
	s, err := gallium.Open(art,
		gallium.WithWorkers(4),
		gallium.WithScenario(),
		gallium.WithFlows(gen.Tuples()),
		gallium.WithState(func(shard int, st *ir.State) {
			// WithScenario owns the seeding phase, so this hook only
			// fires at settle, once per shard in shard order.
			got = append(got, st.Globals["next_port"])
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Reconfigure(gallium.NATRepartition{Bases: bases}); err != nil {
		t.Fatal(err)
	}
	if err := s.Feed(gen); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("settle hook saw %d shards, want 4", len(got))
	}
	for shard, p := range got {
		base := uint64(bases[shard])
		if p < base || p >= base+1000 {
			t.Errorf("shard %d allocator at %d, want within [%d, %d)", shard, p, base, base+1000)
		}
	}
}

// TestChainGolden pins the firewall→mazunat→l4lb pipeline end to end: one
// worker, deterministic workload, every delivered packet's rewritten
// headers recorded in order and compared against a golden file.
func TestChainGolden(t *testing.T) {
	var arts []*gallium.Artifacts
	for _, name := range []string{"firewall", "mazunat", "l4lb"} {
		art, err := gallium.CompileBuiltin(name, gallium.Options{})
		if err != nil {
			t.Fatal(err)
		}
		arts = append(arts, art)
	}
	chain, err := gallium.Chain(arts...)
	if err != nil {
		t.Fatal(err)
	}
	if got := chain.Stages(); len(got) != 3 || got[1] != "mazunat" {
		t.Fatalf("chain stages = %v", got)
	}
	gen := trafficgen.IperfConfig{Conns: 6, PPS: 5e4, DurationNs: 4_000_000, Seed: 3}
	// A patient, jitter-free cost model: this test pins middlebox
	// semantics, so virtual-time queue overflow (flow bursts stacking
	// slow-path service on one worker) must not drop packets.
	model := engine.DefaultModel()
	model.MaxQueueDelayNs = 1e15
	model.StackJitterFrac = 0
	var mu sync.Mutex
	var lines []string
	rep, err := chain.Run(context.Background(), gen,
		gallium.WithWorkers(1),
		gallium.WithQueueDepth(4096),
		gallium.WithCostModel(model),
		gallium.WithScenario(),
		gallium.WithDeliveries(func(d gallium.Delivery) {
			mu.Lock()
			defer mu.Unlock()
			line := fmt.Sprintf("seq=%03d in=%v:%d->%v:%d", d.Seq,
				d.Flow.SrcIP, d.Flow.SrcPort, d.Flow.DstIP, d.Flow.DstPort)
			if d.Delivered && d.Pkt != nil {
				line += fmt.Sprintf(" out=%v:%d->%v:%d delivered",
					d.Pkt.IP.SrcIP, d.Pkt.TCP.SrcPort, d.Pkt.IP.DstIP, d.Pkt.TCP.DstPort)
			} else if d.MBDropped {
				line += " mb-drop"
			} else {
				line += " queue-drop"
			}
			lines = append(lines, line)
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Delivered != rep.Stats.Injected {
		t.Fatalf("chain dropped traffic: %+v", rep.Stats)
	}
	if len(rep.SwitchStages) != 3 {
		t.Fatalf("report has %d switch stages, want 3", len(rep.SwitchStages))
	}
	for i, sw := range rep.SwitchStages {
		if sw.PrePackets == 0 {
			t.Errorf("stage %d saw no traffic", i)
		}
	}
	compareGolden(t, "testdata/golden/chain_firewall_mazunat_l4lb.txt", strings.Join(lines, "\n")+"\n")
}

// TestOptionValidation: non-positive queue bounds and malformed flow tables
// are errors, not silent defaults.
func TestOptionValidation(t *testing.T) {
	art, err := gallium.CompileBuiltin("firewall", gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opt  gallium.Option
		want string
	}{
		{"queue-depth-zero", gallium.WithQueueDepth(0), "WithQueueDepth(0)"},
		{"queue-depth-negative", gallium.WithQueueDepth(-4), "WithQueueDepth(-4)"},
		{"flow-table-capacity", gallium.WithFlowTable(gallium.FlowTable{}), "WithFlowTable"},
		{"flow-table-negative-timeout",
			gallium.WithFlowTable(gallium.FlowTable{Capacity: 64, UDPTimeout: -time.Second}),
			"WithFlowTable"},
		{"flow-table-inverted-tcp",
			gallium.WithFlowTable(gallium.FlowTable{
				Capacity:    64,
				TCPTimeouts: gallium.TCPTimeouts{Syn: time.Hour, Established: time.Minute},
			}),
			"WithFlowTable"},
		{"flow-table-bad-policy",
			gallium.WithFlowTable(gallium.FlowTable{Capacity: 64, EvictPolicy: gallium.EvictPolicy(99)}),
			"WithFlowTable"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := gallium.Open(art, tc.opt); err == nil {
				t.Fatal("Open accepted an invalid option")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name the option (%s)", err, tc.want)
			}
			if _, err := art.Run(context.Background(), iperfWorkload(2), gallium.WithScenario(), tc.opt); err == nil {
				t.Fatal("Run accepted an invalid option")
			}
		})
	}
}

// TestWithStateSeedsAndInspects: the hook both seeds before the run and
// observes each shard's final state after it.
func TestWithStateSeedsAndInspects(t *testing.T) {
	art, err := gallium.CompileBuiltin("firewall", gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen := iperfWorkload(4)
	// Seed and settle hooks run sequentially (engine construction and
	// session close), so plain counters are safe here.
	calls := 0
	finalRules := 0
	_, err = art.Run(context.Background(), gen,
		gallium.WithWorkers(2),
		gallium.WithState(func(shard int, st *ir.State) {
			calls++
			if calls <= 2 { // seeding phase: one call per shard
				for _, tup := range gen.Tuples() {
					middleboxes.AllowFlow(st, tup)
				}
				return
			}
			finalRules += st.Table("wl_out").Len() + st.Table("wl_in").Len()
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 4 {
		t.Errorf("WithState hook ran %d times, want 4 (2 shards seeded + 2 inspected)", calls)
	}
	if finalRules == 0 {
		t.Error("settle phase observed no seeded rules")
	}
}

// TestMalformedTableReplaceRefused: a TableReplace whose value tuples are
// wider than the table declares is refused when it compiles, before any
// shard state changes, and the session keeps feeding and closes cleanly.
func TestMalformedTableReplaceRefused(t *testing.T) {
	art, err := gallium.CompileBuiltin("firewall", gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen := iperfWorkload(4)
	ref, err := art.NewTestbed(gallium.TestbedConfig{}, gallium.WithScenario(), gallium.WithFlows(gen.Tuples()))
	if err != nil {
		t.Fatal(err)
	}
	want := ref.ServerState()
	var mu sync.Mutex
	s, err := gallium.Open(art, gallium.WithWorkers(2), gallium.WithScenario(), gallium.WithFlows(gen.Tuples()),
		gallium.WithState(func(shard int, st *ir.State) {
			mu.Lock()
			defer mu.Unlock()
			for _, name := range []string{"wl_out", "wl_in"} {
				if got, want := tableEntries(st, name), tableEntries(want, name); !reflect.DeepEqual(got, want) {
					t.Errorf("shard %d: %s = %v after the refused op, want %v", shard, name, got, want)
				}
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Feed(gen); err != nil {
		t.Fatal(err)
	}
	bad := gallium.TableReplace{Table: "wl_out", Entries: map[ir.MapKey][]uint64{ir.MakeMapKey(1, 2, 3, 4, 6): {1, 2}}}
	if err := s.Reconfigure(bad); err == nil || !strings.Contains(err.Error(), "2 values") {
		t.Fatalf("two-word value for a one-word table: %v", err)
	}
	if err := s.Feed(trafficgen.Shifted{WL: gen, OffsetNs: gen.DurationNs}); err != nil {
		t.Fatalf("feed after the refused op: %v", err)
	}
	rep, err := s.Close()
	if err != nil {
		t.Fatalf("close after the refused op: %v", err)
	}
	if st := rep.Stats; rep.Reconfigs != 0 || st.Delivered == 0 || st.Delivered != st.Injected {
		t.Errorf("after the refused op: %d reconfigs, %d of %d delivered", rep.Reconfigs, st.Delivered, st.Injected)
	}
}

// TestSessionServeSocket round-trips the full external control path: a
// served session, a ctlplane client, stats and a reconfiguration over the
// unix socket.
func TestSessionServeSocket(t *testing.T) {
	art, err := gallium.CompileBuiltin("firewall", gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen := iperfWorkload(4)
	s, err := gallium.Open(art,
		gallium.WithWorkers(2),
		gallium.WithScenario(),
		gallium.WithFlows(gen.Tuples()),
		gallium.WithFlowTable(gallium.FlowTable{Capacity: 4096}),
	)
	if err != nil {
		t.Fatal(err)
	}
	sock := t.TempDir() + "/ctl.sock"
	srv, err := s.Serve(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := s.Feed(gen); err != nil {
		t.Fatal(err)
	}
	c, err := ctlplane.Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Do(ctlplane.Request{Op: ctlplane.OpPing}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(ctlplane.Request{Op: ctlplane.OpStats})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats == nil || resp.Stats.Stats.Injected == 0 {
		t.Fatalf("stats over socket: %+v", resp.Stats)
	}
	if len(resp.Stats.SwitchStages) != 1 || len(resp.Stats.StageNames) != 1 || resp.Stats.StageNames[0] != "firewall" {
		t.Fatalf("stage stats: %v %+v", resp.Stats.StageNames, resp.Stats.SwitchStages)
	}
	if resp.Stats.Flow == nil || resp.Stats.Flow.Capacity != 4096 {
		t.Fatalf("flow stats over socket = %+v, want capacity 4096", resp.Stats.Flow)
	}
	// A live flow-table retune through the wire protocol, visible in the
	// next stats read.
	_, err = c.Do(ctlplane.Request{
		Op:        ctlplane.OpFlowTable,
		FlowTable: &gallium.FlowTable{Capacity: 2048},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp, err = c.Do(ctlplane.Request{Op: ctlplane.OpStats}); err != nil {
		t.Fatal(err)
	}
	if resp.Stats.Flow.Capacity != 2048 {
		t.Fatalf("flow capacity after retune = %d, want 2048", resp.Stats.Flow.Capacity)
	}
	// A by-name reconfiguration through the wire protocol.
	_, err = c.Do(ctlplane.Request{
		Op: ctlplane.OpFirewallSwap, StageName: "firewall",
		Rules: []packet.FiveTuple{{
			SrcIP: packet.MakeIPv4Addr(10, 0, 0, 1), DstIP: packet.MakeIPv4Addr(93, 184, 216, 34),
			SrcPort: 40000, DstPort: 5001, Proto: packet.IPProtocolTCP,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Unknown stage names and malformed ops come back as errors, not
	// hangups.
	if _, err := c.Do(ctlplane.Request{Op: ctlplane.OpFirewallSwap, StageName: "nat"}); err == nil {
		t.Error("swap against a missing stage succeeded")
	}
	if _, err := c.Do(ctlplane.Request{Op: "no-such-op"}); err == nil {
		t.Error("unknown op succeeded")
	}
	rep, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reconfigs != 2 {
		t.Errorf("socket reconfigurations (firewall swap + flow-table retune) not counted: %d", rep.Reconfigs)
	}
}

// TestOpenSoftwareMode: sessions work for the unpartitioned baseline too —
// reconfiguration is a pure server-state change (no switch stages).
func TestOpenSoftwareMode(t *testing.T) {
	art, err := gallium.CompileBuiltin("firewall", gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen := iperfWorkload(4)
	s, err := gallium.Open(art,
		gallium.WithMode(gallium.Software),
		gallium.WithWorkers(2),
		gallium.WithScenario(),
		gallium.WithFlows(gen.Tuples()),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Feed(gen); err != nil {
		t.Fatal(err)
	}
	if err := s.Reconfigure(gallium.FirewallRuleSwap{Rules: gen.Tuples()}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.SwitchStages) != 0 {
		t.Error("software session reports switch stages")
	}
	if rep.Reconfigs != 1 {
		t.Errorf("software reconfig not counted: %d", rep.Reconfigs)
	}
}

// TestPipelineOpenDrainUptime covers the long-lived handle over a
// chained pipeline: Open (the Pipeline counterpart of gallium.Open),
// the Drain quiescence barrier, and the Uptime clock.
func TestPipelineOpenDrainUptime(t *testing.T) {
	var arts []*gallium.Artifacts
	for _, name := range []string{"firewall", "l4lb"} {
		art, err := gallium.CompileBuiltin(name, gallium.Options{})
		if err != nil {
			t.Fatal(err)
		}
		arts = append(arts, art)
	}
	chain, err := gallium.Chain(arts...)
	if err != nil {
		t.Fatal(err)
	}
	gen := iperfWorkload(6)
	s, err := chain.Open(
		gallium.WithWorkers(2),
		gallium.WithScenario(),
		gallium.WithFlows(gen.Tuples()),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Feed(gen); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if s.Uptime() <= 0 {
		t.Error("session uptime is zero after traffic")
	}
	rep, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Injected == 0 {
		t.Error("pipeline session saw no traffic")
	}
	if len(rep.SwitchStages) != 2 {
		t.Errorf("report covers %d stages, want 2", len(rep.SwitchStages))
	}
}

// tableEntries copies the named map's entries out of st.
func tableEntries(st *ir.State, name string) map[ir.MapKey][]uint64 {
	tb := st.Table(name)
	out := make(map[ir.MapKey][]uint64, tb.Len())
	tb.Range(func(e int32) bool {
		out[tb.Key(e)] = slices.Clone(tb.Vals(e))
		return true
	})
	return out
}
