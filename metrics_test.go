package gallium_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	gallium "gallium"
	"gallium/internal/engine"
	"gallium/internal/obs"
	"gallium/internal/packet"
	"gallium/internal/switchsim"
	"gallium/internal/trafficgen"
)

// TestRegistryMatchesReport: the registry reads the counters the switch,
// walker and engine keep, so once a run has settled every metric equals
// the Report or Stats field it reads — for a metered chain on the engine,
// for the sequential testbed, and for a switch instrumented twice.
func TestRegistryMatchesReport(t *testing.T) {
	t.Run("chain", func(t *testing.T) {
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
		gen := iperfWorkload(6)
		reg := obs.NewRegistry()
		s, err := chain.Open(
			gallium.WithWorkers(2),
			gallium.WithScenario(),
			gallium.WithFlows(gen.Tuples()),
			gallium.WithMetrics(reg),
			// Small enough to evict, so the expiry counts move too.
			gallium.WithFlowTable(gallium.FlowTable{Capacity: 8}),
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
		if mid.Stats.Injected == 0 {
			t.Fatal("first feed injected nothing")
		}
		checkEngineMetrics(t, reg.Snapshot(), mid)
		if err := s.Reconfigure(gallium.FirewallRuleSwap{Rules: gen.Tuples()}); err != nil {
			t.Fatal(err)
		}
		// Snapshots read what the workers publish while they run.
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					reg.Snapshot()
				}
			}
		}()
		err = s.Feed(trafficgen.Shifted{WL: gen, OffsetNs: gen.DurationNs})
		close(done)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		// Single dispatches into parked workers run on this goroutine and
		// count in engine.borrowed.
		for _, tup := range gen.Tuples() {
			pkt := packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort, packet.TCPOptions{Flags: packet.TCPFlagACK})
			if _, err := s.Dispatch(2*gen.DurationNs, pkt); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := s.Close()
		if err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		checkEngineMetrics(t, snap, rep)
		checkSwitchMetrics(t, snap, rep.SwitchStages)
		if rep.Flow == nil || rep.Flow.Evicted == 0 {
			t.Errorf("flow table never evicted: %+v", rep.Flow)
		}
		for name, want := range map[string]uint64{
			"engine.reconfigs":      uint64(rep.Reconfigs),
			"engine.flow.occupancy": rep.Flow.Occupancy,
			"engine.flow.expired":   rep.Flow.Expired,
			"engine.flow.evicted":   rep.Flow.Evicted,
		} {
			if got := snap.Counters[name]; got != want {
				t.Errorf("%s = %d, report says %d", name, got, want)
			}
		}
		if got := snap.Histograms["engine.latency_ns"].Count; got != rep.Latency.Count {
			t.Errorf("engine.latency_ns count = %d, report says %d", got, rep.Latency.Count)
		}
		// The walker metrics: every delivery is fast or slow, and each
		// worker is one server core.
		fast, okF := snap.Histograms["engine.latency_ns.fast"]
		slow, okS := snap.Histograms["engine.latency_ns.slow"]
		if !okF || !okS || fast.Count+slow.Count != rep.Latency.Count {
			t.Errorf("engine.latency_ns.fast + .slow = %d + %d (present %v, %v), report says %d",
				fast.Count, slow.Count, okF, okS, rep.Latency.Count)
		}
		for _, name := range []string{"server.queue.wait_ns", "switch.ctl.stall_ns"} {
			if _, ok := snap.Histograms[name]; !ok {
				t.Errorf("histogram %s missing", name)
			}
		}
		var corePkts uint64
		for i := range rep.PerWorker {
			for _, m := range []string{"packets", "busy_ns"} {
				name := fmt.Sprintf("core.%d.%s", i, m)
				if _, ok := snap.Counters[name]; !ok {
					t.Errorf("counter %s missing", name)
				}
			}
			corePkts += snap.Counters[fmt.Sprintf("core.%d.packets", i)]
		}
		if got := snap.Histograms["server.queue.wait_ns"].Count; got != corePkts {
			t.Errorf("server.queue.wait_ns count = %d, the cores served %d packets", got, corePkts)
		}
	})

	t.Run("testbed", func(t *testing.T) {
		art, err := gallium.CompileBuiltin("mazunat", gallium.Options{})
		if err != nil {
			t.Fatal(err)
		}
		gen := iperfWorkload(6)
		reg := obs.NewRegistry()
		tb, err := art.NewTestbed(gallium.TestbedConfig{}, gallium.WithScenario(), gallium.WithFlows(gen.Tuples()), gallium.WithMetrics(reg))
		if err != nil {
			t.Fatal(err)
		}
		if err := gen.Generate(func(tNs int64, p *packet.Packet) error {
			_, err := tb.Inject(tNs, p)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		st := tb.Report().Stats
		if st.Injected == 0 {
			t.Fatal("nothing injected")
		}
		checkEngineMetrics(t, snap, tb.Report())
		checkSwitchMetrics(t, snap, []switchsim.Stats{tb.Switch().Stats()})
	})

	t.Run("instrument-twice", func(t *testing.T) {
		art, err := gallium.CompileBuiltin("mazunat", gallium.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tb, err := art.NewTestbed(gallium.TestbedConfig{}, gallium.WithCostModel(engine.InstantModel()), gallium.WithScenario())
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		tb.Switch().Instrument(reg)
		tb.Switch().Instrument(reg)
		for _, tup := range iperfWorkload(4).Tuples() {
			for i := 0; i < 3; i++ {
				p := packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort, packet.TCPOptions{})
				if _, err := tb.Inject(0, p); err != nil {
					t.Fatal(err)
				}
			}
		}
		snap := reg.Snapshot()
		st := tb.Switch().Stats()
		if st.FastPath == 0 {
			t.Fatal("no packet took the fast path")
		}
		checkSwitchMetrics(t, snap, []switchsim.Stats{st})
		var lookups uint64
		for name, v := range snap.Counters {
			if strings.HasSuffix(name, ".lookups") {
				lookups += v
			}
		}
		// mazunat's pre-pass looks up one table per packet.
		if want := uint64(st.PrePackets); lookups != want {
			t.Errorf("lookups = %d, want %d: one per pre-pass", lookups, want)
		}
	})
}

// checkEngineMetrics checks engine.* against the report's aggregate and
// engine.worker.<i>.* against its per-worker stats.
func checkEngineMetrics(t *testing.T, snap *obs.Snapshot, rep *gallium.Report) {
	t.Helper()
	check := func(prefix string, s engine.Stats) {
		for name, want := range map[string]int{
			"packets":      s.Injected,
			"delivered":    s.Delivered,
			"fastpath":     s.FastPath,
			"slowpath":     s.SlowPath,
			"mb_drops":     s.MBDrops,
			"queue_drops":  s.QueueDrops,
			"ctl_rejected": s.CtlRejected,
		} {
			if got := snap.Counters[prefix+name]; got != uint64(want) {
				t.Errorf("%s%s = %d, report says %d", prefix, name, got, want)
			}
		}
	}
	check("engine.", rep.Stats)
	if got := snap.Counters["engine.borrowed"]; got != uint64(rep.Borrowed) {
		t.Errorf("engine.borrowed = %d, report says %d", got, rep.Borrowed)
	}
	for i, s := range rep.PerWorker {
		check(fmt.Sprintf("engine.worker.%d.", i), s)
	}
}

// checkSwitchMetrics checks every switch.* metric in snap: a count equals
// its Stats field summed over the switches, switch.ctl.staged equals
// CtlOps - CtlFlips, a table's entries its size, and its lookups its hits
// plus misses. A switch.* counter the check does not know is an error.
func checkSwitchMetrics(t *testing.T, snap *obs.Snapshot, stages []switchsim.Stats) {
	t.Helper()
	want := map[string]int{}
	wantGauges := map[string]int64{}
	for _, s := range stages {
		want["switch.pre.packets"] += s.PrePackets
		want["switch.post.packets"] += s.PostPackets
		want["switch.fastpath"] += s.FastPath
		want["switch.to_server"] += s.ToServer
		want["switch.punts"] += s.Punts
		want["switch.drops"] += s.Drops
		want["switch.evictions"] += s.Evictions
		want["switch.expired"] += s.Expired
		want["switch.ctl.ops"] += s.CtlOps
		want["switch.ctl.flips"] += s.CtlFlips
		want["switch.ctl.staged"] += s.CtlOps - s.CtlFlips
		want["switch.ctl.reconfigs"] += s.Reconfigs
		wantGauges["switch.snapshot.epoch"] += int64(s.Epoch)
		for name, n := range s.TableEntries {
			wantGauges["switch.table."+name+".entries"] += int64(n)
		}
	}
	for name, w := range want {
		if got, ok := snap.Counters[name]; !ok || got != uint64(w) {
			t.Errorf("%s = %d (present %v), Stats says %d", name, got, ok, w)
		}
	}
	for name, w := range wantGauges {
		if got, ok := snap.Gauges[name]; !ok || got != w {
			t.Errorf("gauge %s = %d (present %v), Stats says %d", name, got, ok, w)
		}
	}
	// Every pass observes its steps once.
	for _, pass := range []string{"pre", "post"} {
		h, ok := snap.Histograms["switch."+pass+".steps"]
		if w := want["switch."+pass+".packets"]; !ok || h.Count != uint64(w) {
			t.Errorf("switch.%s.steps count = %d (present %v), Stats says %d passes", pass, h.Count, ok, w)
		}
	}
	for name, v := range snap.Counters {
		if !strings.HasPrefix(name, "switch.") {
			continue
		}
		if table, ok := strings.CutSuffix(name, ".lookups"); ok {
			if hm := snap.Counters[table+".hits"] + snap.Counters[table+".misses"]; v != hm {
				t.Errorf("%s = %d, hits + misses = %d", name, v, hm)
			}
			continue
		}
		_, known := want[name]
		if !known && !strings.HasSuffix(name, ".hits") && !strings.HasSuffix(name, ".misses") {
			t.Errorf("switch counter %s is not checked against Stats", name)
		}
	}
}

// TestTraceSnapshotDuringFeed: traces are recorded by the engine's
// workers while other goroutines snapshot the registry. A snapshot copies
// only traces whose walk has ended, so under -race it must never read a
// hop a worker is still appending, and once the feed has settled every
// trace is complete: its last hop is the packet's fate.
func TestTraceSnapshotDuringFeed(t *testing.T) {
	art, err := gallium.CompileBuiltin("mazunat", gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen := iperfWorkload(8)
	const traced = 64
	reg := obs.NewRegistry()
	reg.EnableTracing(traced)
	s, err := gallium.Open(art, gallium.WithWorkers(2), gallium.WithScenario(), gallium.WithFlows(gen.Tuples()), gallium.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				for _, tr := range reg.Snapshot().Traces {
					for _, h := range tr.Hops {
						_ = h.Site + h.Action + h.Note
					}
				}
			}
		}
	}()
	err = s.Feed(gen)
	close(done)
	wg.Wait()
	if _, cerr := s.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	traces := reg.Snapshot().Traces
	if len(traces) != traced {
		t.Fatalf("recorded %d traces, want %d", len(traces), traced)
	}
	for i, tr := range traces {
		if tr.ID != i {
			t.Errorf("trace %d has ID %d: traces are not in Start order", i, tr.ID)
		}
		if n := len(tr.Hops); n < 2 || tr.Hops[0].Site != "inject" || (tr.Hops[n-1].Site != "deliver" && tr.Hops[n-1].Site != "drop") {
			t.Errorf("trace %d is incomplete:\n%s", i, tr.Format())
		}
	}
}
