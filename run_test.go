package gallium_test

import (
	"context"
	"math"
	"sync"
	"testing"

	gallium "gallium"
	"gallium/internal/engine"
	"gallium/internal/obs"
	"gallium/internal/packet"
	"gallium/internal/trafficgen"
)

func iperfWorkload(conns int) trafficgen.IperfConfig {
	return trafficgen.IperfConfig{
		Conns:      conns,
		PPS:        1e6,
		DurationNs: 2_000_000, // 2ms of traffic
		Seed:       42,
	}
}

// TestRunFirewallScenario is the facade quickstart path: compile a
// builtin, stream an iperf workload through the concurrent engine with
// the standard scenario, and read the report.
func TestRunFirewallScenario(t *testing.T) {
	art, err := gallium.CompileBuiltin("firewall", gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rep, err := art.Run(context.Background(), iperfWorkload(8),
		gallium.WithWorkers(4),
		gallium.WithScenario(),
		gallium.WithMetrics(reg),
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Injected == 0 || rep.Stats.Delivered != rep.Stats.Injected {
		t.Fatalf("whitelisted traffic not fully delivered: %+v", rep.Stats)
	}
	// The firewall fully offloads: every packet is fast path.
	if rep.Stats.FastPath != rep.Stats.Injected {
		t.Errorf("fast path %d of %d", rep.Stats.FastPath, rep.Stats.Injected)
	}
	if rep.PPS <= 0 {
		t.Error("report has no wall-clock throughput")
	}
	if rep.Latency.Count != uint64(rep.Stats.Delivered) {
		t.Errorf("latency count %d != delivered %d", rep.Latency.Count, rep.Stats.Delivered)
	}
	snap := reg.Snapshot()
	if snap.Counters["engine.packets"] != uint64(rep.Stats.Injected) {
		t.Errorf("engine.packets = %d, want %d", snap.Counters["engine.packets"], rep.Stats.Injected)
	}
	if rep.Workers != 4 || len(rep.PerWorker) != 4 {
		t.Errorf("per-worker reporting: %d/%d", rep.Workers, len(rep.PerWorker))
	}
}

// TestRunNATScenarioShardsAllocator: WithScenario must partition mazunat's
// port allocator across shards so concurrent flows never collide.
func TestRunNATScenarioShardsAllocator(t *testing.T) {
	art, err := gallium.CompileBuiltin("mazunat", gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	ports := map[packet.FiveTuple]uint16{}
	rep, err := art.Run(context.Background(), iperfWorkload(12),
		gallium.WithWorkers(4),
		gallium.WithScenario(),
		gallium.WithDeliveries(func(d gallium.Delivery) {
			if !d.Delivered {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if _, ok := ports[d.Flow]; !ok {
				ports[d.Flow] = d.Pkt.TCP.SrcPort
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Delivered == 0 || rep.Stats.CtlBatches == 0 {
		t.Fatalf("NAT run did not exercise the control plane: %+v", rep.Stats)
	}
	seen := map[uint16]bool{}
	for tup, p := range ports {
		if seen[p] {
			t.Fatalf("external port %d allocated twice (flow %v)", p, tup)
		}
		seen[p] = true
	}
	if len(ports) != 12 {
		t.Errorf("allocated for %d flows, want 12", len(ports))
	}
}

// TestRunSoftwareMode drives the unpartitioned baseline through Run. Its
// server runs every packet through the whole program, so it counts them
// as full-program runs (server.full.*), not partition runs.
func TestRunSoftwareMode(t *testing.T) {
	art, err := gallium.CompileBuiltin("firewall", gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rep, err := art.Run(context.Background(), iperfWorkload(4),
		gallium.WithMode(gallium.Software),
		gallium.WithWorkers(2),
		gallium.WithScenario(),
		gallium.WithMetrics(reg),
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Delivered != rep.Stats.Injected {
		t.Fatalf("software baseline dropped traffic: %+v", rep.Stats)
	}
	if rep.Stats.SlowPath != rep.Stats.Injected {
		t.Errorf("software baseline must process every packet on the server")
	}
	if len(rep.SwitchStages) != 0 {
		t.Error("software report carries switch stats")
	}
	c := reg.Snapshot().Counters
	if got := c["server.full.packets"]; got != uint64(rep.Stats.SlowPath) {
		t.Errorf("server.full.packets = %d, want the %d slow-path packets", got, rep.Stats.SlowPath)
	}
	m := engine.DefaultModel()
	if steps, want := c["server.full.steps"], (rep.Stats.ServerCycles-m.PerPacketCycles*float64(rep.Stats.SlowPath))/m.PerStepCycles; math.Abs(float64(steps)-want) > 0.5 {
		t.Errorf("server.full.steps = %d, want the %.1f the cycle count charges", steps, want)
	}
	if c["server.packets"] != 0 || c["server.steps"] != 0 {
		t.Errorf("software runs counted as partition runs: server.packets %d, server.steps %d", c["server.packets"], c["server.steps"])
	}
}

// TestRunContextCancellation: the facade threads ctx through to the
// engine.
func TestRunContextCancellation(t *testing.T) {
	art, err := gallium.CompileBuiltin("firewall", gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := art.Run(ctx, iperfWorkload(4), gallium.WithScenario()); err == nil {
		t.Fatal("canceled Run succeeded")
	}
}
