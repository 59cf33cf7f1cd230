package engine

import (
	"context"
	"sync/atomic"
	"testing"

	"gallium/internal/ir"
	"gallium/internal/packet"
	"gallium/internal/switchsim"
)

// TestLiveLifecycle drives the long-lived Start / Feed / Reconfigure /
// LiveReport / Stop path directly (the session tests exercise it only
// through the facade) and pins the accessor surface, including the
// lifecycle guards on either side of the running window.
func TestLiveLifecycle(t *testing.T) {
	_, res := compileMB(t, "l4lb")
	eng, err := New(Config{
		Workers: 2,
		Stages:  oneStage(res, setupLB),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Before Start: guarded entry points refuse, accessors are inert.
	if eng.Uptime() != 0 {
		t.Error("uptime nonzero before Start")
	}
	if err := eng.Reconfigure(Reconfig{}); err == nil {
		t.Error("Reconfigure before Start did not fail")
	}
	if _, err := eng.LiveReport(); err == nil {
		t.Error("LiveReport before Start did not fail")
	}

	if err := eng.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	flows := lbFlows(8)
	if err := eng.Feed(roundRobin(flows, 5, -1)); err != nil {
		t.Fatal(err)
	}

	// A live snapshot between feeds accounts for everything dispatched.
	mid, err := eng.LiveReport()
	if err != nil {
		t.Fatal(err)
	}
	if mid.Stats.Injected != 40 {
		t.Fatalf("live report injected %d, want 40", mid.Stats.Injected)
	}
	if got := mid.Stats.Delivered + mid.Stats.MBDrops + mid.Stats.QueueDrops; got != 40 {
		t.Fatalf("live report accounts for %d of 40", got)
	}

	// Reconfigure with a per-shard mutation: it must run once per worker
	// against a real shard state, and the engine must keep flowing after.
	var mutations atomic.Int32
	err = eng.Reconfigure(Reconfig{
		Mutate: func(shard int, st *ir.State) []switchsim.Update {
			if st == nil {
				t.Errorf("shard %d mutated against nil state", shard)
			}
			mutations.Add(1)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := mutations.Load(); got != 2 {
		t.Errorf("mutation ran on %d shards, want 2", got)
	}
	if err := eng.Reconfigure(Reconfig{Stage: 5}); err == nil {
		t.Error("out-of-range stage accepted")
	}

	// Accessors while running.
	if eng.Stages() != 1 {
		t.Errorf("Stages = %d, want 1", eng.Stages())
	}
	if eng.StageName(99) != "" {
		t.Error("out-of-range StageName is not empty")
	}
	_ = eng.StageName(0)
	if eng.Uptime() <= 0 {
		t.Error("uptime zero while running")
	}
	if _, ok := eng.SwitchStatsAt(0); !ok {
		t.Error("offloaded engine reports no switch stats")
	}
	if _, ok := eng.SwitchStatsAt(99); ok {
		t.Error("out-of-range stage reported switch stats")
	}

	// Injection times are monotone across feeds, so the second workload
	// replays the first shifted past its last timestamp.
	first := roundRobin(flows, 5, -1)
	shifted := scripted{tuples: flows, gen: func(emit func(int64, *packet.Packet) error) error {
		return first.gen(func(tNs int64, pkt *packet.Packet) error {
			return emit(tNs+1_000_000, pkt)
		})
	}}
	if err := eng.Feed(shifted); err != nil {
		t.Fatal(err)
	}
	final, err := eng.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if final.Stats.Injected != 80 {
		t.Errorf("final injected %d, want 80", final.Stats.Injected)
	}

	// After Stop: shard states are observable, live entry points refuse.
	states := eng.ShardStatesAt(0)
	if len(states) != 2 || states[0] == nil || states[1] == nil {
		t.Fatalf("ShardStatesAt(0) = %v, want 2 non-nil", states)
	}
	if _, err := eng.LiveReport(); err == nil {
		t.Error("LiveReport after Stop did not fail")
	}
	if err := eng.Reconfigure(Reconfig{}); err == nil {
		t.Error("Reconfigure after Stop did not fail")
	}
}
