package engine

import (
	"context"
	"testing"
	"time"

	"gallium/internal/flowstate"
	"gallium/internal/ir"
	"gallium/internal/packet"
	"gallium/internal/switchsim"
)

// burst emits perFlow ACK packets for every flow, rounds gapNs apart,
// starting at startNs — explicit virtual-time control for expiry tests.
func burst(flows []packet.FiveTuple, perFlow int, startNs, gapNs int64) scripted {
	return scripted{
		tuples: flows,
		gen: func(emit func(int64, *packet.Packet) error) error {
			for i := 0; i < perFlow; i++ {
				tNs := startNs + int64(i)*gapNs
				for _, tup := range flows {
					pkt := packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort,
						packet.TCPOptions{Flags: packet.TCPFlagACK, Seq: uint32(i)})
					if err := emit(tNs, pkt); err != nil {
						return err
					}
					tNs++
				}
			}
			return nil
		},
	}
}

// aggressiveFlowTable is a lifecycle config with 1ms timeouts on every
// class and a sweep after every packet — expiry fires within test-sized
// virtual-time traces.
func aggressiveFlowTable(capacity int) *flowstate.Config {
	ms := time.Millisecond
	return &flowstate.Config{
		Capacity:    capacity,
		TCPTimeouts: flowstate.TCPTimeouts{Syn: ms, Established: ms, Fin: ms},
		UDPTimeout:  ms,
		SweepEvery:  1,
	}
}

// serverConns sums the l4lb connection entries across shard states.
func serverConns(e *Engine) (int, []ir.MapKey) {
	n := 0
	var keys []ir.MapKey
	for _, st := range e.ShardStatesAt(0) {
		for k := range st.Maps["conns"] {
			keys = append(keys, k)
		}
		n += len(st.Maps["conns"])
	}
	return n, keys
}

// TestFlowExpiryEndToEnd: idle flows expire out of both the server
// shard state and the switch-visible table, while flows that keep
// talking survive. The expiry deletions ride the §4.3.3 write-back
// path, so after the run the switch serves exactly the server's
// surviving entries — no stale window, no resurrection.
func TestFlowExpiryEndToEnd(t *testing.T) {
	_, res := compileMB(t, "l4lb")
	flows := lbFlows(8)
	idle, live := flows[:4], flows[4:]

	eng, err := New(Config{
		Workers:   1,
		Stages:    oneStage(res, setupLB),
		FlowTable: aggressiveFlowTable(1000),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Phase 1: everybody talks around t=0. Phase 2: only the live half
	// talks again at t=10ms, far past the 1ms idle timeout.
	if err := eng.Feed(burst(flows, 3, 0, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Feed(burst(live, 3, int64(10*time.Millisecond), 1000)); err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Stop()
	if err != nil {
		t.Fatal(err)
	}

	if rep.Stats.Delivered != 8*3+4*3 {
		t.Fatalf("delivered %d of %d", rep.Stats.Delivered, 8*3+4*3)
	}
	if rep.Flow == nil {
		t.Fatal("report carries no flow-table section")
	}
	if rep.Flow.Capacity != 1000 {
		t.Fatalf("flow capacity = %d, want 1000", rep.Flow.Capacity)
	}
	if rep.Flow.Expired < uint64(len(idle)) {
		t.Fatalf("expired = %d, want >= %d (the idle half)", rep.Flow.Expired, len(idle))
	}

	n, keys := serverConns(eng)
	if n != len(live) {
		t.Fatalf("server holds %d conns after expiry, want %d", n, len(live))
	}
	if rep.Flow.Occupancy != uint64(n) {
		t.Fatalf("reported occupancy %d != server occupancy %d", rep.Flow.Occupancy, n)
	}
	// Switch/server agreement: every surviving server entry is visible
	// on the switch, and the switch table holds nothing else.
	for _, k := range keys {
		if visible, _ := eng.sws[0].VisibleEntry("conns", k); !visible {
			t.Fatalf("surviving server entry %v not visible on the switch", k)
		}
	}
	if sws := eng.sws[0].Stats(); sws.TableEntries["conns"] != n {
		t.Fatalf("switch table holds %d entries, server holds %d — expiry left a stale window",
			sws.TableEntries["conns"], n)
	}
	if sws := eng.sws[0].Stats(); sws.Expired < len(idle) {
		t.Fatalf("switch counted %d expiry deletes, want >= %d", sws.Expired, len(idle))
	}
}

// TestExpiryCannotResurrectStaleWindow pins the §4.3.3 ordering
// discipline at the switch layer, both directions:
//
//   - a stale insert staged BEFORE the expiry delete is superseded by
//     it (last-writer-wins): the entry cannot resurrect;
//   - a fresh re-establish staged AFTER the expiry delete supersedes
//     it: expiry cannot clobber the newer entry.
//
// The engine guarantees the orderings by construction — a worker applies
// its expiry deletes and slow-path write-backs on its own lane, in order.
func TestExpiryCannotResurrectStaleWindow(t *testing.T) {
	_, res := compileMB(t, "l4lb")
	sw := switchsim.New(res)
	key := ir.MakeMapKey(1, 2, 3, 4, 6)

	stage := func(u switchsim.Update) {
		t.Helper()
		if err := sw.StageShard(0, u); err != nil {
			t.Fatal(err)
		}
	}
	flip := func() {
		sw.FlipShard(0)
	}

	// Establish the entry through an ordinary write-back window.
	stage(switchsim.Update{Table: "conns", Key: key, Vals: []uint64{9}})
	flip()
	if visible, _ := sw.VisibleEntry("conns", key); !visible {
		t.Fatal("establish: entry not visible after flip")
	}

	// Direction 1: stale insert, then expiry delete, one window. The
	// delete is the last writer; the stale entry must not survive.
	stage(switchsim.Update{Table: "conns", Key: key, Vals: []uint64{9}})
	stage(switchsim.Update{Table: "conns", Key: key, Delete: true, Expire: true})
	flip()
	if visible, _ := sw.VisibleEntry("conns", key); visible {
		t.Fatal("expiry staged after a stale insert did not win: stale window resurrected")
	}
	if got := sw.Stats().Expired; got != 1 {
		t.Fatalf("switch expiry counter = %d, want 1", got)
	}

	// Direction 2: expiry delete, then fresh re-establish, one window.
	// The insert is the last writer; expiry must not clobber it.
	stage(switchsim.Update{Table: "conns", Key: key, Vals: []uint64{7}})
	flip()
	stage(switchsim.Update{Table: "conns", Key: key, Delete: true, Expire: true})
	stage(switchsim.Update{Table: "conns", Key: key, Vals: []uint64{11}})
	flip()
	if visible, _ := sw.VisibleEntry("conns", key); !visible {
		t.Fatal("re-establish staged after an expiry was clobbered by it")
	}

	// Across windows FIFO holds trivially: a later window's expiry
	// applies after an earlier window's insert.
	stage(switchsim.Update{Table: "conns", Key: key, Delete: true, Expire: true})
	flip()
	if visible, _ := sw.VisibleEntry("conns", key); visible {
		t.Fatal("later-window expiry did not remove the entry")
	}
}

// TestFlowCapacityEviction: over-capacity tables evict down to the
// bound (LRU), and the report says so.
func TestFlowCapacityEviction(t *testing.T) {
	_, res := compileMB(t, "l4lb")
	cfg := &flowstate.Config{
		Capacity:    8,
		TCPTimeouts: flowstate.TCPTimeouts{Syn: time.Hour, Established: time.Hour, Fin: time.Hour},
		UDPTimeout:  time.Hour,
		SweepEvery:  1,
	}
	eng, err := New(Config{
		Workers:   1,
		Stages:    oneStage(res, setupLB),
		FlowTable: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(context.Background(), burst(lbFlows(32), 1, 0, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Flow == nil || rep.Flow.Evicted == 0 {
		t.Fatalf("no evictions reported: %+v", rep.Flow)
	}
	n, keys := serverConns(eng)
	if n > 8 {
		t.Fatalf("server holds %d conns, capacity 8", n)
	}
	if rep.Flow.Occupancy != uint64(n) || rep.Flow.Peak < rep.Flow.Occupancy {
		t.Fatalf("flow report inconsistent with state: %+v vs %d entries", rep.Flow, n)
	}
	for _, k := range keys {
		if visible, _ := eng.sws[0].VisibleEntry("conns", k); !visible {
			t.Fatalf("surviving entry %v not visible on the switch", k)
		}
	}
	if sws := eng.sws[0].Stats(); sws.TableEntries["conns"] != n {
		t.Fatalf("switch holds %d entries, server %d", sws.TableEntries["conns"], n)
	}
}

// TestEvictNonePolicy: EvictNone reports the overflow without removing
// entries.
func TestEvictNonePolicy(t *testing.T) {
	_, res := compileMB(t, "l4lb")
	cfg := aggressiveFlowTable(4)
	cfg.EvictPolicy = flowstate.EvictNone
	cfg.TCPTimeouts = flowstate.TCPTimeouts{Syn: time.Hour, Established: time.Hour, Fin: time.Hour}
	cfg.UDPTimeout = time.Hour
	eng, err := New(Config{
		Workers:   1,
		Stages:    oneStage(res, setupLB),
		FlowTable: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(context.Background(), burst(lbFlows(16), 1, 0, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Flow.Evicted != 0 {
		t.Fatalf("EvictNone evicted %d entries", rep.Flow.Evicted)
	}
	if n, _ := serverConns(eng); n != 16 {
		t.Fatalf("server holds %d conns, want all 16 under EvictNone", n)
	}
	if rep.Flow.Occupancy != 16 {
		t.Fatalf("occupancy = %d, want 16", rep.Flow.Occupancy)
	}
}

// TestReconfigureFlowTableFirstArm: a session opened without a flow
// table gains one mid-run through Reconfigure; pre-arming entries are
// adopted (not expired retroactively) and then age out normally.
func TestReconfigureFlowTableFirstArm(t *testing.T) {
	_, res := compileMB(t, "l4lb")
	flows := lbFlows(6)
	eng, err := New(Config{
		Workers: 1,
		Stages:  oneStage(res, setupLB),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := eng.Feed(burst(flows, 2, 0, 1000)); err != nil {
		t.Fatal(err)
	}
	if eng.FlowConfig() != nil {
		t.Fatal("unarmed engine reports a flow config")
	}
	if rep, err := eng.LiveReport(); err != nil || rep.Flow != nil {
		t.Fatalf("unarmed engine reports a flow section: %+v, %v", rep.Flow, err)
	}

	if err := eng.Reconfigure(Reconfig{FlowTable: aggressiveFlowTable(500)}); err != nil {
		t.Fatal(err)
	}
	if got := eng.FlowConfig(); got == nil || got.Capacity != 500 {
		t.Fatalf("FlowConfig after arm = %+v", got)
	}
	// Distinct later flows keep virtual time moving. The first feed's
	// settle sweep adopts the pre-arming entries as touched-now (t=10ms);
	// the second feed, 2ms later, pushes them past the 1ms idle timeout.
	late := lbFlows(12)[6:]
	if err := eng.Feed(burst(late, 1, int64(10*time.Millisecond), 0)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Feed(burst(late, 1, int64(12*time.Millisecond), 0)); err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Flow == nil || rep.Flow.Capacity != 500 {
		t.Fatalf("flow report after first-arm: %+v", rep.Flow)
	}
	if rep.Flow.Expired < uint64(len(flows)) {
		t.Fatalf("expired = %d, want >= %d (the pre-arming flows)", rep.Flow.Expired, len(flows))
	}
}

// TestReconfigureFlowTableInvalid: a bad retune is rejected up front
// without disturbing the run.
func TestReconfigureFlowTableInvalid(t *testing.T) {
	_, res := compileMB(t, "l4lb")
	eng, err := New(Config{
		Workers:   1,
		Stages:    oneStage(res, setupLB),
		FlowTable: aggressiveFlowTable(100),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := eng.Reconfigure(Reconfig{FlowTable: &flowstate.Config{Capacity: -5}}); err == nil {
		t.Fatal("negative-capacity retune accepted")
	}
	if got := eng.FlowConfig(); got == nil || got.Capacity != 100 {
		t.Fatalf("failed retune disturbed the config: %+v", got)
	}
	if _, err := eng.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestInvalidFlowTableConfig: New rejects a bad lifecycle config.
func TestInvalidFlowTableConfig(t *testing.T) {
	_, res := compileMB(t, "l4lb")
	_, err := New(Config{
		Workers:   1,
		Stages:    oneStage(res, nil),
		FlowTable: &flowstate.Config{Capacity: 0},
	})
	if err == nil {
		t.Fatal("zero-capacity flow table accepted")
	}
}

// TestFlowLifecycleEightWorkersRace drives the lifecycle at 8 workers
// with per-packet sweeps, concurrent live reports, and a mid-stream
// retune — the -race soak for the tracker's atomics and the per-worker
// sweep/touch paths.
func TestFlowLifecycleEightWorkersRace(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrency soak; runs in full mode and CI (-race)")
	}
	_, res := compileMB(t, "l4lb")
	flows := lbFlows(64)
	eng, err := New(Config{
		Workers:   8,
		Stages:    oneStage(res, setupLB),
		FlowTable: aggressiveFlowTable(64),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- eng.Feed(roundRobin(flows, 40, 25))
	}()
	for i := 0; i < 4; i++ {
		if _, err := eng.LiveReport(); err != nil {
			t.Error(err)
			break
		}
		if i == 1 {
			retune := aggressiveFlowTable(128)
			retune.UDPTimeout = 2 * time.Millisecond
			if err := eng.Reconfigure(Reconfig{FlowTable: retune}); err != nil {
				t.Error(err)
				break
			}
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Delivered != 64*40 {
		t.Fatalf("delivered %d of %d", rep.Stats.Delivered, 64*40)
	}
	if rep.Flow == nil || rep.Flow.Capacity != 128 {
		t.Fatalf("flow report after retune: %+v", rep.Flow)
	}
}

// TestDefaultSweepKeepsLiveFlows: under the DEFAULT sweep cadence and
// budget, a NAT whose flow table (8,192 entries) comfortably holds the
// 3,000 flows in flight (two entries each) evicts only finished flows:
// every packet of a flow leaves with the port its SYN was given, and
// exactly one packet per flow — the SYN — takes the slow path.
func TestDefaultSweepKeepsLiveFlows(t *testing.T) {
	if testing.Short() {
		t.Skip("240k-packet churn; runs in full mode and CI (-race)")
	}
	_, res := compileMB(t, "mazunat")
	const inFlight, generations, perFlow = 3000, 20, 4
	dst := packet.MakeIPv4Addr(93, 184, 216, 34)
	// Each generation of 3,000 flows sends its SYNs, then three rounds of
	// ACKs, then is never heard from again.
	wl := scripted{gen: func(emit func(int64, *packet.Packet) error) error {
		tNs := int64(0)
		for g := 0; g < generations; g++ {
			for round := 0; round < perFlow; round++ {
				flags := uint8(packet.TCPFlagACK)
				if round == 0 {
					flags = packet.TCPFlagSYN
				}
				for s := 0; s < inFlight; s++ {
					i := g*inFlight + s // one internal host per flow
					src := packet.MakeIPv4Addr(10, byte(i>>16), byte(i>>8), byte(i))
					pkt := packet.BuildTCP(src, dst, 40000, 80, packet.TCPOptions{Flags: flags, Seq: uint32(round)})
					if err := emit(tNs, pkt); err != nil {
						return err
					}
					tNs += 1000
				}
			}
		}
		return nil
	}}

	day := 24 * time.Hour
	ports := make(map[packet.FiveTuple]uint16, inFlight*generations)
	moved, delivered := 0, 0
	eng, err := New(Config{
		Workers: 1,
		Stages:  oneStage(res, nil),
		FlowTable: &flowstate.Config{
			Capacity:    8192,
			TCPTimeouts: flowstate.TCPTimeouts{Syn: day, Established: day, Fin: day},
			UDPTimeout:  day,
		},
		// One worker: every callback runs on its goroutine, joined by Stop.
		OnDelivery: func(d Delivery) {
			if !d.Delivered {
				return
			}
			delivered++
			port, seen := ports[d.Flow]
			if !seen {
				ports[d.Flow] = d.Pkt.TCP.SrcPort
			} else if port != d.Pkt.TCP.SrcPort {
				moved++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := eng.Feed(wl); err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Stop()
	if err != nil {
		t.Fatal(err)
	}
	const flows, packets = inFlight * generations, inFlight * generations * perFlow
	if delivered != packets {
		t.Fatalf("delivered %d of %d packets", delivered, packets)
	}
	if moved != 0 {
		t.Errorf("%d of %d packets left with a different NAT port than their flow's SYN: live flows were evicted", moved, packets)
	}
	if rep.Stats.SlowPath != flows {
		t.Errorf("%d slow-path packets for %d flows, want one per flow", rep.Stats.SlowPath, flows)
	}
	if rep.Flow == nil || rep.Flow.Occupancy > 8192 || rep.Flow.Evicted == 0 {
		t.Errorf("flow report: %+v, want evictions and occupancy within 8192", rep.Flow)
	}
}
