package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gallium/internal/ir"
	"gallium/internal/lang"
	"gallium/internal/middleboxes"
	"gallium/internal/packet"
	"gallium/internal/partition"
)

func compileMB(t *testing.T, name string) (*ir.Program, *partition.Result) {
	t.Helper()
	spec, err := middleboxes.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.Compile(spec.Source)
	if err != nil {
		t.Fatal(err)
	}
	res, err := partition.Partition(prog, partition.DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	return prog, res
}

// oneStage is the single-middlebox pipeline most tests run.
func oneStage(res *partition.Result, setup func(shard int, st *ir.State)) []StageConfig {
	return []StageConfig{{Res: res, Setup: setup}}
}

// setupLB seeds a shard with the l4lb scenario.
func setupLB(_ int, st *ir.State) { middleboxes.ConfigureState("l4lb", st) }

// scripted is a minimal Workload for tests.
type scripted struct {
	tuples []packet.FiveTuple
	gen    func(emit func(int64, *packet.Packet) error) error
}

func (s scripted) Tuples() []packet.FiveTuple { return s.tuples }
func (s scripted) Generate(emit func(int64, *packet.Packet) error) error {
	return s.gen(emit)
}

// lbFlows builds n distinct client→VIP tuples.
func lbFlows(n int) []packet.FiveTuple {
	out := make([]packet.FiveTuple, n)
	for i := range out {
		out[i] = packet.FiveTuple{
			SrcIP:   packet.MakeIPv4Addr(172, 16, byte(i/250), byte(1+i%250)),
			DstIP:   packet.MakeIPv4Addr(10, 0, 2, 2),
			SrcPort: uint16(5000 + i),
			DstPort: 80,
			Proto:   packet.IPProtocolTCP,
		}
	}
	return out
}

// roundRobin interleaves perFlow packets of every flow, tagging each
// packet's TCP sequence number with its per-flow index, with an optional
// FIN at index finAt (teardown exercises deletes mid-stream).
func roundRobin(flows []packet.FiveTuple, perFlow, finAt int) scripted {
	return scripted{
		tuples: flows,
		gen: func(emit func(int64, *packet.Packet) error) error {
			tNs := int64(0)
			for i := 0; i < perFlow; i++ {
				for _, tup := range flows {
					flags := packet.TCPFlagACK
					if i == finAt {
						flags = packet.TCPFlagFIN
					}
					pkt := packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort,
						packet.TCPOptions{Flags: flags, Seq: uint32(i)})
					if err := emit(tNs, pkt); err != nil {
						return err
					}
					tNs += 1000
				}
			}
			return nil
		},
	}
}

// TestPerFlowOrderingEightWorkers is the tentpole property test: at 8
// workers, every flow's deliveries must appear in arrival order (per-flow
// FIFO + run-to-completion), even though flows interleave freely across
// worker goroutines. Run under -race in CI.
func TestPerFlowOrderingEightWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("1600-packet concurrency property; runs in full mode and CI (-race)")
	}
	_, res := compileMB(t, "l4lb")
	const nFlows, perFlow = 32, 50

	var mu sync.Mutex
	seqs := map[packet.FiveTuple][]uint32{}
	workersSeen := map[int]bool{}
	eng, err := New(Config{
		Workers: 8,
		Stages:  oneStage(res, setupLB),
		OnDelivery: func(d Delivery) {
			mu.Lock()
			defer mu.Unlock()
			if d.Delivered {
				seqs[d.Flow] = append(seqs[d.Flow], d.Pkt.TCP.Seq)
				workersSeen[d.Worker] = true
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(context.Background(), roundRobin(lbFlows(nFlows), perFlow, -1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Delivered != nFlows*perFlow {
		t.Fatalf("delivered %d of %d", rep.Stats.Delivered, nFlows*perFlow)
	}
	if rep.Stats.FastPath == 0 || rep.Stats.SlowPath == 0 {
		t.Fatalf("want both paths exercised: fast=%d slow=%d", rep.Stats.FastPath, rep.Stats.SlowPath)
	}
	if len(seqs) != nFlows {
		t.Fatalf("saw %d flows, want %d", len(seqs), nFlows)
	}
	for tup, got := range seqs {
		if len(got) != perFlow {
			t.Fatalf("flow %v: %d deliveries, want %d", tup, len(got), perFlow)
		}
		for i, s := range got {
			if s != uint32(i) {
				t.Fatalf("flow %v: delivery %d carries seq %d — per-flow order violated", tup, i, s)
			}
		}
	}
	if len(workersSeen) < 2 {
		t.Errorf("flows landed on %d worker(s); dispatcher did not spread load", len(workersSeen))
	}
	if rep.Workers != 8 || len(rep.PerWorker) != 8 {
		t.Errorf("report workers = %d/%d, want 8", rep.Workers, len(rep.PerWorker))
	}
}

// flowFate is one delivery's observable outcome.
type flowFate struct {
	delivered, mbDropped, queueDropped bool
	dstIP                              packet.IPv4Addr
	seq                                uint32
}

func runLB(t *testing.T, workers int, wl Workload) (map[packet.FiveTuple][]flowFate, *Report) {
	t.Helper()
	_, res := compileMB(t, "l4lb")
	var mu sync.Mutex
	fates := map[packet.FiveTuple][]flowFate{}
	eng, err := New(Config{
		Workers: workers,
		Stages:  oneStage(res, setupLB),
		OnDelivery: func(d Delivery) {
			mu.Lock()
			defer mu.Unlock()
			fates[d.Flow] = append(fates[d.Flow], flowFate{
				delivered: d.Delivered, mbDropped: d.MBDropped, queueDropped: d.QueueDropped,
				dstIP: d.Pkt.IP.DstIP, seq: d.Pkt.TCP.Seq,
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(context.Background(), wl)
	if err != nil {
		t.Fatal(err)
	}
	return fates, rep
}

// TestShardEquivalenceOneVsEightWorkers: sharding is an implementation
// detail — per-flow fates (actions and header rewrites), including across
// a mid-stream FIN teardown and re-insert, must match a 1-worker run
// exactly. This is the run-to-completion equivalence claim.
func TestShardEquivalenceOneVsEightWorkers(t *testing.T) {
	flows := lbFlows(24)
	one, _ := runLB(t, 1, roundRobin(flows, 30, 20))
	eight, _ := runLB(t, 8, roundRobin(flows, 30, 20))
	if len(one) != len(eight) {
		t.Fatalf("flow counts differ: %d vs %d", len(one), len(eight))
	}
	for tup, a := range one {
		b, ok := eight[tup]
		if !ok {
			t.Fatalf("flow %v missing at 8 workers", tup)
		}
		if len(a) != len(b) {
			t.Fatalf("flow %v: %d vs %d fates", tup, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("flow %v packet %d: 1-worker %+v vs 8-worker %+v", tup, i, a[i], b[i])
			}
		}
	}
}

// TestRunContextCancellation: canceling the context mid-stream aborts the
// run promptly, drains without deadlock, and reports the cancellation.
func TestRunContextCancellation(t *testing.T) {
	_, res := compileMB(t, "l4lb")
	ctx, cancel := context.WithCancel(context.Background())
	var n int64
	var mu sync.Mutex
	eng, err := New(Config{
		Workers: 4,
		Stages:  oneStage(res, setupLB),
		OnDelivery: func(d Delivery) {
			mu.Lock()
			n++
			if n == 100 {
				cancel()
			}
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Effectively unbounded workload: only cancellation ends it.
	wl := scripted{gen: func(emit func(int64, *packet.Packet) error) error {
		flows := lbFlows(16)
		for i := 0; ; i++ {
			tup := flows[i%len(flows)]
			pkt := packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort,
				packet.TCPOptions{Flags: packet.TCPFlagACK})
			if err := emit(int64(i)*1000, pkt); err != nil {
				return err
			}
		}
	}}
	_, err = eng.Run(ctx, wl)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
}

// TestEngineSoftwareMode runs the unpartitioned baseline across shards.
func TestEngineSoftwareMode(t *testing.T) {
	prog, _ := compileMB(t, "l4lb")
	eng, err := New(Config{
		Mode:    2, // netsim.Software without importing it here
		Workers: 4,
		Stages:  []StageConfig{{Prog: prog, Setup: setupLB}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(context.Background(), roundRobin(lbFlows(8), 20, -1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Delivered != 8*20 {
		t.Fatalf("delivered %d, want %d", rep.Stats.Delivered, 8*20)
	}
	if rep.Stats.SlowPath != rep.Stats.Injected {
		t.Errorf("software baseline must serve every packet on the server: slow=%d injected=%d",
			rep.Stats.SlowPath, rep.Stats.Injected)
	}
	if rep.Switch != nil {
		t.Error("software mode reported switch stats")
	}
}

// natFlows builds n internal→external tuples (mazunat translates them).
func natFlows(n int) []packet.FiveTuple {
	out := make([]packet.FiveTuple, n)
	for i := range out {
		out[i] = packet.FiveTuple{
			SrcIP:   packet.MakeIPv4Addr(10, 0, byte(i/200), byte(1+i%200)),
			DstIP:   packet.MakeIPv4Addr(93, 184, 216, 34),
			SrcPort: uint16(30000 + i),
			DstPort: 80,
			Proto:   packet.IPProtocolTCP,
		}
	}
	return out
}

// TestEveryWriteBackApplied: with a NAT insert per flow, by the time Run
// returns every staged entry is on the switch. Multiple packets per flow
// additionally pin the per-worker output commit: a flow's later packets
// must see its own write-back applied, so each flow allocates exactly one
// external port (no slow-path churn, no nat_rev bloat).
func TestEveryWriteBackApplied(t *testing.T) {
	if testing.Short() {
		t.Skip("write-back property over 200 flows; runs in full mode and CI (-race)")
	}
	_, res := compileMB(t, "mazunat")
	const nFlows = 200
	eng, err := New(Config{
		Workers: 4,
		Stages: oneStage(res, func(shard int, st *ir.State) {
			middleboxes.ConfigureShard("mazunat", shard, 4, st)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(context.Background(), roundRobin(natFlows(nFlows), 5, -1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Delivered != 5*nFlows {
		t.Fatalf("delivered %d, want %d", rep.Stats.Delivered, 5*nFlows)
	}
	if rep.Stats.CtlBatches == 0 || rep.Stats.CtlOps < 2*nFlows {
		t.Fatalf("control plane did not run: batches=%d ops=%d", rep.Stats.CtlBatches, rep.Stats.CtlOps)
	}
	sw, ok := eng.SwitchStatsAt(0)
	if !ok {
		t.Fatal("no switch stats")
	}
	if got := sw.TableEntries["nat_fwd"]; got != nFlows {
		t.Fatalf("nat_fwd holds %d entries after the run, want %d", got, nFlows)
	}
	if got := sw.TableEntries["nat_rev"]; got != nFlows {
		t.Fatalf("nat_rev holds %d entries, want %d — a flow re-allocated a port despite output commit", got, nFlows)
	}
}

// TestWriteBackVisibleAtDelivery pins §4.3.3 output commit on the worker:
// a packet leaves only once the switch serves the write-back it made. The
// first packet of each new NAT flow takes the slow path and inserts the
// flow's nat_fwd mapping; inside that packet's delivery callback the key
// must already be visible on the switch, at one worker and at four.
func TestWriteBackVisibleAtDelivery(t *testing.T) {
	_, res := compileMB(t, "mazunat")
	flows := natFlows(200)
	fwdKey := func(tup packet.FiveTuple) ir.MapKey {
		return ir.MakeMapKey(uint64(tup.SrcIP), uint64(tup.SrcPort))
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var eng *Engine
			var slow, hidden atomic.Int64
			eng, err := New(Config{
				Workers: workers,
				Stages: oneStage(res, func(shard int, st *ir.State) {
					middleboxes.ConfigureShard("mazunat", shard, workers, st)
				}),
				OnDelivery: func(d Delivery) {
					if !d.Delivered || d.FastPath {
						return
					}
					slow.Add(1)
					if visible, _ := eng.sws[0].VisibleEntry("nat_fwd", fwdKey(d.Flow)); !visible {
						hidden.Add(1)
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Run(context.Background(), roundRobin(flows, 3, -1)); err != nil {
				t.Fatal(err)
			}
			if slow.Load() != int64(len(flows)) {
				t.Fatalf("%d slow-path deliveries for %d new flows, want one each", slow.Load(), len(flows))
			}
			if n := hidden.Load(); n != 0 {
				t.Errorf("%d of %d slow-path packets were delivered before the switch served their nat_fwd write-back", n, len(flows))
			}
			// The key encoding is the program's: after the run the switch
			// serves every flow's mapping under it.
			for _, tup := range flows {
				if visible, _ := eng.sws[0].VisibleEntry("nat_fwd", fwdKey(tup)); !visible {
					t.Fatalf("flow %v: nat_fwd key not served after the run", tup)
				}
			}
		})
	}
}

// TestMazunatShardedPortAllocation: ConfigureShard partitions the NAT's
// external-port space, so concurrent shards must never hand two flows the
// same external port, and every port must come from its shard's slice.
func TestMazunatShardedPortAllocation(t *testing.T) {
	_, res := compileMB(t, "mazunat")
	const workers, nFlows = 4, 64
	var mu sync.Mutex
	portOwner := map[uint16]packet.FiveTuple{}
	type alloc struct {
		port   uint16
		worker int
	}
	allocs := map[packet.FiveTuple]alloc{}
	eng, err := New(Config{
		Workers: workers,
		Stages: oneStage(res, func(shard int, st *ir.State) {
			middleboxes.ConfigureShard("mazunat", shard, workers, st)
		}),
		OnDelivery: func(d Delivery) {
			if !d.Delivered {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if _, seen := allocs[d.Flow]; !seen {
				allocs[d.Flow] = alloc{port: d.Pkt.TCP.SrcPort, worker: d.Worker}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), roundRobin(natFlows(nFlows), 3, -1)); err != nil {
		t.Fatal(err)
	}
	if len(allocs) != nFlows {
		t.Fatalf("allocated for %d flows, want %d", len(allocs), nFlows)
	}
	span := uint16(65536 / workers)
	for tup, a := range allocs {
		if prev, dup := portOwner[a.port]; dup {
			t.Fatalf("external port %d allocated to both %v and %v", a.port, prev, tup)
		}
		portOwner[a.port] = tup
		lo := uint16(a.worker) * span
		if a.port < lo || (a.worker < workers-1 && a.port >= lo+span) {
			t.Errorf("flow %v: port %d outside shard %d's range [%d,%d)", tup, a.port, a.worker, lo, lo+span)
		}
	}
}

// TestRunIsOneShot: a second Run on the same engine must be rejected —
// state carries the first run's traffic history.
func TestRunIsOneShot(t *testing.T) {
	_, res := compileMB(t, "l4lb")
	eng, err := New(Config{Stages: oneStage(res, setupLB)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), roundRobin(lbFlows(2), 2, -1)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), roundRobin(lbFlows(2), 2, -1)); err == nil {
		t.Fatal("second Run accepted")
	}
}

// TestOutOfOrderInjectionRejected mirrors the testbed's contract.
func TestOutOfOrderInjectionRejected(t *testing.T) {
	_, res := compileMB(t, "l4lb")
	eng, err := New(Config{Stages: oneStage(res, setupLB)})
	if err != nil {
		t.Fatal(err)
	}
	tup := lbFlows(1)[0]
	wl := scripted{gen: func(emit func(int64, *packet.Packet) error) error {
		p1 := packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort, packet.TCPOptions{})
		if err := emit(1000, p1); err != nil {
			return err
		}
		p2 := packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort, packet.TCPOptions{})
		return emit(500, p2)
	}}
	if _, err := eng.Run(context.Background(), wl); err == nil {
		t.Fatal("out-of-order injection accepted")
	} else if want := "out-of-order"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}
