package gallium_test

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	gallium "gallium"
	"gallium/internal/middleboxes"
	"gallium/internal/packet"
	"gallium/internal/trafficgen"
)

// The control plane's promise, checked under traffic: a typed
// reconfiguration lands as one visibility flip with no packet lost and
// every flow's packets delivered in the order they were fed. One harness,
// reconfigUnderTraffic, drives every such test over the rows below, one
// row per kind of operation.

// reconfigWorkers are the worker counts every row runs at: one, where
// Feed runs its bursts on its own goroutine and a Reconfigure's pause
// lands between two of them, and eight, where Feed pushes its bursts to
// the workers.
var reconfigWorkers = []int{1, 8}

// reconfigRow is one reconfigure-under-traffic case: a middlebox, the
// session options it needs beyond the harness's own, the i-th typed
// operation at a given worker count, and any checks of its own on the
// final report.
type reconfigRow struct {
	name  string
	mb    string
	opts  []gallium.Option
	op    func(i, workers int, flows []packet.FiveTuple) gallium.ReconfigOp
	check func(t *testing.T, workers int, rep *gallium.Report)
}

// lbPools alternate between three backends and a pool that swaps the
// third out and reweights the others, so every apply changes state.
var lbPools = [2][]gallium.Backend{
	{
		{Addr: packet.IPv4Addr(middleboxes.Backends[0]), Weight: 2},
		{Addr: packet.IPv4Addr(middleboxes.Backends[1]), Weight: 1},
		{Addr: packet.IPv4Addr(middleboxes.Backends[2]), Weight: 1},
	},
	{
		{Addr: packet.IPv4Addr(middleboxes.Backends[0]), Weight: 1},
		{Addr: packet.IPv4Addr(middleboxes.Backends[1]), Weight: 3},
		{Addr: packet.IPv4Addr(middleboxes.Backends[3]), Weight: 2},
	},
}

var reconfigRows = []reconfigRow{
	{
		name: "firewall-swap",
		mb:   "firewall",
		op: func(i, _ int, flows []packet.FiveTuple) gallium.ReconfigOp {
			// The live flows stay whitelisted, so a drop is the control
			// plane's fault, not policy; a block of decoys churns.
			rules := slices.Clone(flows)
			for j := range 64 {
				rules = append(rules, packet.FiveTuple{
					SrcIP:   packet.MakeIPv4Addr(10, 99, byte(i), byte(j)),
					DstIP:   packet.MakeIPv4Addr(198, 51, 100, byte(j)),
					SrcPort: uint16(20000 + j), DstPort: 443, Proto: packet.IPProtocolTCP,
				})
			}
			return gallium.FirewallRuleSwap{Rules: rules}
		},
	},
	{
		name: "lb-pool",
		mb:   "l4lb",
		op: func(i, _ int, _ []packet.FiveTuple) gallium.ReconfigOp {
			return gallium.LBPoolChange{Backends: lbPools[i%2], Drain: i%4 < 2}
		},
	},
	{
		name: "flow-table",
		mb:   "l4lb",
		opts: []gallium.Option{gallium.WithFlowTable(gallium.FlowTable{Capacity: 2048, UDPTimeout: time.Second})},
		op: func(i, _ int, _ []packet.FiveTuple) gallium.ReconfigOp {
			if i%3 == 2 {
				return gallium.FlowTableUpdate{Table: gallium.FlowTable{
					Capacity: 2048 + 1024*(i%2), UDPTimeout: time.Second,
				}}
			}
			return gallium.LBPoolChange{Backends: lbPools[i%2]}
		},
		check: func(t *testing.T, workers int, rep *gallium.Report) {
			// At one worker Feed's packets are not pulled
			// (reconfigUnderTraffic counts them borrowed).
			if workers > 1 && slices.Max(rep.BatchSizes) <= 1 {
				t.Errorf("no worker pulled more than one job at a time: mean pulls %v", rep.BatchSizes)
			}
			if rep.Stats.CtlBatches == 0 {
				t.Error("slow-path traffic drained no control batches")
			}
		},
	},
	{
		name: "nat-repartition",
		mb:   "mazunat",
		op: func(i, workers int, _ []packet.FiveTuple) gallium.ReconfigOp {
			if i%2 == 0 {
				return gallium.NATRepartition{} // even split
			}
			bases := make([]uint16, workers)
			for w := range bases {
				bases[w] = uint16(1024 + 8000*w)
			}
			return gallium.NATRepartition{Bases: bases}
		},
	},
}

// findRow returns the row named name.
func findRow(t *testing.T, name string) reconfigRow {
	for _, row := range reconfigRows {
		if row.name == name {
			return row
		}
	}
	t.Fatalf("no reconfigure row %q", name)
	return reconfigRow{}
}

// counted passes a workload through, counting the packets it emits.
type counted struct {
	gallium.Workload
	n *int
}

func (c counted) Generate(emit func(int64, *packet.Packet) error) error {
	return c.Workload.Generate(func(tNs int64, pkt *packet.Packet) error {
		*c.n++
		return emit(tNs, pkt)
	})
}

// reconfigUnderTraffic runs row at each of reconfigWorkers, as a subtest
// per worker count (reconfigAt).
func reconfigUnderTraffic(t *testing.T, row reconfigRow, ops int, pace time.Duration) {
	t.Helper()
	for _, workers := range reconfigWorkers {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { reconfigAt(t, row, workers, ops, pace) })
	}
}

// reconfigAt opens row's session at workers workers and feeds it from one
// goroutine, copy after copy of one iperf workload, while it applies ops
// of row's operations, one every pace (back to back when pace is 0). It
// then checks that every fed packet had exactly one delivery callback and
// was delivered, that each flow's deliveries kept their feed order, and
// that the session and the switch each counted every operation. At one
// worker every fed packet must have run on the feeding goroutine.
func reconfigAt(t *testing.T, row reconfigRow, workers, ops int, pace time.Duration) {
	art, err := gallium.CompileBuiltin(row.mb, gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen := trafficgen.IperfConfig{Conns: 16, PPS: 2e6, DurationNs: 1_000_000, Seed: 9}
	flows := gen.Tuples()

	var mu sync.Mutex
	last := map[packet.FiveTuple]int64{}
	var calls, undelivered, disorder int
	var firstDisorder string
	top := int64(-1)
	s, err := gallium.Open(art, append([]gallium.Option{
		gallium.WithWorkers(workers),
		gallium.WithScenario(),
		gallium.WithFlows(flows),
		gallium.WithQueueDepth(1 << 15),
		gallium.WithDeliveries(func(d gallium.Delivery) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if !d.Delivered {
				undelivered++
			}
			if prev, ok := last[d.Flow]; ok && d.Seq <= prev {
				if disorder++; disorder == 1 {
					firstDisorder = fmt.Sprintf("flow %v: seq %d after %d", d.Flow, d.Seq, prev)
				}
			}
			last[d.Flow] = d.Seq
			top = max(top, d.Seq)
		}),
	}, row.opts...)...)
	if err != nil {
		t.Fatal(err)
	}

	// Feed must not race with itself, but races freely with Reconfigure:
	// that is the claim. The operations start once a first copy is in, so
	// traffic is flowing when they land.
	fed := 0
	started, done := make(chan struct{}), make(chan struct{})
	feedErr := make(chan error, 1)
	go func() {
		for off := int64(0); ; off += gen.DurationNs {
			err := s.Feed(counted{trafficgen.Shifted{WL: gen, OffsetNs: off}, &fed})
			if off == 0 {
				close(started)
			}
			if err != nil {
				feedErr <- err
				return
			}
			select {
			case <-done:
				feedErr <- nil
				return
			default:
			}
		}
	}()

	<-started
	var total, worst time.Duration
	applied := 0
	for ; applied < ops; applied++ {
		if applied > 0 {
			time.Sleep(pace)
		}
		t0 := time.Now()
		if err := s.Reconfigure(row.op(applied, workers, flows)); err != nil {
			t.Errorf("%s: operation %d: %v", row.name, applied, err)
			break
		}
		d := time.Since(t0)
		total += d
		worst = max(worst, d)
	}
	close(done)
	if err := <-feedErr; err != nil {
		t.Fatal(err)
	}
	rep, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: %d operations, apply mean %v max %v, %d packets fed",
		row.name, applied, total/time.Duration(max(1, applied)), worst, fed)

	st := rep.Stats
	if st.Injected != fed || st.Delivered != fed || st.MBDrops != 0 || st.QueueDrops != 0 {
		t.Errorf("%s: fed %d, injected %d, delivered %d, mb drops %d, queue drops %d",
			row.name, fed, st.Injected, st.Delivered, st.MBDrops, st.QueueDrops)
	}
	// Seqs count fed packets from 0 and rise strictly per flow, so no two
	// callbacks share one: fed callbacks below seq fed are each packet once.
	if calls != fed || top != int64(fed)-1 || undelivered != 0 {
		t.Errorf("%s: %d delivery callbacks (top seq %d, %d undelivered) for %d fed packets",
			row.name, calls, top, undelivered, fed)
	}
	if disorder > 0 {
		t.Errorf("%s: per-flow order violated %d time(s): %s", row.name, disorder, firstDisorder)
	}
	if rep.Reconfigs != applied || rep.SwitchStages[0].Reconfigs != applied {
		t.Errorf("%s: applied %d operations, session counts %d, switch %d",
			row.name, applied, rep.Reconfigs, rep.SwitchStages[0].Reconfigs)
	}
	if workers == 1 && rep.Borrowed != fed {
		t.Errorf("%s: %d of %d fed packets ran on the feeding goroutine, want all", row.name, rep.Borrowed, fed)
	}
	if row.check != nil {
		row.check(t, workers, rep)
	}
}

// TestSessionReconfigureZeroLossAndOrdering swaps firewall rules 20 times
// back to back, at 1 and at 8 workers. Run under -race it also shows the
// reconfigure path race-clean.
func TestSessionReconfigureZeroLossAndOrdering(t *testing.T) {
	reconfigUnderTraffic(t, findRow(t, "firewall-swap"), 20, 0)
}

// TestScaleOutReconfigureUnderTraffic interleaves flow-table retunes with
// LB pool changes while each worker flips its write-backs on its own
// control lane.
func TestScaleOutReconfigureUnderTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("sustained concurrent session; runs in full mode and CI (-race)")
	}
	reconfigUnderTraffic(t, findRow(t, "flow-table"), 30, 0)
}

// TestReconfigSoak runs every row with an operation every 100ms of wall
// time, the budget split evenly across the rows and their worker counts.
// The default budget keeps ordinary test runs fast; CI's soak raises it
// via GALLIUM_SOAK_SECONDS.
func TestReconfigSoak(t *testing.T) {
	const pace = 100 * time.Millisecond
	budget := 2 * time.Second
	if v := os.Getenv("GALLIUM_SOAK_SECONDS"); v != "" {
		secs, err := strconv.Atoi(v)
		if err != nil || secs <= 0 {
			t.Fatalf("bad GALLIUM_SOAK_SECONDS %q", v)
		}
		budget = time.Duration(secs) * time.Second
	} else if testing.Short() {
		t.Skip("short mode: soak runs in CI (GALLIUM_SOAK_SECONDS)")
	}
	ops := max(1, int(budget/time.Duration(len(reconfigRows)*len(reconfigWorkers))/pace))
	for _, row := range reconfigRows {
		t.Run(row.name, func(t *testing.T) { reconfigUnderTraffic(t, row, ops, pace) })
	}
}
