package gallium_test

import (
	"slices"
	"sync"
	"testing"
	"time"

	gallium "gallium"
	"gallium/internal/middleboxes"
	"gallium/internal/packet"
)

// reorderedWL emits `rounds` interleaved packets for every tuple, tagging
// each packet's TCP sequence number with its global per-flow round (base
// + local index), so deliveries can be checked for exact per-flow order
// across multiple Feed calls.
type reorderedWL struct {
	tuples []packet.FiveTuple
	base   int
	rounds int
	t0     int64
}

func (c reorderedWL) Tuples() []packet.FiveTuple { return c.tuples }

func (c reorderedWL) Generate(emit func(int64, *packet.Packet) error) error {
	tNs := c.t0
	for r := 0; r < c.rounds; r++ {
		for _, tup := range c.tuples {
			pkt := packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort,
				packet.TCPOptions{Flags: packet.TCPFlagACK, Seq: uint32(c.base + r)})
			if err := emit(tNs, pkt); err != nil {
				return err
			}
			tNs += 500
		}
	}
	return nil
}

// TestScaleOutReconfigureUnderTraffic is the per-shard control-plane
// property test: 8 workers — so 8 independent control-lane drainers —
// stream load-balancer traffic while the control plane concurrently
// applies LB pool changes and flow-table retunes. The invariants the
// sharded drainers must preserve: zero packet loss, exact per-flow
// delivery order, and every reconfiguration applied as one visibility
// flip. Run under -race in CI.
func TestScaleOutReconfigureUnderTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("sustained concurrent session; runs in full mode and CI (-race)")
	}
	const (
		nFlows   = 32
		chunks   = 6
		perChunk = 10 // rounds per Feed
	)
	tuples := make([]packet.FiveTuple, nFlows)
	for i := range tuples {
		tuples[i] = packet.FiveTuple{
			SrcIP:   packet.MakeIPv4Addr(172, 16, 0, byte(1+i)),
			DstIP:   packet.MakeIPv4Addr(10, 0, 2, 2),
			SrcPort: uint16(5000 + i),
			DstPort: 80,
			Proto:   packet.IPProtocolTCP,
		}
	}

	art, err := gallium.CompileBuiltin("l4lb", gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seqs := map[packet.FiveTuple][]uint32{}
	var undelivered int
	s, err := gallium.Open(art,
		gallium.WithWorkers(8),
		gallium.WithScenario(),
		gallium.WithFlows(tuples),
		gallium.WithFlowTable(gallium.FlowTable{Capacity: 2048, UDPTimeout: time.Second}),
		gallium.WithDeliveries(func(d gallium.Delivery) {
			mu.Lock()
			defer mu.Unlock()
			if !d.Delivered {
				undelivered++
				return
			}
			seqs[d.Flow] = append(seqs[d.Flow], d.Pkt.TCP.Seq)
		}),
	)
	if err != nil {
		t.Fatal(err)
	}

	// Feeder: one goroutine streams chunk after chunk (Feed must not race
	// with itself, but races freely with Reconfigure — that is the claim).
	feedDone := make(chan error, 1)
	go func() {
		for k := 0; k < chunks; k++ {
			wl := reorderedWL{
				tuples: tuples,
				base:   k * perChunk,
				rounds: perChunk,
				t0:     int64(k) * int64(perChunk*nFlows) * 500,
			}
			if err := s.Feed(wl); err != nil {
				feedDone <- err
				return
			}
		}
		feedDone <- nil
	}()

	// Control plane: alternate typed reconfigurations against the live
	// session until the feeder finishes. Both shapes are exercised — the
	// global table-replace path (LBPoolChange) and the flow-table retune.
	pools := [][]gallium.Backend{
		{
			{Addr: packet.IPv4Addr(middleboxes.Backends[0]), Weight: 2},
			{Addr: packet.IPv4Addr(middleboxes.Backends[1]), Weight: 1},
			{Addr: packet.IPv4Addr(middleboxes.Backends[2]), Weight: 1},
			{Addr: packet.IPv4Addr(middleboxes.Backends[3]), Weight: 1},
		},
		{
			{Addr: packet.IPv4Addr(middleboxes.Backends[0]), Weight: 1},
			{Addr: packet.IPv4Addr(middleboxes.Backends[1]), Weight: 3},
			{Addr: packet.IPv4Addr(middleboxes.Backends[2]), Weight: 1},
			{Addr: packet.IPv4Addr(middleboxes.Backends[3]), Weight: 2},
		},
	}
	reconfigs := 0
	var feedErr error
	for done := false; !done; {
		select {
		case feedErr = <-feedDone:
			done = true
		default:
			var op gallium.ReconfigOp
			switch reconfigs % 3 {
			case 0, 1:
				op = gallium.LBPoolChange{Backends: pools[reconfigs%2]}
			case 2:
				op = gallium.FlowTableUpdate{Table: gallium.FlowTable{
					Capacity:   2048 + 1024*(reconfigs%2),
					UDPTimeout: time.Second,
				}}
			}
			if err := s.Reconfigure(op); err != nil {
				t.Fatal(err)
			}
			reconfigs++
		}
	}
	if feedErr != nil {
		t.Fatal(feedErr)
	}

	rep, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	const total = nFlows * chunks * perChunk
	if rep.Stats.Injected != total {
		t.Fatalf("injected %d of %d", rep.Stats.Injected, total)
	}
	if rep.Stats.Delivered != total || undelivered != 0 {
		t.Fatalf("lost packets under reconfiguration: delivered %d of %d (%d undelivered; stats %+v)",
			rep.Stats.Delivered, total, undelivered, rep.Stats)
	}
	if len(seqs) != nFlows {
		t.Fatalf("saw %d flows, want %d", len(seqs), nFlows)
	}
	for tup, got := range seqs {
		if len(got) != chunks*perChunk {
			t.Fatalf("flow %v: %d deliveries, want %d", tup, len(got), chunks*perChunk)
		}
		for i, seq := range got {
			if seq != uint32(i) {
				t.Fatalf("flow %v: delivery %d carries seq %d — per-flow order violated under reconfiguration",
					tup, i, seq)
			}
		}
	}
	if reconfigs == 0 || rep.Reconfigs != reconfigs {
		t.Fatalf("applied %d reconfigurations, report says %d", reconfigs, rep.Reconfigs)
	}
	if slices.Max(rep.BatchSizes) <= 1 {
		t.Errorf("no worker pulled more than one job at a time: mean pulls %v", rep.BatchSizes)
	}
	if rep.Stats.CtlBatches == 0 {
		t.Error("slow-path traffic drained no control batches")
	}
}
