package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gallium/internal/ir"
	"gallium/internal/packet"
	"gallium/internal/switchsim"
)

// TestFeedRunsOnCaller: at one worker Feed hands nothing off. Feeds of
// sizes around the 32-packet burst, at the default depth and at one
// smaller than a burst, each raise Report.Borrowed by exactly their
// count; the worker's only pull is the Feed's settle barrier, and every
// packet reaches the callback once, in sequence order.
func TestFeedRunsOnCaller(t *testing.T) {
	_, res := compileMB(t, "l4lb")
	flows := lbFlows(48)
	for _, depth := range []int{0, 4} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			checkLeaks(t)
			var mu sync.Mutex
			var seqs []int64
			eng, err := New(context.Background(), Config{
				QueueDepth: depth,
				Stages:     oneStage(res, setupLB),
				OnDelivery: func(d Delivery) {
					mu.Lock()
					defer mu.Unlock()
					seqs = append(seqs, d.Seq)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Stop()
			w := eng.workers[0]
			sent, tNs := 0, int64(0)
			for _, n := range []int{1, 31, 33, 323} {
				pulled := w.pulled.Load()
				err := eng.Feed(scripted{gen: func(emit func(int64, *packet.Packet) error) error {
					for i := 0; i < n; i++ {
						tup := flows[sent%len(flows)]
						sent++
						tNs += 1000
						if err := emit(tNs, packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort,
							packet.TCPOptions{Flags: packet.TCPFlagACK})); err != nil {
							return err
						}
					}
					return nil
				}})
				if err != nil {
					t.Fatalf("feed of %d: %v", n, err)
				}
				if got := w.pulled.Load() - pulled; got != 1 {
					t.Errorf("feed of %d: the worker pulled %d jobs, want only the settle barrier", n, got)
				}
				rep, err := eng.LiveReport()
				if err != nil {
					t.Fatal(err)
				}
				if rep.Borrowed != sent || rep.Stats.Injected != sent {
					t.Errorf("after the feed of %d: %d of %d packets borrowed, %d injected", n, rep.Borrowed, sent, rep.Stats.Injected)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if len(seqs) != sent {
				t.Fatalf("%d callbacks for %d packets", len(seqs), sent)
			}
			for i, s := range seqs {
				if s != int64(i) {
					t.Fatalf("callback %d carried seq %d", i, s)
				}
			}
		})
	}
}

// reusedACKs emits n ACKs of flows, round robin, 1 µs apart from t0,
// rewriting each from its flow's template into a ring of packets: at one
// worker nothing holds a packet for long, so a million packets cost no
// million allocations. after, when set, runs after each emit with the
// count emitted so far.
func reusedACKs(flows []packet.FiveTuple, t0 int64, n int, after func(i int) error) scripted {
	tmpl := make([]packet.Packet, len(flows))
	for i, tup := range flows {
		tmpl[i] = *packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort, packet.TCPOptions{Flags: packet.TCPFlagACK})
	}
	ring := make([]packet.Packet, 4096)
	return scripted{tuples: flows, gen: func(emit func(int64, *packet.Packet) error) error {
		for i := 0; i < n; i++ {
			p := &ring[i%len(ring)]
			*p = tmpl[i%len(tmpl)]
			if err := emit(t0+int64(i)*1000, p); err != nil {
				return err
			}
			if after != nil {
				if err := after(i + 1); err != nil {
					return err
				}
			}
		}
		return nil
	}}
}

// feedWithin runs eng.Feed(wl) and fails the test if it has not returned
// within limit: a Feed that holds its worker while a control job waits
// for it never returns.
func feedWithin(t *testing.T, eng *Engine, wl Workload, limit time.Duration) error {
	t.Helper()
	fed := make(chan error, 1)
	go func() { fed <- eng.Feed(wl) }()
	select {
	case err := <-fed:
		return err
	case <-time.After(limit):
		t.Fatalf("Feed still running after %v: a control job waits for the worker Feed holds", limit)
		return nil
	}
}

// TestFeedReconfigureLive: at one worker, where Feed runs its bursts on
// its own goroutine, the control plane stays live. A Reconfigure and a
// LiveReport called from inside the workload's Generate, in the middle of
// a burst, both return, and a Reconfigure from another goroutine during a
// million-packet Feed returns before that Feed has emitted its last
// packet.
func TestFeedReconfigureLive(t *testing.T) {
	_, res := compileMB(t, "l4lb")
	flows := lbFlows(48)
	checkLeaks(t)
	var delivered atomic.Int64
	eng, err := New(context.Background(), Config{
		Stages:     oneStage(res, setupLB),
		OnDelivery: func(Delivery) { delivered.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	nop := Reconfig{Mutate: func(int, *ir.State) []switchsim.Update { return nil }}

	const inner = 1000
	err = feedWithin(t, eng, reusedACKs(flows, 0, inner, func(i int) error {
		switch i {
		case 100:
			return eng.Reconfigure(nop)
		case 500:
			_, err := eng.LiveReport()
			return err
		}
		return nil
	}), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	const outer = 1_000_000
	reconfigured := make(chan error, 1)
	var late atomic.Bool
	err = feedWithin(t, eng, reusedACKs(flows, inner*1000, outer, func(i int) error {
		switch i {
		case 1000:
			go func() { reconfigured <- eng.Reconfigure(nop) }()
		case outer:
			select {
			case err := <-reconfigured:
				reconfigured <- err
			default:
				late.Store(true)
			}
		}
		return nil
	}), 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-reconfigured; err != nil {
		t.Fatal(err)
	}
	if late.Load() {
		t.Error("a Reconfigure beside a million-packet Feed returned only after the Feed's last packet")
	}
	rep, err := eng.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if n := inner + outer; rep.Stats.Injected != n || delivered.Load() != int64(n) || rep.Borrowed != n || rep.Reconfigs != 2 {
		t.Errorf("injected %d, delivered %d, borrowed %d of %d; %d reconfigs, want 2",
			rep.Stats.Injected, delivered.Load(), rep.Borrowed, n, rep.Reconfigs)
	}
}
