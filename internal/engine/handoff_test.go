package engine

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"gallium/internal/ir"
	"gallium/internal/packet"
	"gallium/internal/switchsim"
)

// TestFeedBurstBoundaries feeds workloads whose sizes straddle the
// dispatcher's 32-packet burst, at 1, 2 and 8 workers, interleaved with
// single Dispatches and with one Reconfigure running beside them. Every
// packet must be delivered exactly once, each flow's sequence numbers must
// reach the callback in increasing order, and at every barrier — inside a
// Reconfigure's pause and after a LiveReport — the worker counters and the
// switch's shard counters must both account for exactly what was sent: an
// unpublished tail burst loses the first, an unflushed Pass the second.
func TestFeedBurstBoundaries(t *testing.T) {
	_, res := compileMB(t, "l4lb")
	flows := lbFlows(48)
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			checkLeaks(t)
			var mu sync.Mutex
			seen := map[int64]int{}
			last := map[packet.FiveTuple]int64{}
			eng, err := New(Config{
				Workers: workers,
				Stages:  oneStage(res, setupLB),
				OnDelivery: func(d Delivery) {
					mu.Lock()
					defer mu.Unlock()
					seen[d.Seq]++
					if prev, ok := last[d.Flow]; ok && d.Seq <= prev {
						t.Errorf("flow %v: seq %d delivered after %d", d.Flow, d.Seq, prev)
					}
					last[d.Flow] = d.Seq
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			reconfigured := make(chan error, 1)
			go func() {
				reconfigured <- eng.Reconfigure(Reconfig{Mutate: func(int, *ir.State) []switchsim.Update { return nil }})
			}()

			sent, tNs := 0, int64(0)
			next := func() *packet.Packet {
				tup := flows[sent%len(flows)]
				sent++
				tNs += 1000
				return packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort, packet.TCPOptions{Flags: packet.TCPFlagACK})
			}
			for _, n := range []int{0, 1, 31, 32, 33, 323} {
				err := eng.Feed(scripted{gen: func(emit func(int64, *packet.Packet) error) error {
					for i := 0; i < n; i++ {
						if err := emit(tNs, next()); err != nil {
							return err
						}
					}
					return nil
				}})
				if err != nil {
					t.Fatalf("feed of %d: %v", n, err)
				}
				for i := 0; i < 3; i++ {
					if seq, err := eng.Dispatch(tNs, next()); err != nil || seq != int64(sent-1) {
						t.Fatalf("dispatch %d: seq %d, err %v", sent-1, seq, err)
					}
				}
				// Inside the last shard's pause every worker is past the
				// packets sent so far, and a control job has nothing after it
				// to flush for it: the switch counters must be exact already.
				var paused atomic.Int32
				err = eng.Reconfigure(Reconfig{Mutate: func(int, *ir.State) []switchsim.Update {
					if int(paused.Add(1)) == workers {
						if sw, _ := eng.SwitchStatsAt(0); sw.PrePackets != sent {
							t.Errorf("inside the pause after the feed of %d: switch pre-passes %d, sent %d", n, sw.PrePackets, sent)
						}
					}
					return nil
				}})
				if err != nil {
					t.Fatal(err)
				}
				rep, err := eng.LiveReport()
				if err != nil {
					t.Fatal(err)
				}
				if rep.Stats.Injected != sent {
					t.Errorf("after the feed of %d: report injected %d, sent %d", n, rep.Stats.Injected, sent)
				}
				if sw, _ := eng.SwitchStatsAt(0); sw.PrePackets != sent {
					t.Errorf("after the feed of %d: switch pre-passes %d, sent %d", n, sw.PrePackets, sent)
				}
			}
			if err := <-reconfigured; err != nil {
				t.Errorf("concurrent Reconfigure: %v", err)
			}
			rep, err := eng.Stop()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Stats.Injected != sent || rep.Reconfigs != 7 {
				t.Errorf("final report: injected %d of %d, %d reconfigs", rep.Stats.Injected, sent, rep.Reconfigs)
			}
			for seq := int64(0); seq < int64(sent); seq++ {
				if seen[seq] != 1 {
					t.Errorf("seq %d reached the callback %d times", seq, seen[seq])
				}
			}
		})
	}
}

// TestPullTakesWhatIsQueued pins the one batching rule: a worker's pull
// takes everything its mailbox holds, which the mailbox's depth bounds.
// Forty jobs are queued before the worker starts: the default depth holds
// them all, a depth of 8 only the first 8. The report's batch size is the
// measured mean of the pulls.
func TestPullTakesWhatIsQueued(t *testing.T) {
	_, res := compileMB(t, "l4lb")
	// batch is the queue depth (0: the default).
	for _, tc := range []struct{ batch, want int }{{0, 40}, {8, 8}} {
		t.Run(fmt.Sprintf("batch=%d", tc.batch), func(t *testing.T) {
			eng, err := New(Config{QueueDepth: tc.batch, Stages: oneStage(res, setupLB)})
			if err != nil {
				t.Fatal(err)
			}
			first := -1
			jobs := make([]job, 40)
			for i := range jobs {
				jobs[i].ctrl = func(w *worker) {
					if first < 0 {
						first = len(w.batch)
					}
				}
			}
			// A push beyond the depth fills the ring and parks until the
			// worker pulls, so the first pull finds the ring full.
			pushed := make(chan bool)
			go func() { pushed <- eng.workers[0].box.push(jobs) }()
			box := eng.workers[0].box
			eventually(t, "the ring holds the first jobs", func() bool { return box.queued() == min(len(jobs), len(box.ring)) })
			if err := eng.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			if !<-pushed {
				t.Fatal("push refused")
			}
			rep, err := eng.Stop()
			if err != nil {
				t.Fatal(err)
			}
			if first != tc.want {
				t.Errorf("first pull took %d of 40 queued jobs, want %d", first, tc.want)
			}
			if rep.BatchSizes[0] <= 1 {
				t.Errorf("report's mean pull %v, want > 1", rep.BatchSizes[0])
			}
		})
	}
}

// TestEngineReleasesPackets: once Feed has returned, the engine holds no
// pointer to a packet it was fed — not in the batch a worker ran last, not
// in the dispatcher's burst array — so the caller's buffers are garbage as
// soon as the caller drops them. The packets share one backing array, so
// one pointer kept anywhere keeps the whole array.
func TestEngineReleasesPackets(t *testing.T) {
	_, res := compileMB(t, "l4lb")
	flows := lbFlows(16)
	eng, err := New(Config{
		Workers:    2,
		Stages:     oneStage(res, setupLB),
		OnDelivery: func(Delivery) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	// 100 packets: full bursts and a tail on both workers.
	feed := func() weak.Pointer[packet.Packet] {
		pkts := make([]packet.Packet, 100)
		for i := range pkts {
			tup := flows[i%len(flows)]
			pkts[i] = *packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort, packet.TCPOptions{Flags: packet.TCPFlagACK})
		}
		err := eng.Feed(scripted{gen: func(emit func(int64, *packet.Packet) error) error {
			for i := range pkts {
				if err := emit(int64(i)*1000, &pkts[i]); err != nil {
					return err
				}
			}
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		return weak.Make(&pkts[0])
	}
	arr := feed()
	runtime.GC()
	if arr.Value() != nil {
		t.Fatal("the fed packets are still reachable after Feed returned and the caller dropped them")
	}
}

// TestWorkerPanicFailsFeed: a delivery callback that panics must fail the
// run with an error naming the worker and the packet — not kill the
// process — and must release a dispatcher blocked on the (tiny) full
// mailbox, so Feed returns and Stop joins. The bound is generous for a
// loaded -race run; unloaded, the failure surfaces in a few milliseconds.
func TestWorkerPanicFailsFeed(t *testing.T) {
	_, res := compileMB(t, "l4lb")
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			checkLeaks(t)
			var calls atomic.Int64
			eng, err := New(Config{
				Workers:    workers,
				QueueDepth: 8,
				Stages:     oneStage(res, setupLB),
				OnDelivery: func(Delivery) {
					if calls.Add(1) == 1000 {
						panic("boom")
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			fed := make(chan error, 1)
			go func() { fed <- eng.Feed(roundRobin(lbFlows(100), 1000, -1)) }()
			select {
			case err = <-fed:
			case <-time.After(5 * time.Second):
				t.Fatal("Feed still blocked 5 s after a worker panicked")
			}
			if err == nil || !strings.Contains(err.Error(), "panicked at seq") || !strings.Contains(err.Error(), "boom") {
				t.Fatalf("Feed returned %v, want the attributed panic", err)
			}
			if workers == 1 && err.Error() != "engine: worker 0 panicked at seq 999: boom" {
				t.Errorf("Feed returned %q", err)
			}
			if _, err := eng.LiveReport(); err == nil {
				t.Error("LiveReport succeeded on a failed engine")
			}
			if _, stopErr := eng.Stop(); stopErr == nil || stopErr.Error() != err.Error() {
				t.Errorf("Stop returned %v, want the same failure", stopErr)
			}
		})
	}
}
