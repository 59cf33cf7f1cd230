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
	"gallium/internal/middleboxes"
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
			eng, err := New(context.Background(), Config{
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
						if got := eng.sws[0].Stats().PrePackets; got != sent {
							t.Errorf("inside the pause after the feed of %d: switch pre-passes %d, sent %d", n, got, sent)
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
				if got := rep.SwitchStages[0].PrePackets; got != sent {
					t.Errorf("after the feed of %d: switch pre-passes %d, sent %d", n, got, sent)
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
// Forty jobs are queued while the worker is parked in a control job: the
// default depth holds them all, a depth of 8 only the first 8. The report's batch size is the
// measured mean of the pulls.
func TestPullTakesWhatIsQueued(t *testing.T) {
	_, res := compileMB(t, "l4lb")
	// batch is the queue depth (0: the default).
	for _, tc := range []struct{ batch, want int }{{0, 40}, {8, 8}} {
		t.Run(fmt.Sprintf("batch=%d", tc.batch), func(t *testing.T) {
			eng, err := New(context.Background(), Config{QueueDepth: tc.batch, Stages: oneStage(res, setupLB)})
			if err != nil {
				t.Fatal(err)
			}
			box := eng.workers[0].box
			parked, release := make(chan struct{}), make(chan struct{})
			if !box.push([]job{{ctrl: func(*worker) { close(parked); <-release }}}) {
				t.Fatal("push refused")
			}
			<-parked
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
			// worker pulls, so the first pull after the release finds the
			// ring full.
			pushed := make(chan bool)
			go func() { pushed <- box.push(jobs) }()
			eventually(t, "the ring holds the first jobs", func() bool { return box.queued() == min(len(jobs), len(box.ring)) })
			close(release)
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
// in the dispatcher's burst array, not in a server's reused execution
// environment — so the caller's buffers are garbage as soon as the caller
// drops them. The packets share one backing array, so one pointer kept
// anywhere keeps the whole array. The slow path runs the server on the
// fed packet itself (the walker's hops decode in place), as does the
// software baseline on every packet.
func TestEngineReleasesPackets(t *testing.T) {
	_, lb := compileMB(t, "l4lb")
	_, nat := compileMB(t, "mazunat")
	setupNAT := func(shard int, st *ir.State) { middleboxes.ConfigureShard("mazunat", shard, 2, st) }
	for _, tc := range []struct {
		name    string
		cfg     Config
		flows   []packet.FiveTuple
		flags   uint8
		allSlow bool // every packet must take the slow path
	}{
		{"offloaded fast path", Config{Stages: oneStage(lb, setupLB)}, lbFlows(16), packet.TCPFlagACK, false},
		{"offloaded slow path", Config{Stages: oneStage(nat, setupNAT)}, natFlows(100), packet.TCPFlagSYN, true},
		{"software", Config{Mode: Software, Stages: oneStage(lb, setupLB)}, lbFlows(16), packet.TCPFlagACK, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Workers, cfg.OnDelivery = 2, func(Delivery) {}
			eng, err := New(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Stop()
			// 100 packets: full bursts and a tail on both workers.
			feed := func() weak.Pointer[packet.Packet] {
				pkts := make([]packet.Packet, 100)
				for i := range pkts {
					tup := tc.flows[i%len(tc.flows)]
					pkts[i] = *packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort, packet.TCPOptions{Flags: tc.flags})
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
			rep, err := eng.LiveReport()
			if err != nil {
				t.Fatal(err)
			}
			if tc.allSlow && rep.Stats.SlowPath != rep.Stats.Injected {
				t.Errorf("%d of %d packets took the slow path, want all", rep.Stats.SlowPath, rep.Stats.Injected)
			}
		})
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
			eng, err := New(context.Background(), Config{
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

// allParked waits until every worker of eng is parked on its mailbox, so
// the next Dispatch to any of them borrows it.
func allParked(t *testing.T, eng *Engine) {
	t.Helper()
	eventually(t, "every worker parks", func() bool {
		for _, w := range eng.workers {
			if !w.box.consumerParked() {
				return false
			}
		}
		return true
	})
}

// TestBorrowedRunsKeepFIFO: at 8 workers two dispatchers send the same
// NAT flows' packets one at a time. One waits for each packet's worker to
// park, so its packets are mostly run on it (borrowed); the other marks
// its packets RxBurst, so they queue, often behind a borrowed run of the
// same flow. Meanwhile LiveReport settles and Reconfigure pauses arrive
// from two more goroutines. The unmarked dispatcher sends its first round
// of flows alone, each packet once its worker has parked, so that round
// is borrowed however loaded the host is. Every packet must be delivered
// exactly once, each flow's and each worker's in sequence order, both
// paths must have run, and each flow must own exactly one NAT mapping: a
// write-back made in a borrowed run was served to the flow's next packet
// wherever that ran.
func TestBorrowedRunsKeepFIFO(t *testing.T) {
	_, res := compileMB(t, "mazunat")
	const workers, perFlow = 8, 16
	flows := natFlows(64)
	checkLeaks(t)
	var mu sync.Mutex
	seen := map[int64]int{}
	lastFlow := map[packet.FiveTuple]int64{}
	lastWorker := make([]int64, workers)
	for i := range lastWorker {
		lastWorker[i] = -1
	}
	eng, err := New(context.Background(), Config{
		Workers: workers,
		Stages: oneStage(res, func(shard int, st *ir.State) {
			middleboxes.ConfigureShard("mazunat", shard, workers, st)
		}),
		OnDelivery: func(d Delivery) {
			mu.Lock()
			defer mu.Unlock()
			seen[d.Seq]++
			if prev, ok := lastFlow[d.Flow]; ok && d.Seq <= prev {
				t.Errorf("flow %v: seq %d delivered after %d", d.Flow, d.Seq, prev)
			}
			lastFlow[d.Flow] = d.Seq
			if d.Seq <= lastWorker[d.Worker] {
				t.Errorf("worker %d: seq %d delivered after %d", d.Worker, d.Seq, lastWorker[d.Worker])
			}
			lastWorker[d.Worker] = d.Seq
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	// alone closes once the unmarked dispatcher's first round is sent; the
	// other goroutines start then.
	alone := make(chan struct{})
	endAlone := sync.OnceFunc(func() { close(alone) })
	var ctl, traffic sync.WaitGroup
	ctl.Add(2)
	go func() {
		defer ctl.Done()
		<-alone
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := eng.LiveReport(); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	go func() {
		defer ctl.Done()
		<-alone
		for i := 0; i < 5; i++ {
			if err := eng.Reconfigure(Reconfig{Mutate: func(int, *ir.State) []switchsim.Update { return nil }}); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	var sent atomic.Int64
	dispatch := func(burst bool) {
		defer traffic.Done()
		if burst {
			<-alone
		} else {
			defer endAlone()
		}
		for i := 0; i < perFlow; i++ {
			if i == 1 && !burst {
				endAlone()
			}
			for _, tup := range flows {
				pkt := packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort, packet.TCPOptions{Flags: packet.TCPFlagACK})
				pkt.RxBurst = burst
				if !burst {
					// Give the worker time to park: in the first round,
					// while nothing else gives it work, up to ten seconds;
					// later a moment, and a packet that finds it busy
					// queues, which the test allows.
					box := eng.workers[RSSShard(pkt, workers)].box
					deadline := time.Now().Add(10 * time.Second)
					for spin := 0; (i == 0 && time.Now().Before(deadline) || spin < 1000) && !box.consumerParked(); spin++ {
						runtime.Gosched()
					}
				}
				if _, err := eng.Dispatch(int64(i)*1000, pkt); err != nil {
					t.Error(err)
					return
				}
				sent.Add(1)
			}
		}
	}
	traffic.Add(2)
	go dispatch(false)
	go dispatch(true)
	traffic.Wait()
	close(stop)
	ctl.Wait()
	rep, err := eng.Stop()
	if err != nil {
		t.Fatal(err)
	}
	n := int(sent.Load())
	if n != 2*perFlow*len(flows) || rep.Stats.Delivered != n {
		t.Errorf("delivered %d of %d sent, want %d", rep.Stats.Delivered, n, 2*perFlow*len(flows))
	}
	t.Logf("%d of %d packets borrowed", rep.Borrowed, n)
	if rep.Borrowed == 0 || rep.Borrowed > n/2 {
		t.Errorf("%d of %d packets borrowed, want some and at most the %d unmarked", rep.Borrowed, n, n/2)
	}
	for seq := int64(0); seq < int64(n); seq++ {
		if seen[seq] != 1 {
			t.Errorf("seq %d reached the callback %d times", seq, seen[seq])
		}
	}
	for _, table := range []string{"nat_fwd", "nat_rev"} {
		if got := rep.SwitchStages[0].TableEntries[table]; got != len(flows) {
			t.Errorf("%s holds %d entries, want one per flow (%d)", table, got, len(flows))
		}
	}
}

// TestBorrowedPanicFailsDispatch is TestWorkerPanicFailsFeed for a
// borrowed run: a delivery callback that panics on the Dispatch caller's
// goroutine fails the run with the same attributed error, which that
// Dispatch returns, and so do every later Dispatch and Feed; Stop joins.
func TestBorrowedPanicFailsDispatch(t *testing.T) {
	_, res := compileMB(t, "l4lb")
	flows := lbFlows(16)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			checkLeaks(t)
			var calls atomic.Int64
			eng, err := New(context.Background(), Config{
				Workers: workers,
				Stages:  oneStage(res, setupLB),
				OnDelivery: func(Delivery) {
					if calls.Add(1) == 10 {
						panic("boom")
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			next := func(i int) *packet.Packet {
				tup := flows[i%len(flows)]
				return packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort, packet.TCPOptions{Flags: packet.TCPFlagACK})
			}
			var want string
			for i := 0; i < 10; i++ {
				allParked(t, eng)
				pkt := next(i)
				worker := RSSShard(pkt, workers)
				_, err := eng.Dispatch(int64(i)*1000, pkt)
				if i < 9 {
					if err != nil {
						t.Fatalf("dispatch %d: %v", i, err)
					}
					continue
				}
				want = fmt.Sprintf("engine: worker %d panicked at seq 9: boom", worker)
				if err == nil || err.Error() != want {
					t.Fatalf("the borrowed dispatch returned %v, want %q", err, want)
				}
			}
			if _, err := eng.Dispatch(10_000, next(10)); err == nil || err.Error() != want {
				t.Errorf("a later Dispatch returned %v, want %q", err, want)
			}
			if err := eng.Feed(roundRobin(flows, 2, -1)); err == nil || err.Error() != want {
				t.Errorf("a later Feed returned %v, want %q", err, want)
			}
			stopped := make(chan error, 1)
			go func() {
				_, err := eng.Stop()
				stopped <- err
			}()
			select {
			case err := <-stopped:
				if err == nil || err.Error() != want {
					t.Errorf("Stop returned %v, want %q", err, want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Stop still blocked 5 s after a borrowed run panicked")
			}
		})
	}
}
