package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"gallium/internal/ir"
	"gallium/internal/middleboxes"
	"gallium/internal/packet"
	"gallium/internal/switchsim"
)

// moreLog records, per worker, what ran on its goroutine: delivery
// callbacks with their More hint, and the control jobs the test can see
// (Reconfigure's Mutate runs inside one). It also plays a batching
// consumer: an output is held while More is set and released with the
// first callback that clears it, so a More that lies before a park leaves
// outputs held for ever.
type moreLog struct {
	mu       sync.Mutex
	events   [][]moreEvent // by worker
	held     []int
	released int
}

type moreEvent struct {
	ctrl bool
	more bool
}

func newMoreLog(workers int) *moreLog {
	return &moreLog{events: make([][]moreEvent, workers), held: make([]int, workers)}
}

func (l *moreLog) deliver(d Delivery) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events[d.Worker] = append(l.events[d.Worker], moreEvent{more: d.More})
	l.held[d.Worker]++
	if !d.More {
		l.released += l.held[d.Worker]
		l.held[d.Worker] = 0
	}
}

func (l *moreLog) control(worker int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events[worker] = append(l.events[worker], moreEvent{ctrl: true})
}

func (l *moreLog) mutate(shard int, _ *ir.State) []switchsim.Update {
	l.control(shard)
	return nil
}

// quiescent checks what holds right after any engine barrier returned:
// every worker ran a control job after its last packet, so nothing may
// still be held.
func (l *moreLog) quiescent(t *testing.T, after string, sent int) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for w, h := range l.held {
		if h != 0 {
			t.Errorf("after %s: worker %d's last callback had More set, %d outputs held across the barrier", after, w, h)
		}
	}
	if l.released != sent {
		t.Errorf("after %s: %d of %d outputs released", after, l.released, sent)
	}
}

// TestDeliveryMore pins Delivery.More: a callback that sets it is followed
// by another callback on the same worker with no control job in between;
// the last callback before every control job, and before the worker parks
// on an empty mailbox, clears it. Small and default batches, 1/2/8
// workers, packets through Feed and Dispatch, a firewall that drops every
// other flow, a Reconfigure running beside the traffic, and a closed loop
// that sends k packets and then only waits for their k outputs.
func TestDeliveryMore(t *testing.T) {
	_, res := compileMB(t, "firewall")
	flows := lbFlows(48)
	// batch bounds every pull through the mailbox's depth (0: the default).
	for _, batch := range []int{1, 4, 32, 0} {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("batch=%d/workers=%d", batch, workers), func(t *testing.T) {
				checkLeaks(t)
				log := newMoreLog(workers)
				eng, err := New(Config{
					Workers:    workers,
					QueueDepth: batch,
					Stages: oneStage(res, func(_ int, st *ir.State) {
						middleboxes.ConfigureState("firewall", st)
						for i := 0; i < len(flows); i += 2 {
							middleboxes.AllowFlow(st, flows[i])
						}
					}),
					OnDelivery: log.deliver,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := eng.Start(context.Background()); err != nil {
					t.Fatal(err)
				}
				reconfigured := make(chan error, 1)
				go func() { reconfigured <- eng.Reconfigure(Reconfig{Mutate: log.mutate}) }()

				sent, tNs := 0, int64(0)
				next := func() *packet.Packet {
					tup := flows[sent%len(flows)]
					sent++
					tNs += 1000
					return packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort, packet.TCPOptions{Flags: packet.TCPFlagACK})
				}
				for _, n := range []int{1, 31, 33, 323} {
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
					log.quiescent(t, fmt.Sprintf("the feed of %d", n), sent)
					for i := 0; i < 5; i++ {
						if _, err := eng.Dispatch(tNs, next()); err != nil {
							t.Fatal(err)
						}
					}
					if err := eng.Reconfigure(Reconfig{Mutate: log.mutate}); err != nil {
						t.Fatal(err)
					}
					log.quiescent(t, "a Reconfigure behind 5 dispatches", sent)
				}
				if err := <-reconfigured; err != nil {
					t.Errorf("concurrent Reconfigure: %v", err)
				}

				// Closed loop: nothing follows the k packets, so their outputs
				// come back only if the last callback before each park clears
				// More.
				for _, k := range []int{1, 7, 33} {
					for i := 0; i < k; i++ {
						if _, err := eng.Dispatch(tNs, next()); err != nil {
							t.Fatal(err)
						}
					}
					deadline := time.Now().Add(10 * time.Second)
					for {
						log.mu.Lock()
						released := log.released
						log.mu.Unlock()
						if released == sent {
							break
						}
						if time.Now().After(deadline) {
							t.Fatalf("closed loop of %d: %d of %d outputs released, the rest held behind a More that nothing followed", k, released, sent)
						}
						time.Sleep(50 * time.Microsecond)
					}
				}

				rep, err := eng.Stop()
				if err != nil {
					t.Fatal(err)
				}
				if rep.Stats.Injected != sent || rep.Stats.MBDrops == 0 || rep.Stats.Delivered == 0 {
					t.Fatalf("injected %d of %d, %d delivered, %d dropped: want both fates", rep.Stats.Injected, sent, rep.Stats.Delivered, rep.Stats.MBDrops)
				}
				callbacks, held := 0, 0
				for w, evs := range log.events {
					for i, ev := range evs {
						if ev.ctrl {
							continue
						}
						callbacks++
						if !ev.more {
							continue
						}
						held++
						if i+1 == len(evs) || evs[i+1].ctrl {
							t.Errorf("worker %d, event %d: More set, but the next thing on the worker was not a callback", w, i)
						}
					}
				}
				if callbacks != sent {
					t.Errorf("%d callbacks for %d packets", callbacks, sent)
				}
				// Feed's 32-packet bursts reach a worker pulling more than one
				// job at a time: More must actually be set there, or a
				// consumer never batches.
				if batch != 1 && workers == 1 && held == 0 {
					t.Error("More was never set on a batched single worker")
				}
				if batch == 1 && held != 0 {
					t.Errorf("More set %d times at batch 1", held)
				}
			})
		}
	}
}
