package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"gallium/internal/ir"
	"gallium/internal/packet"
	"gallium/internal/switchsim"
)

// rxLog records deliveries by sequence number, per flow and per worker,
// and flags any that arrive out of order.
type rxLog struct {
	t          *testing.T
	mu         sync.Mutex
	seen       map[int64]int
	byWorker   []int
	lastFlow   map[packet.FiveTuple]int64
	lastWorker []int64
	ends       int // callbacks with More cleared
}

func newRxLog(t *testing.T, workers int) *rxLog {
	l := &rxLog{t: t, seen: map[int64]int{}, byWorker: make([]int, workers),
		lastFlow: map[packet.FiveTuple]int64{}, lastWorker: make([]int64, workers)}
	for i := range l.lastWorker {
		l.lastWorker[i] = -1
	}
	return l
}

func (l *rxLog) deliver(d Delivery) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seen[d.Seq]++
	l.byWorker[d.Worker]++
	if prev, ok := l.lastFlow[d.Flow]; ok && d.Seq <= prev {
		l.t.Errorf("flow %v: seq %d delivered after %d", d.Flow, d.Seq, prev)
	}
	l.lastFlow[d.Flow] = d.Seq
	if d.Seq <= l.lastWorker[d.Worker] {
		l.t.Errorf("worker %d: seq %d delivered after %d", d.Worker, d.Seq, l.lastWorker[d.Worker])
	}
	l.lastWorker[d.Worker] = d.Seq
	if !d.More {
		l.ends++
	}
}

func (l *rxLog) delivered() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.seen)
}

func (l *rxLog) workerDelivered(w int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.byWorker[w]
}

// exactlyOnce checks that sequence numbers 0..sent-1, and nothing else,
// each reached the callback once.
func (l *rxLog) exactlyOnce(after string, sent int) {
	l.t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.seen) != sent {
		l.t.Errorf("after %s: %d of %d packets delivered", after, len(l.seen), sent)
	}
	for seq := int64(0); seq < int64(sent); seq++ {
		if l.seen[seq] != 1 {
			l.t.Errorf("after %s: seq %d reached the callback %d times", after, seq, l.seen[seq])
		}
	}
}

func ackFor(tup packet.FiveTuple) *packet.Packet {
	return packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort, packet.TCPOptions{Flags: packet.TCPFlagACK})
}

// TestRxBurstOnePull: at one parked worker, a read of 31 packets marked
// RxBurst and an unmarked last one reaches the worker as one pull of 32.
// None of them runs on the Dispatch caller, and only the last delivery
// clears More, so a front end sends the read's echoes as one batch.
func TestRxBurstOnePull(t *testing.T) {
	_, res := compileMB(t, "l4lb")
	flows := lbFlows(48)
	checkLeaks(t)
	log := newRxLog(t, 1)
	eng, err := New(context.Background(), Config{Stages: oneStage(res, setupLB), OnDelivery: log.deliver})
	if err != nil {
		t.Fatal(err)
	}
	allParked(t, eng)
	w := eng.workers[0]
	pulls, pulled := w.pulls.Load(), w.pulled.Load()
	for i := 0; i < feedBurst; i++ {
		pkt := ackFor(flows[i])
		pkt.RxBurst = i < feedBurst-1
		if !pkt.RxBurst {
			// w.burst is the dispatcher's, and this goroutine dispatched.
			if n, q := len(w.burst), w.box.queued(); n != feedBurst-1 || q != 0 {
				t.Errorf("before the read's last packet: %d packets in the burst and %d in the mailbox, want %d and 0", n, q, feedBurst-1)
			}
		}
		if _, err := eng.Dispatch(int64(i)*1000, pkt); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, "the read is delivered", func() bool { return log.delivered() == feedBurst })
	if got, took := w.pulls.Load()-pulls, w.pulled.Load()-pulled; got != 1 || took != feedBurst {
		t.Errorf("the read reached the worker in %d pulls of %d packets, want one pull of %d", got, took, feedBurst)
	}
	rep, err := eng.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Borrowed != 0 {
		t.Errorf("%d of the read's packets ran on the Dispatch caller, want none", rep.Borrowed)
	}
	log.exactlyOnce("Stop", feedBurst)
	if log.ends != 1 {
		t.Errorf("%d deliveries cleared More, want only the read's last", log.ends)
	}
}

// TestRxBurstTailOnOtherWorker: at 4 workers, reads whose unmarked last
// packet hashes to another worker than their 31 marked ones, and reads
// whose marked packets reach every worker, the last one's too. The last
// packet pushes every worker's burst, so each read is delivered with no
// barrier behind it, and a LiveReport finds each packet delivered once. A
// last packet that pushed only its own worker's burst strands the rest
// until the next control job.
func TestRxBurstTailOnOtherWorker(t *testing.T) {
	const workers, reads = 4, 4
	_, res := compileMB(t, "l4lb")
	flows := lbFlows(256)
	checkLeaks(t)
	log := newRxLog(t, workers)
	eng, err := New(context.Background(), Config{Workers: workers, Stages: oneStage(res, setupLB), OnDelivery: log.deliver})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	tail := flows[0]
	tailWorker := RSSShard(ackFor(tail), workers)
	var others []packet.FiveTuple
	for _, tup := range flows[1:] {
		if RSSShard(ackFor(tup), workers) != tailWorker {
			others = append(others, tup)
		}
	}
	sent := 0
	for r := 0; r < reads; r++ {
		marked := others
		if r%2 == 1 {
			marked = flows[1:]
		}
		for i := 0; i < feedBurst-1; i++ {
			pkt := ackFor(marked[(r*feedBurst+i)%len(marked)])
			pkt.RxBurst = true
			if _, err := eng.Dispatch(int64(sent)*1000, pkt); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		if _, err := eng.Dispatch(int64(sent)*1000, ackFor(tail)); err != nil {
			t.Fatal(err)
		}
		sent++
		eventually(t, fmt.Sprintf("read %d is delivered without a barrier", r), func() bool { return log.delivered() == sent })
	}
	rep, err := eng.LiveReport()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Injected != sent || rep.Stats.Delivered != sent {
		t.Errorf("report: %d injected, %d delivered, want %d", rep.Stats.Injected, rep.Stats.Delivered, sent)
	}
	log.exactlyOnce("LiveReport", sent)
}

// TestRxBurstWithoutTail: packets marked RxBurst whose read never ends
// wait in their workers' bursts, and each control path pushes them before
// its barrier: after LiveReport returns, inside every worker's
// Reconfigure pause, and after Stop, every packet dispatched so far has
// been delivered exactly once, in per-flow and per-worker order. Reads of
// 5 and 40 packets stay under the 32-packet burst at every worker; one of
// 160 fills some bursts, which pushes every worker's early.
func TestRxBurstWithoutTail(t *testing.T) {
	const workers = 4
	_, res := compileMB(t, "l4lb")
	flows := lbFlows(48)
	for _, barrier := range []string{"LiveReport", "Reconfigure", "Stop"} {
		t.Run(barrier, func(t *testing.T) {
			checkLeaks(t)
			log := newRxLog(t, workers)
			eng, err := New(context.Background(), Config{Workers: workers, Stages: oneStage(res, setupLB), OnDelivery: log.deliver})
			if err != nil {
				t.Fatal(err)
			}
			sent := 0
			perWorker := make([]int, workers)
			for _, n := range []int{5, 40, 160} {
				for i := 0; i < n; i++ {
					pkt := ackFor(flows[sent%len(flows)])
					pkt.RxBurst = true
					perWorker[RSSShard(pkt, workers)]++
					if _, err := eng.Dispatch(int64(sent)*1000, pkt); err != nil {
						t.Fatal(err)
					}
					sent++
				}
				after := fmt.Sprintf("%s behind %d marked packets", barrier, n)
				switch barrier {
				case "LiveReport":
					rep, err := eng.LiveReport()
					if err != nil {
						t.Fatal(err)
					}
					if rep.Stats.Injected != sent {
						t.Errorf("after %s: report injected %d, sent %d", after, rep.Stats.Injected, sent)
					}
				case "Reconfigure":
					err := eng.Reconfigure(Reconfig{Mutate: func(shard int, _ *ir.State) []switchsim.Update {
						if got := log.workerDelivered(shard); got != perWorker[shard] {
							t.Errorf("inside %s: worker %d delivered %d of its %d", after, shard, got, perWorker[shard])
						}
						return nil
					}})
					if err != nil {
						t.Fatal(err)
					}
				case "Stop":
					continue
				}
				log.exactlyOnce(after, sent)
			}
			rep, err := eng.Stop()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Stats.Injected != sent || rep.Borrowed != 0 {
				t.Errorf("final report: %d injected of %d, %d borrowed", rep.Stats.Injected, sent, rep.Borrowed)
			}
			log.exactlyOnce(barrier+" at the end", sent)
		})
	}
}
