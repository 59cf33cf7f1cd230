package switchsim

import (
	"sync"
	"testing"

	"gallium/internal/ir"
	"gallium/internal/packet"
)

// pairBoxSource reads TWO control-plane-configured registers in its pre
// partition and stamps them into the packet. The test's control plane
// always writes both registers with the same value in one staged batch, so
// any packet observing seq != ack has seen a half-published batch — the
// tearing the single view publication must rule out.
const pairBoxSource = `
middlebox pairbox {
    global u32 ga;
    global u32 gb;
    proc process(pkt p) {
        p.tcp.seq = ga;
        p.tcp.ack = gb;
        send(p);
    }
}
`

// TestSnapshotFlipIsAtomic hammers the lock-free data plane from several
// readers while the control plane repeatedly stages a two-register batch
// and flips. §4.3.3 requires the flip to be one atomic operation: a packet
// sees the entire batch or none of it, never half. Run under -race this
// also proves the view handoff itself is race-clean.
func TestSnapshotFlipIsAtomic(t *testing.T) {
	res := compileSrc(t, pairBoxSource)
	sw := New(res)

	const (
		readers = 8
		rounds  = 500
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pkt := packet.BuildTCP(packet.MakeIPv4Addr(1, 2, 3, 4), packet.MakeIPv4Addr(5, 6, 7, 8),
					uint16(id+1000), 80, packet.TCPOptions{})
				pre, err := sw.ProcessPreShard(pkt, 0, nil)
				if err != nil {
					errs <- err.Error()
					return
				}
				if pre.Action != ir.ActionSent {
					errs <- "packet not sent on the fast path"
					return
				}
				if pkt.TCP.Seq != pkt.TCP.Ack {
					errs <- "observed a half-published batch: seq != ack"
					return
				}
			}
		}(r)
	}

	for gen := uint64(1); gen <= rounds; gen++ {
		if err := sw.StageShard(0, Update{Register: "ga", RegVal: gen}); err != nil {
			t.Fatal(err)
		}
		if err := sw.StageShard(0, Update{Register: "gb", RegVal: gen}); err != nil {
			t.Fatal(err)
		}
		sw.FlipShard(0)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}

	if v, _ := sw.Register("ga"); v != rounds {
		t.Fatalf("ga = %d after all flips, want %d", v, rounds)
	}
	if v, _ := sw.Register("gb"); v != rounds {
		t.Fatalf("gb = %d, want %d", v, rounds)
	}
}
