package switchsim

import (
	"sync"
	"testing"

	"gallium/internal/ir"
	"gallium/internal/packet"
)

// TestConcurrentDataPlaneAndControlPlane hammers the switch from several
// data-plane goroutines (one per simulated worker) while a control-plane
// goroutine continuously stages and flips write-back batches. Run under
// -race this is the proof that the lock-free read path keeps the §4.3.3
// protocol safe once the engine runs pipeline passes in parallel.
func TestConcurrentDataPlaneAndControlPlane(t *testing.T) {
	res := compileMB(t, "minilb")
	sw := New(res)
	if err := sw.LoadVector("backends", []uint64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}

	const (
		workers   = 8
		perWorker = 300
		flips     = 100
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers+1)

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				src := packet.MakeIPv4Addr(10, 0, byte(id), byte(i%250))
				pkt := packet.BuildTCP(src, packet.MakeIPv4Addr(20, 0, 0, 1),
					uint16(1000+i), 80, packet.TCPOptions{})
				if _, err := sw.ProcessPreShard(pkt, 0, nil); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < flips; i++ {
			u := Update{Table: "conn", Key: ir.MakeMapKey(uint64(i)), Vals: []uint64{uint64(i % 4)}}
			if err := sw.StageShard(0, u); err != nil {
				errs <- err
				return
			}
			sw.FlipShard(0)
			// Interleave classification-style reads with the batches.
			sw.VisibleEntry("conn", ir.MakeMapKey(uint64(i)))
			sw.Stats()
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	s := sw.Stats()
	if s.PrePackets != workers*perWorker {
		t.Errorf("PrePackets = %d, want %d", s.PrePackets, workers*perWorker)
	}
	if s.CtlFlips != flips {
		t.Errorf("CtlFlips = %d, want %d", s.CtlFlips, flips)
	}
	if got := s.TableEntries["conn"]; got != flips {
		t.Errorf("conn entries = %d, want %d", got, flips)
	}
	// Every staged key must be visible after its flip.
	for i := 0; i < flips; i++ {
		if visible, _ := sw.VisibleEntry("conn", ir.MakeMapKey(uint64(i))); !visible {
			t.Fatalf("entry %d lost", i)
		}
	}
}

// TestSeedFromReplicatesEveryKind pins the shared seeding path: vectors,
// map entries, scalars, and LPM tables configured on an authoritative
// state snapshot all become visible on the switch.
func TestSeedFromReplicatesEveryKind(t *testing.T) {
	res := compileMB(t, "minilb")
	sw := New(res)
	st := ir.NewState(res.Prog)
	st.Vecs["backends"] = []uint64{7, 8}
	st.Maps["conn"][ir.MakeMapKey(5)] = []uint64{1}
	if err := sw.SeedFrom(st); err != nil {
		t.Fatal(err)
	}
	if visible, _ := sw.VisibleEntry("conn", ir.MakeMapKey(5)); !visible {
		t.Error("seeded map entry not visible")
	}
	if tbl, _ := sw.Table("conn"); tbl.Len() != 1 {
		t.Errorf("seeded table holds %d entries, want 1", tbl.Len())
	}
}
