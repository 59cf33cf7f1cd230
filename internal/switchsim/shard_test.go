package switchsim

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gallium/internal/ir"
	"gallium/internal/packet"
)

// servedOn reports whether a pre pass on shard takes minilb's fast path
// for conn key k (minilb keys conn on (saddr ^ daddr) & 0xFFFF; a zero
// destination makes the key the source address's low half).
func servedOn(t *testing.T, sw *Switch, shard int, k uint64) bool {
	t.Helper()
	pkt := packet.BuildTCP(packet.IPv4Addr(k), 0, 1000, 80, packet.TCPOptions{})
	pre, err := sw.ProcessPreShard(pkt, shard, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pre.Action == ir.ActionSent
}

func TestLaneEligible(t *testing.T) {
	cases := []struct {
		name string
		u    Update
		want bool
	}{
		{"insert", Update{Table: "conn", Key: ir.MakeMapKey(1), Vals: []uint64{1}}, true},
		{"delete", Update{Table: "conn", Key: ir.MakeMapKey(1), Delete: true}, true},
		{"replace", Update{Table: "conn", Replace: true}, false},
		{"register", Update{Register: "next_port", Vals: []uint64{1}}, false},
		{"vector", Update{Vec: "backends", Vals: []uint64{1}}, false},
	}
	for _, c := range cases {
		if got := LaneEligible(c.u); got != c.want {
			t.Errorf("%s: LaneEligible = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestLaneStageFlipFold walks one update through the per-shard §4.3.3
// protocol: a staged entry is invisible everywhere; the staging shard's
// FlipShard publishes it to every shard at once.
func TestLaneStageFlipFold(t *testing.T) {
	sw := New(compileMB(t, "minilb"))
	sw.ConfigureShards(4)
	tbl, ok := sw.Table("conn")
	if !ok {
		t.Fatal("conn table not resident")
	}
	key := ir.MakeMapKey(42)

	if err := sw.StageShard(1, Update{Table: "conn", Key: key, Vals: []uint64{7}}); err != nil {
		t.Fatal(err)
	}
	if _, visible := tbl.Lookup(key); visible {
		t.Fatal("staged entry visible before FlipShard")
	}
	for shard := 0; shard < 4; shard++ {
		if servedOn(t, sw, shard, 42) {
			t.Fatalf("shard %d serves a staged entry before FlipShard", shard)
		}
	}

	sw.FlipShard(1)
	if v, visible := tbl.Lookup(key); !visible || v[0] != 7 {
		t.Fatalf("entry not visible after FlipShard: %v %v", v, visible)
	}
	for shard := 0; shard < 4; shard++ {
		if !servedOn(t, sw, shard, 42) {
			t.Fatalf("shard %d misses shard 1's entry after its flip", shard)
		}
	}
}

// TestLaneDeleteShadows pins deletion semantics: a deletion staged by one
// shard hides nothing until that shard flips, then hides the entry —
// installed by another shard — from every shard.
func TestLaneDeleteShadows(t *testing.T) {
	sw := New(compileMB(t, "minilb"))
	sw.ConfigureShards(2)
	key := ir.MakeMapKey(9)
	if err := sw.StageShard(1, Update{Table: "conn", Key: key, Vals: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	sw.FlipShard(1)

	if err := sw.StageShard(0, Update{Table: "conn", Key: key, Delete: true}); err != nil {
		t.Fatal(err)
	}
	if !servedOn(t, sw, 0, 9) || !servedOn(t, sw, 1, 9) {
		t.Fatal("staged deletion hid the entry before its flip")
	}
	sw.FlipShard(0)
	if servedOn(t, sw, 0, 9) || servedOn(t, sw, 1, 9) {
		t.Fatal("flipped deletion still served")
	}
	if tbl, _ := sw.Table("conn"); tbl.Len() != 0 {
		t.Fatalf("Len = %d after the deletion flipped, want 0", tbl.Len())
	}
}

// TestLaneLastWriterWins pins staging order: across flips and within one
// batch, the last write to a key is the one that stands.
func TestLaneLastWriterWins(t *testing.T) {
	sw := New(compileMB(t, "minilb"))
	tbl, _ := sw.Table("conn")
	key := ir.MakeMapKey(5)
	ins := func(v uint64) Update { return Update{Table: "conn", Key: key, Vals: []uint64{v}} }
	del := Update{Table: "conn", Key: key, Delete: true}

	install(t, sw, ins(1))
	install(t, sw, del)
	if _, visible := tbl.Lookup(key); visible {
		t.Fatal("delete-after-insert: entry still visible")
	}
	install(t, sw, ins(2))
	if v, visible := tbl.Lookup(key); !visible || v[0] != 2 {
		t.Fatalf("insert-after-delete: %v %v, want live entry 2", v, visible)
	}

	install(t, sw, del, ins(3), ins(4))
	if v, visible := tbl.Lookup(key); !visible || v[0] != 4 {
		t.Fatalf("delete, insert, insert in one batch: %v %v, want 4", v, visible)
	}
	install(t, sw, ins(5), del)
	if _, visible := tbl.Lookup(key); visible {
		t.Fatal("insert, delete in one batch: entry visible")
	}
	if tbl.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tbl.Len())
	}
}

// TestPendingBatchWaitsForItsOwnFlip pins that a flip publishes exactly
// its own shard's batch: another shard's flip (and the retired fold entry
// points) leave a pending batch pending.
func TestPendingBatchWaitsForItsOwnFlip(t *testing.T) {
	sw := New(compileMB(t, "minilb"))
	sw.ConfigureShards(2)
	key := ir.MakeMapKey(77)
	if err := sw.StageShard(1, Update{Table: "conn", Key: key, Vals: []uint64{3}}); err != nil {
		t.Fatal(err)
	}
	install(t, sw, Update{Table: "conn", Key: ir.MakeMapKey(78), Vals: []uint64{4}})
	sw.CompactShard(1)
	sw.FoldShards()
	tbl, _ := sw.Table("conn")
	if _, visible := tbl.Lookup(key); visible {
		t.Fatal("shard 1's pending entry published by something other than FlipShard(1)")
	}
	sw.FlipShard(1)
	if v, visible := tbl.Lookup(key); !visible || v[0] != 3 {
		t.Fatalf("pending entry not visible after its own flip: %v %v", v, visible)
	}
}

// TestStageShardRejections pins the error surface: a shard index out of
// range, a target that is not resident, and a replacement too large for
// its target are refused, leave nothing pending, and an out-of-range flip
// is the matching no-op.
func TestStageShardRejections(t *testing.T) {
	sw := New(compileMB(t, "minilb"))
	sw.ConfigureShards(2)
	key := ir.MakeMapKey(1)
	big := make(map[ir.MapKey][]uint64)
	for i := 0; i <= 65536; i++ {
		big[ir.MakeMapKey(uint64(i))] = []uint64{1}
	}
	cases := []struct {
		name  string
		shard int
		u     Update
		want  string
	}{
		{"shard below range", -1, Update{Table: "conn", Key: key, Vals: []uint64{1}}, "out of range"},
		{"shard 2 of 2", 2, Update{Table: "conn", Key: key, Vals: []uint64{1}}, "out of range"},
		{"register on a bad shard", 2, Update{Register: "nonesuch"}, "out of range"},
		{"unknown table", 0, Update{Table: "nonesuch", Key: key, Vals: []uint64{1}}, "not resident"},
		{"unknown table replaced", 0, Update{Table: "nonesuch", Replace: true}, "not resident"},
		{"unknown register", 1, Update{Register: "nonesuch", RegVal: 1}, "not resident"},
		{"unknown vector", 0, Update{Vec: "nonesuch", VecVals: []uint64{1}}, "not offloaded"},
		{"oversized vector", 0, Update{Vec: "backends", VecVals: make([]uint64, 17)}, "exceed annotation"},
		{"oversized replacement", 1, Update{Table: "conn", Replace: true, Entries: big}, "table full"},
	}
	for _, c := range cases {
		err := sw.StageShard(c.shard, c.u)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
		sw.FlipShard(c.shard)
	}
	if st := sw.Stats(); st.CtlFlips != 0 || st.Epoch != 1 {
		t.Errorf("refused stages left something to flip: %d flips, epoch %d", st.CtlFlips, st.Epoch)
	}
	// Every kind the old protocol split between lanes and the global path
	// is accepted on any shard.
	for _, u := range []Update{
		{Table: "conn", Key: key, Vals: []uint64{1}},
		{Table: "conn", Replace: true, Entries: map[ir.MapKey][]uint64{key: {2}}},
		{Vec: "backends", VecVals: []uint64{1, 2}},
	} {
		if err := sw.StageShard(1, u); err != nil {
			t.Errorf("StageShard(1, %+v): %v", u, err)
		}
	}
	sw.FlipShard(1)
	if st := sw.Stats(); st.CtlFlips != 1 {
		t.Errorf("CtlFlips = %d after one real flip, want 1", st.CtlFlips)
	}
}

// TestPendingBatchReuse pins the lane's reused pending array: a flip
// leaves it empty and clear, so no later flip replays an entry of an
// earlier batch — a staging error mid-batch included — and a flip larger
// than pendingKeep lets it go. The packed form of a pending insert still
// counts as the key's insert when a full table checks for an overwrite.
func TestPendingBatchReuse(t *testing.T) {
	t.Run("no replay", func(t *testing.T) {
		sw := New(compileMB(t, "minilb"))
		tbl, _ := sw.Table("conn")
		ln := sw.lanes[0]
		k1, k2 := ir.MakeMapKey(1), ir.MakeMapKey(2)
		install(t, sw, Update{Table: "conn", Key: k1, Vals: []uint64{1}})
		array := &ln.pending[:1][0]
		if err := sw.StageShard(0, Update{Table: "conn", Key: k1, Delete: true}); err != nil {
			t.Fatal(err)
		}
		if err := sw.StageShard(0, Update{Table: "conn", Key: k2, Vals: []uint64{1, 2}}); err == nil {
			t.Fatal("a value tuple of the wrong arity was staged")
		}
		sw.FlipShard(0)
		install(t, sw, Update{Table: "conn", Key: k2, Vals: []uint64{2}})
		if &ln.pending[:1][0] != array {
			t.Error("the pending array was not reused across flips")
		}
		if slices.ContainsFunc(ln.pending[:cap(ln.pending)], func(op pendingOp) bool { return op != pendingOp{} }) {
			t.Error("a flipped batch left its entries in the reused pending array")
		}
		if _, visible := tbl.Lookup(k1); visible {
			t.Error("a later flip replayed the first batch's insert over the second batch's delete")
		}
		if v, visible := tbl.Lookup(k2); !visible || v[0] != 2 || tbl.Len() != 1 {
			t.Errorf("k2 = %v %v with %d entries, want 2 and one entry", v, visible, tbl.Len())
		}
	})
	t.Run("large flip releases the array", func(t *testing.T) {
		sw := New(compileMB(t, "minilb"))
		for _, n := range []int{pendingKeep, pendingKeep + 1} {
			for k := 0; k < n; k++ {
				if err := sw.StageShard(0, Update{Table: "conn", Key: ir.MakeMapKey(uint64(k)), Vals: []uint64{1}}); err != nil {
					t.Fatal(err)
				}
			}
			sw.FlipShard(0)
			if kept := sw.lanes[0].pending != nil; kept != (n <= pendingKeep) {
				t.Errorf("a flip of %d kept its pending array: %v, want %v", n, kept, n <= pendingKeep)
			}
		}
	})
	t.Run("full table admits a pending key's insert", func(t *testing.T) {
		sw := New(compileSrc(t, `
middlebox tinytbl {
    map<u16 -> u32> t(max = 2);
    proc process(pkt p) {
        let r = t.find(p.tcp.dport);
        if (r.ok) { send(p); } else { drop(p); }
    }
}
`))
		for k := uint64(0); k < 2; k++ {
			if err := sw.StageShard(0, Update{Table: "t", Key: ir.MakeMapKey(k), Vals: []uint64{1}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.StageShard(0, Update{Table: "t", Key: ir.MakeMapKey(1), Vals: []uint64{2}}); err != nil {
			t.Fatalf("an insert of a key already pending was refused: %v", err)
		}
		if err := sw.StageShard(0, Update{Table: "t", Key: ir.MakeMapKey(2), Vals: []uint64{1}}); !errors.Is(err, ErrTableFull) {
			t.Fatalf("a third key was staged into a table of two: %v", err)
		}
		sw.FlipShard(0)
		tbl, _ := sw.Table("t")
		if v, visible := tbl.Lookup(ir.MakeMapKey(1)); !visible || v[0] != 2 || tbl.Len() != 2 {
			t.Errorf("key 1 = %v %v with %d entries, want 2 and two entries", v, visible, tbl.Len())
		}
	})
}

// TestLaneFoldNeverHidesFlippedKey is the flip-versus-lookup race stress:
// one goroutine keeps pre-passing the key most recently flipped on shard 0
// while the test goroutine stages and flips fresh keys, growing the table
// through a dozen array rebuilds. A flipped, never-deleted key must never
// miss, whichever side of a flip or a rebuild the pass's loads land on.
func TestLaneFoldNeverHidesFlippedKey(t *testing.T) {
	sw := New(compileMB(t, "minilb"))
	sw.ConfigureShards(1)
	const keys = 6000
	tmpl := packet.BuildTCP(0, 0, 1000, 80, packet.TCPOptions{})

	var latest atomic.Int64 // highest key flipped into lane 0 so far
	latest.Store(-1)
	var missed atomic.Int64
	missed.Store(-1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var pkt packet.Packet
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := latest.Load()
			if k < 0 {
				continue
			}
			pkt = *tmpl
			pkt.IP.SrcIP = packet.IPv4Addr(k)
			pre, err := sw.ProcessPreShard(&pkt, 0, nil)
			if err != nil || pre.Action != ir.ActionSent {
				missed.CompareAndSwap(-1, k)
				return
			}
		}
	}()
	for k := 0; k < keys && missed.Load() < 0; k++ {
		if err := sw.StageShard(0, Update{Table: "conn", Key: ir.MakeMapKey(uint64(k)), Vals: []uint64{7}}); err != nil {
			t.Fatal(err)
		}
		sw.FlipShard(0)
		latest.Store(int64(k))
		sw.CompactShard(0)
	}
	close(stop)
	wg.Wait()
	if k := missed.Load(); k >= 0 {
		t.Fatalf("pre-pass missed key %d after it was flipped on shard 0", k)
	}
}

// TestFIFOOnlyTracksCacheTables pins the eviction order's footprint: a
// table that never evicts must not remember the insertion order of every
// key written to it.
func TestFIFOOnlyTracksCacheTables(t *testing.T) {
	sw := New(compileMB(t, "minilb"))
	for k := 0; k < 10000; k++ {
		if err := sw.StageShard(0, Update{Table: "conn", Key: ir.MakeMapKey(uint64(k)), Vals: []uint64{1}}); err != nil {
			t.Fatal(err)
		}
	}
	sw.FlipShard(0)
	tbl, _ := sw.Table("conn")
	if tbl.Len() != 10000 || len(tbl.fifo) != 0 {
		t.Fatalf("non-cached table after 10000 inserts: %d entries, fifo holds %d (want 10000, 0)", tbl.Len(), len(tbl.fifo))
	}
}

// TestStageBatch: a batch stages under one lock and counts one control op
// per update it took up. A full table's refusal is skipped and counted,
// the rest of the batch staged; any other error unstages what the call
// staged — and only that — so the next flip publishes what was pending
// before the batch and nothing of it.
func TestStageBatch(t *testing.T) {
	sw := New(compileSrc(t, `
middlebox tinytbl {
    map<u16 -> u32> t(max = 2);
    proc process(pkt p) {
        let r = t.find(p.tcp.dport);
        if (r.ok) { send(p); } else { drop(p); }
    }
}
`))
	tbl, _ := sw.Table("t")
	ins := func(k, v uint64) Update { return Update{Table: "t", Key: ir.MakeMapKey(k), Vals: []uint64{v}} }
	ops := func() int { return sw.counts().CtlOps }

	staged, rejected, err := sw.StageBatch(0, []Update{ins(0, 1), ins(1, 1), ins(2, 1), ins(1, 2)})
	if err != nil || staged != 3 || rejected != 1 || ops() != 4 {
		t.Fatalf("full-table batch: staged %d, rejected %d, %d ops, %v; want 3, 1, 4 and no error", staged, rejected, ops(), err)
	}
	sw.FlipShard(0)
	if v, ok := tbl.Lookup(ir.MakeMapKey(1)); !ok || v[0] != 2 || tbl.Len() != 2 {
		t.Fatalf("key 1 = %v %v with %d entries, want 2 and two entries", v, ok, tbl.Len())
	}

	if err := sw.StageShard(0, Update{Table: "t", Key: ir.MakeMapKey(0), Delete: true}); err != nil {
		t.Fatal(err)
	}
	bad := Update{Table: "t", Key: ir.MakeMapKey(1, 1), Vals: []uint64{3}}
	before := ops()
	staged, rejected, err = sw.StageBatch(0, []Update{ins(1, 3), bad, ins(0, 4)})
	if err == nil || staged != 0 || rejected != 0 || ops() != before+2 {
		t.Fatalf("malformed batch: staged %d, rejected %d, %d ops, %v; want 0, 0, %d and an error", staged, rejected, ops()-before, err, 2)
	}
	if n := len(sw.lanes[0].pending); n != 1 || tbl.staged.Load() != 0 {
		t.Fatalf("%d updates pending, %d inserts counted staged; want only the earlier delete", n, tbl.staged.Load())
	}
	sw.FlipShard(0)
	if _, ok := tbl.Lookup(ir.MakeMapKey(0)); ok {
		t.Error("the delete pending before the failed batch was lost")
	}
	if v, ok := tbl.Lookup(ir.MakeMapKey(1)); !ok || v[0] != 2 {
		t.Errorf("key 1 = %v %v, want the failed batch's write undone (2)", v, ok)
	}

	if _, _, err := sw.StageBatch(1, []Update{ins(1, 5)}); err == nil {
		t.Error("a batch staged on a shard the switch does not have")
	}
	if err := sw.StageShard(0, ins(3, 1)); err != nil {
		t.Fatal(err)
	}
	if err := sw.StageShard(0, ins(4, 1)); !errors.Is(err, ErrTableFull) {
		t.Errorf("StageShard into a full table = %v, want ErrTableFull", err)
	}
}

// TestSmallFlipUndoInView: a flip of at most viewUndo updates takes its
// undo records from the view it publishes, so staging and flipping a new
// flow's two inserts allocates the two nodes and the view alone, and a
// pass pinned before the flip still resolves both keys as they were.
func TestSmallFlipUndoInView(t *testing.T) {
	sw := New(compileMB(t, "minilb"))
	tbl, _ := sw.Table("conn")
	next := uint64(1 << 20)
	batch, vals := make([]Update, viewUndo), []uint64{1}
	flip := func() {
		for i := range batch {
			batch[i] = Update{Table: "conn", Key: ir.MakeMapKey(next), Vals: vals}
			next++
		}
		if _, _, err := sw.StageBatch(0, batch); err != nil {
			t.Fatal(err)
		}
		sw.FlipShard(0)
	}
	for i := 0; i < 5000; i++ { // grow the probe array past the measured flips
		flip()
	}
	if allocs := testing.AllocsPerRun(200, flip); allocs != viewUndo+1 {
		t.Errorf("a flip of %d inserts allocates %.1f objects, want its nodes and one view", viewUndo, allocs)
	}

	old := sw.view.Load()
	k0, k1 := ir.MakeMapKey(next), ir.MakeMapKey(next+1)
	if _, _, err := sw.StageBatch(0, []Update{{Table: "conn", Key: k0, Vals: []uint64{1}}, {Table: "conn", Key: k1, Vals: []uint64{1}}}); err != nil {
		t.Fatal(err)
	}
	sw.FlipShard(0)
	nv := sw.view.Load()
	for r := old.undo.Load(); r != nil; r = r.next {
		if inView := r == &nv.undoBuf[0] || r == &nv.undoBuf[1]; !inView {
			t.Errorf("an undo record of a two-insert flip lives outside the view it published")
		}
	}
	if _, ok := tbl.lookup(old, &k0); ok {
		t.Error("a pass pinned before the flip sees its insert")
	}
	if _, ok := tbl.lookup(nv, &k1); !ok {
		t.Error("a pass pinned after the flip misses its insert")
	}
}
