package switchsim

import (
	"runtime"
	"sync"
	"testing"

	"gallium/internal/ir"
	"gallium/internal/lang"
	"gallium/internal/packet"
	"gallium/internal/partition"
)

// pairTabSource reads TWO tables under one key in its pre partition and
// stamps what it found into the packet (0 for a miss). The tests' control
// plane always writes both tables' entries for a key with the same value
// in one batch, so a packet with seq != ack has seen half a batch.
const pairTabSource = `
middlebox pairtab {
    map<u16 -> u32> ta(max = 65536);
    map<u16 -> u32> tb(max = 65536);
    proc process(pkt p) {
        u32 x = 0;
        u32 y = 0;
        let a = ta.find(p.tcp.dport);
        if (a.ok) { x = a.v0; }
        let b = tb.find(p.tcp.dport);
        if (b.ok) { y = b.v0; }
        p.tcp.seq = x;
        p.tcp.ack = y;
        send(p);
    }
}
`

// both builds the pair of updates that writes (or deletes) key k in ta and
// tb together.
func both(k, gen uint64, del bool) []Update {
	key := ir.MakeMapKey(k)
	return []Update{
		{Table: "ta", Key: key, Vals: []uint64{gen}, Delete: del},
		{Table: "tb", Key: key, Vals: []uint64{gen}, Delete: del},
	}
}

// TestTableBatchIsAtomic is the table counterpart of
// TestSnapshotFlipIsAtomic: one writer rewrites the same keys in two
// tables, one shared generation number per batch — overwriting in place,
// deleting and re-inserting across batches and within one, and growing
// and rebuilding the arrays with filler keys it later deletes — while
// eight readers run pre passes and fail on any pass that observes two
// generations. Under -race it also proves the in-place writes and the
// array swap are race-clean against lock-free readers.
func TestTableBatchIsAtomic(t *testing.T) {
	sw := New(compileSrc(t, pairTabSource))
	const (
		readers = 8
		hot     = 8 // keys 1..hot are the ones readers probe
		rounds  = 1500
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				pkt := packet.BuildTCP(1, 2, 1000, uint16(1+(id+i)%hot), packet.TCPOptions{})
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
					errs <- "one pass observed two generations of a batch: seq != ack"
					return
				}
			}
		}(r)
	}

	filler := uint64(1000)
	for gen := uint64(1); gen <= rounds; gen++ {
		var batch []Update
		for k := uint64(1); k <= hot; k++ {
			switch (gen + k) % 4 {
			case 0: // gone for one generation
				batch = append(batch, both(k, 0, true)...)
			case 1: // deleted and re-inserted within the batch
				batch = append(batch, both(k, 0, true)...)
				batch = append(batch, both(k, gen, false)...)
			default: // overwritten (or re-inserted after case 0)
				batch = append(batch, both(k, gen, false)...)
			}
		}
		// Fillers push both arrays through growth; deleting them a few
		// generations later leaves tombstones for the rebuilds to drop.
		for i := 0; i < 4; i++ {
			batch = append(batch, both(filler, gen, false)...)
			filler++
		}
		if gen > 8 {
			for i := uint64(0); i < 4; i++ {
				batch = append(batch, both(filler-36+i, 0, true)...)
			}
		}
		install(t, sw, batch...)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	ta, _ := sw.Table("ta")
	tb, _ := sw.Table("tb")
	if ta.Len() != tb.Len() {
		t.Fatalf("ta holds %d entries, tb %d: some batch applied to one table only", ta.Len(), tb.Len())
	}
}

// TestPinnedViewResolvesThroughUndo is the deterministic half: a view
// pinned before three flips that overwrite, delete and re-insert one key —
// with enough other traffic in between to rebuild the array and drop the
// key's tombstone — still resolves the key to its original value, each
// intermediate view to its own, and a fresh view to the last.
func TestPinnedViewResolvesThroughUndo(t *testing.T) {
	sw := New(compileSrc(t, pairTabSource))
	tbl, _ := sw.Table("ta")
	key := ir.MakeMapKey(7)
	other := ir.MakeMapKey(8) // never written
	put := func(v uint64) Update { return Update{Table: "ta", Key: key, Vals: []uint64{v}} }
	churn := func(from uint64) {
		for k := from; k < from+64; k++ {
			install(t, sw, Update{Table: "ta", Key: ir.MakeMapKey(k), Vals: []uint64{k}})
			install(t, sw, Update{Table: "ta", Key: ir.MakeMapKey(k), Delete: true})
		}
	}

	install(t, sw, put(1))
	v0 := sw.view.Load()
	slots0 := tbl.slots.Load()

	install(t, sw, put(2))
	v1 := sw.view.Load()
	churn(100)
	install(t, sw, Update{Table: "ta", Key: key, Delete: true})
	v2 := sw.view.Load()
	churn(200)
	install(t, sw, put(3))
	v3 := sw.view.Load()

	if tbl.slots.Load() == slots0 {
		t.Fatal("the churn never rebuilt the array; the test no longer covers dropped tombstones")
	}
	for _, c := range []struct {
		name string
		v    *view
		want uint64 // 0: absent
	}{
		{"pinned before the overwrite", v0, 1},
		{"pinned after the overwrite", v1, 2},
		{"pinned after the delete", v2, 0},
		{"fresh", v3, 3},
	} {
		vals, ok := tbl.lookup(c.v, &key)
		if ok != (c.want != 0) || (ok && vals[0] != c.want) {
			t.Errorf("%s: lookup = %v %v, want value %d (0 = absent)", c.name, vals, ok, c.want)
		}
		if _, ok := tbl.lookup(c.v, &other); ok {
			t.Errorf("%s: a key no flip ever wrote resolves", c.name)
		}
	}
	if v0.next.Load() == nil || v3.next.Load() != nil || v3.undo.Load() != nil {
		t.Error("history must hang off superseded views only: the current view has no successor and no undo records")
	}
}

// cacheRes compiles a connection tracker whose table is a 4-entry §7
// cache of the server's authoritative map.
func cacheRes(t *testing.T) *partition.Result {
	t.Helper()
	prog, err := lang.Compile(`
middlebox tracker {
    map<u32,u16 -> u8> conns(max = 1024);
    proc process(pkt p) {
        let c = conns.find(p.ip.saddr, p.tcp.sport);
        if (c.ok) {
            send(p);
        } else {
            conns.insert(p.ip.saddr, p.tcp.sport, 1);
            send(p);
        }
    }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	cons := partition.DefaultConstraints()
	cons.CacheEntries = map[string]int{"conns": 4}
	res, err := partition.Partition(prog, cons)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCacheNeverExceedsCapacityAtAnyFlip drives 40 fills through a
// 4-entry cache table on both call sequences a driver may use — the
// per-shard one and the shard-0 forwards — and checks the occupancy after
// every flip: eviction is part of the flip, not of some later fold.
func TestCacheNeverExceedsCapacityAtAnyFlip(t *testing.T) {
	res := cacheRes(t)
	sequences := []struct {
		name  string
		round func(sw *Switch, u Update) error
	}{
		{"StageShard+FlipShard+CompactShard", func(sw *Switch, u Update) error {
			err := sw.StageShard(0, u)
			sw.FlipShard(0)
			sw.CompactShard(0)
			return err
		}},
		{"StageWriteback+FlipVisibility+CompactWriteback", func(sw *Switch, u Update) error {
			err := sw.StageWriteback(u)
			sw.FlipVisibility()
			sw.CompactWriteback()
			return err
		}},
	}
	for _, seq := range sequences {
		t.Run(seq.name, func(t *testing.T) {
			sw := New(res)
			for i := 0; i < 40; i++ {
				u := Update{Table: "conns", Key: ir.MakeMapKey(uint64(i), 1000), Vals: []uint64{1}}
				if err := seq.round(sw, u); err != nil {
					t.Fatalf("fill %d: %v", i, err)
				}
				if got := sw.Stats().TableEntries["conns"]; got > 4 {
					t.Fatalf("cache serves %d entries after fill %d, capacity 4", got, i)
				}
			}
			st := sw.Stats()
			if st.TableEntries["conns"] != 4 || st.Evictions != 36 {
				t.Errorf("%d entries and %d evictions after 40 fills, want 4 and 36", st.TableEntries["conns"], st.Evictions)
			}
			// FIFO: the survivors are the last four fills.
			for i := 36; i < 40; i++ {
				if visible, _ := sw.VisibleEntry("conns", ir.MakeMapKey(uint64(i), 1000)); !visible {
					t.Errorf("fill %d evicted ahead of older entries", i)
				}
			}
		})
	}
}

// TestWritebackAllocationIsConstant pins O(1): with 32,768 entries
// resident, one insert's stage + flip allocates under 1 KiB in at most
// two objects — the entry's node and the successor view, which carries
// the flip's undo record — however large the table is.
func TestWritebackAllocationIsConstant(t *testing.T) {
	sw := New(compileMB(t, "minilb"))
	const resident, updates = 32768, 1000
	vals := []uint64{1}
	for k := 0; k < resident; k++ {
		if err := sw.StageShard(0, Update{Table: "conn", Key: ir.MakeMapKey(uint64(k)), Vals: vals}); err != nil {
			t.Fatal(err)
		}
	}
	sw.FlipShard(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := resident; k < resident+updates; k++ {
		if err := sw.StageShard(0, Update{Table: "conn", Key: ir.MakeMapKey(uint64(k)), Vals: vals}); err != nil {
			t.Fatal(err)
		}
		sw.FlipShard(0)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / updates; per >= 1024 {
		t.Fatalf("one stage + flip at %d resident entries allocates %d bytes, want under 1 KiB", resident, per)
	}
	if per := (after.Mallocs - before.Mallocs) / updates; per > 2 {
		t.Fatalf("one stage + flip at %d resident entries makes %d allocations, want at most 2 (node, view)", resident, per)
	}
	if tbl, _ := sw.Table("conn"); tbl.Len() != resident+updates {
		t.Fatalf("table holds %d entries, want %d", tbl.Len(), resident+updates)
	}
}
