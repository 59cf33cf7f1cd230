package switchsim

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gallium/internal/ir"
	"gallium/internal/packet"
)

// laneView resolves a key through one shard's published lane overlay —
// the lookup the data plane performs (ProcessPreShard) before falling
// back to the global snapshot.
func laneView(sw *Switch, shard int, table string, key ir.MapKey) (hit, deleted bool) {
	_, hit, deleted = sw.laneAt(shard).view.Load().lookup(table, key)
	return hit, deleted
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
// protocol: staged entries are invisible everywhere; FlipShard publishes
// them to the staging shard's lane only; FoldShards lands them in the
// main tables, visible to every shard.
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
	if hit, _ := laneView(sw, 1, "conn", key); hit {
		t.Fatal("staged lane entry visible before FlipShard")
	}
	if _, visible := tbl.Lookup(key); visible {
		t.Fatal("staged lane entry leaked into the global view")
	}

	sw.FlipShard(1)
	if hit, _ := laneView(sw, 1, "conn", key); !hit {
		t.Fatal("flipped lane entry not visible to its own shard")
	}
	for _, other := range []int{0, 2, 3} {
		if hit, _ := laneView(sw, other, "conn", key); hit {
			t.Fatalf("shard %d sees shard 1's lane entry before a fold", other)
		}
	}
	if _, visible := tbl.Lookup(key); visible {
		t.Fatal("lane entry visible in main tables before a fold")
	}

	sw.FoldShards()
	if v, visible := tbl.Lookup(key); !visible || v[0] != 7 {
		t.Fatalf("entry not in main tables after FoldShards: %v %v", v, visible)
	}
	if hit, _ := laneView(sw, 1, "conn", key); hit {
		t.Fatal("lane overlay not cleared by FoldShards")
	}
}

// TestLaneDeleteShadows pins deletion semantics: a flipped lane deletion
// shadows a main-table entry for the deleting shard while every other
// shard still sees it, until a fold makes the removal global.
func TestLaneDeleteShadows(t *testing.T) {
	sw := New(compileMB(t, "minilb"))
	sw.ConfigureShards(2)
	tbl, _ := sw.Table("conn")
	key := ir.MakeMapKey(9)
	tbl.Main[key] = []uint64{1}

	if err := sw.StageShard(0, Update{Table: "conn", Key: key, Delete: true}); err != nil {
		t.Fatal(err)
	}
	sw.FlipShard(0)
	if _, deleted := laneView(sw, 0, "conn", key); !deleted {
		t.Fatal("flipped lane deletion does not shadow the main entry")
	}
	if _, deleted := laneView(sw, 1, "conn", key); deleted {
		t.Fatal("shard 1 sees shard 0's deletion before a fold")
	}
	if _, visible := tbl.Lookup(key); !visible {
		t.Fatal("main entry vanished before the fold")
	}
	sw.FoldShards()
	if _, ok := tbl.Main[key]; ok {
		t.Fatal("entry still in main table after FoldShards")
	}
}

// TestLaneLastWriterWins pins overlay compaction within a lane: an
// insert staged after a delete of the same key (across separate flips)
// must win, and vice versa.
func TestLaneLastWriterWins(t *testing.T) {
	sw := New(compileMB(t, "minilb"))
	sw.ConfigureShards(1)
	key := ir.MakeMapKey(5)

	if err := sw.StageShard(0, Update{Table: "conn", Key: key, Vals: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	sw.FlipShard(0)
	if err := sw.StageShard(0, Update{Table: "conn", Key: key, Delete: true}); err != nil {
		t.Fatal(err)
	}
	sw.FlipShard(0)
	if hit, deleted := laneView(sw, 0, "conn", key); hit || !deleted {
		t.Fatalf("delete-after-insert: hit=%v deleted=%v, want shadowing delete", hit, deleted)
	}

	if err := sw.StageShard(0, Update{Table: "conn", Key: key, Vals: []uint64{2}}); err != nil {
		t.Fatal(err)
	}
	sw.FlipShard(0)
	if hit, deleted := laneView(sw, 0, "conn", key); !hit || deleted {
		t.Fatalf("insert-after-delete: hit=%v deleted=%v, want live entry", hit, deleted)
	}
	sw.FoldShards()
	tbl, _ := sw.Table("conn")
	if v, visible := tbl.Lookup(key); !visible || v[0] != 2 {
		t.Fatalf("final fold lost the last write: %v %v", v, visible)
	}
}

// TestFoldShardsIncludesPending pins FoldShards' quiescent-point
// contract: it consolidates staged-but-unflipped entries too, so a
// reconfiguration never races a half-committed lane batch.
func TestFoldShardsIncludesPending(t *testing.T) {
	sw := New(compileMB(t, "minilb"))
	sw.ConfigureShards(2)
	key := ir.MakeMapKey(77)
	if err := sw.StageShard(1, Update{Table: "conn", Key: key, Vals: []uint64{3}}); err != nil {
		t.Fatal(err)
	}
	// No FlipShard: the entry is pending, not published.
	sw.FoldShards()
	tbl, _ := sw.Table("conn")
	if v, visible := tbl.Lookup(key); !visible || v[0] != 3 {
		t.Fatalf("pending lane entry not folded: %v %v", v, visible)
	}
}

// TestCompactShardAmortized pins the lane's sqrt-amortized self-fold:
// below the merge threshold CompactShard must be a no-op (lanes stay
// independent of the global mutex), at the threshold it folds the lane
// into the main tables.
func TestCompactShardAmortized(t *testing.T) {
	sw := New(compileMB(t, "minilb"))
	sw.ConfigureShards(2)
	tbl, _ := sw.Table("conn")
	th := mergeThreshold(len(tbl.Main))

	for i := 0; i < th-1; i++ {
		if err := sw.StageShard(0, Update{Table: "conn", Key: ir.MakeMapKey(uint64(i)), Vals: []uint64{uint64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	sw.FlipShard(0)
	sw.CompactShard(0)
	if len(tbl.Main) != 0 {
		t.Fatalf("CompactShard folded %d entries below the %d-entry threshold", len(tbl.Main), th)
	}

	if err := sw.StageShard(0, Update{Table: "conn", Key: ir.MakeMapKey(uint64(th - 1)), Vals: []uint64{9}}); err != nil {
		t.Fatal(err)
	}
	sw.FlipShard(0)
	sw.CompactShard(0)
	if len(tbl.Main) != th {
		t.Fatalf("CompactShard at threshold left %d entries in main, want %d", len(tbl.Main), th)
	}
	if hit, _ := laneView(sw, 0, "conn", ir.MakeMapKey(0)); hit {
		t.Fatal("lane overlay not cleared after compaction")
	}
}

// TestStageShardRejections pins the error surface: non-lane-eligible
// updates, out-of-range shards, and non-resident tables are refused.
func TestStageShardRejections(t *testing.T) {
	sw := New(compileMB(t, "minilb"))
	sw.ConfigureShards(2)
	key := ir.MakeMapKey(1)

	err := sw.StageShard(0, Update{Table: "conn", Replace: true})
	if err == nil || !strings.Contains(err.Error(), "not lane-eligible") {
		t.Errorf("replace via lane: err = %v, want lane-eligibility refusal", err)
	}
	err = sw.StageShard(2, Update{Table: "conn", Key: key, Vals: []uint64{1}})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("shard 2 of 2: err = %v, want range refusal", err)
	}
	err = sw.StageShard(0, Update{Table: "nonesuch", Key: key, Vals: []uint64{1}})
	if err == nil || !strings.Contains(err.Error(), "not resident") {
		t.Errorf("unknown table: err = %v, want residency refusal", err)
	}
}

// TestLaneFoldNeverHidesFlippedKey is the lane-fold race stress: one
// goroutine keeps pre-passing the key most recently flipped into lane 0
// while the test goroutine stages, flips and compacts fresh keys past
// the merge threshold. A flipped, never-deleted key lives in the lane
// view, in the main table, or (briefly) both — a pass must never find it
// in neither, whichever side of a fold its two atomic loads land on.
func TestLaneFoldNeverHidesFlippedKey(t *testing.T) {
	sw := New(compileMB(t, "minilb"))
	sw.ConfigureShards(1)
	const keys = 6000
	// minilb keys conn on (saddr ^ daddr) & 0xFFFF; a zero destination
	// makes the key the source address's low half.
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
		t.Fatalf("pre-pass missed key %d after it was flipped into lane 0 (fold hid it between view and snapshot)", k)
	}
}

// TestFIFOOnlyTracksCacheTables pins the eviction order's footprint: a
// table that never evicts must not remember the insertion order of every
// key folded into it.
func TestFIFOOnlyTracksCacheTables(t *testing.T) {
	sw := New(compileMB(t, "minilb"))
	for k := 0; k < 10000; k++ {
		if err := sw.StageShard(0, Update{Table: "conn", Key: ir.MakeMapKey(uint64(k)), Vals: []uint64{1}}); err != nil {
			t.Fatal(err)
		}
	}
	sw.FoldShards()
	tbl, _ := sw.Table("conn")
	if len(tbl.Main) != 10000 || len(tbl.fifo) != 0 {
		t.Fatalf("non-cached table after folding 10000 keys: %d entries, fifo holds %d (want 10000, 0)", len(tbl.Main), len(tbl.fifo))
	}
}
