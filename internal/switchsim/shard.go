package switchsim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gallium/internal/ir"
)

// Per-shard control-plane lanes.
//
// The engine runs one control-plane drainer per worker shard. With a
// single global write-back overlay every drainer would serialize on the
// switch's control-plane mutex and every flip would copy every other
// shard's staged entries into the published snapshot — worker N's
// slow-path write-backs queueing behind worker M's, exactly the convoy
// the sharded engine exists to avoid. A lane gives each shard its own
// §4.3.3 write-back overlay: staging and flipping touch only the lane's
// own mutex and its own atomic view pointer, so shards commit
// independently. The global snapshot path (registers, vectors,
// whole-table Replace, seeding) is untouched; plain table inserts and
// deletes — the entire steady-state slow-path traffic — ride the lanes.
//
// Visibility semantics: a lane's flipped entries are visible to lookups
// that pass the lane's shard index (ProcessPreShard/ProcessPostShard)
// the moment FlipShard publishes them, and to every other shard only
// after the lane folds into the main tables (CompactShard, amortized at
// the same sqrt threshold as the global overlay, or FoldShards at a
// reconfiguration). Flow affinity makes that exact where it matters: a
// flow's write-backs are staged by its own shard's drainer and looked
// up by its own shard's worker, so a flow still never observes the
// switch missing its own earlier write-back. Cross-shard visibility
// widens from "until the next flip" to "until the next fold", which is
// the same benign stale window the engine already documents — a shard
// that misses another shard's entry takes the slow path, where its own
// authoritative server state answers.
//
// Capacity across lanes is enforced approximately: a lane admits an
// insert while (global visible size + its own lane-resident entries) is
// under the table's capacity, so concurrent lanes can transiently
// overshoot by at most (shards-1) merge thresholds before a fold
// re-synchronizes. ErrTableFull is a soft failure everywhere, so the
// overshoot trades a hard cross-lane count (which would re-serialize
// every drainer on one counter) for bounded slack.

// ctlLane is one shard's control-plane lane. The hot fields are padded
// to cache-line boundaries so two shards' lanes never share a line —
// each lane's mutex and view pointer are written by exactly one drainer
// and read by exactly one worker.
type ctlLane struct {
	_  [64]byte
	mu sync.Mutex
	// pending holds staged-but-invisible updates (drainer-side, under mu).
	pending map[string]*laneTable
	// view is the published, immutable overlay the shard's data-plane
	// lookups consult before the global snapshot.
	view atomic.Pointer[laneOverlay]
	// stats are this lane's activity counters; Stats() sums them across
	// lanes so the per-packet hot path never contends on shared atomics.
	stats laneStats
	_     [64]byte
}

// laneStats mirrors the data-plane and staging counters of liveStats,
// padded so adjacent lanes' counter blocks never false-share.
type laneStats struct {
	_                                                  [64]byte
	prePackets, postPackets, fastPath, toServer, punts atomic.Int64
	drops, stepsTotal                                  atomic.Int64
	ctlOps, ctlFlips, expired                          atomic.Int64
	_                                                  [64]byte
}

// laneOverlay is one lane's published view: immutable once stored, like
// the global snapshot.
type laneOverlay struct {
	tables map[string]*laneTable
}

// laneTable is one table's lane-resident overlay: staged inserts plus
// staged deletions, mutually exclusive per key (last writer wins within
// a window, as in the global overlay).
type laneTable struct {
	wb  map[ir.MapKey][]uint64
	del map[ir.MapKey]bool
}

func newLaneTable() *laneTable {
	return &laneTable{wb: map[ir.MapKey][]uint64{}, del: map[ir.MapKey]bool{}}
}

// lookup resolves a key against the lane overlay: a staged deletion
// shadows the global view; a staged insert hits.
func (ov *laneOverlay) lookup(table string, key ir.MapKey) (vals []uint64, hit, deleted bool) {
	if ov == nil {
		return nil, false, false
	}
	lt, ok := ov.tables[table]
	if !ok {
		return nil, false, false
	}
	if lt.del[key] {
		return nil, false, true
	}
	v, ok := lt.wb[key]
	return v, ok, false
}

// size reports the overlay's entry count for one table.
func (ov *laneOverlay) size(table string) int {
	if ov == nil {
		return 0
	}
	lt, ok := ov.tables[table]
	if !ok {
		return 0
	}
	return len(lt.wb) + len(lt.del)
}

// ConfigureShards sizes the switch for n per-shard control-plane lanes
// (n <= 1 keeps the single default lane). It must be called before any
// concurrent traffic — the engine calls it at construction; lanes cannot
// be resized while drainers run.
func (sw *Switch) ConfigureShards(n int) {
	if n < 1 {
		n = 1
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	lanes := make([]*ctlLane, n)
	for i := range lanes {
		lanes[i] = &ctlLane{}
	}
	sw.lanes = lanes
}

// Shards reports the configured lane count.
func (sw *Switch) Shards() int { return len(sw.lanes) }

// LaneEligible reports whether an update may ride a per-shard lane:
// plain table inserts and deletes (the steady-state slow path). Register
// writes, vector swaps, and whole-table replacements carry global
// semantics and must go through StageWriteback + FlipVisibility.
func LaneEligible(u Update) bool {
	return u.Table != "" && !u.Replace && u.Register == "" && u.Vec == ""
}

// StageShard stages one lane-eligible update into shard's lane, invisible
// until FlipShard. Unlike StageWriteback it takes only the lane's own
// mutex — concurrent shards stage without serializing on each other.
func (sw *Switch) StageShard(shard int, u Update) error {
	if !LaneEligible(u) {
		return fmt.Errorf("switchsim: update for table %q is not lane-eligible", u.Table)
	}
	if shard < 0 || shard >= len(sw.lanes) {
		return fmt.Errorf("switchsim: shard %d out of range (%d lanes)", shard, len(sw.lanes))
	}
	snap := sw.snap.Load()
	st, ok := snap.tables[u.Table]
	if !ok {
		return fmt.Errorf("switchsim: table %q not resident", u.Table)
	}
	ln := sw.lanes[shard]
	ln.mu.Lock()
	defer ln.mu.Unlock()
	ln.stats.ctlOps.Add(1)
	sw.c.ctlOps.Inc()
	sw.c.ctlStaged.Inc()
	if ln.pending == nil {
		ln.pending = map[string]*laneTable{}
	}
	lt, ok := ln.pending[u.Table]
	if !ok {
		lt = newLaneTable()
		ln.pending[u.Table] = lt
	}
	if u.Delete {
		if u.Expire {
			ln.stats.expired.Add(1)
			sw.c.expired.Inc()
		}
		lt.del[u.Key] = true
		delete(lt.wb, u.Key)
		return nil
	}
	if st.capacity > 0 && !st.cached {
		// Approximate cross-lane capacity: global visible size plus this
		// lane's resident entries. See the package comment for the bound.
		occupied := len(st.main) + len(st.wb) +
			ln.view.Load().size(u.Table) + len(lt.wb)
		if occupied >= st.capacity && !sw.keyAdmitted(ln, lt, st, u.Table, u.Key) {
			return fmt.Errorf("%w: %q (%d entries)", ErrTableFull, u.Table, st.capacity)
		}
	}
	lt.wb[u.Key] = append([]uint64(nil), u.Vals...)
	delete(lt.del, u.Key)
	return nil
}

// keyAdmitted reports whether key is already resident somewhere this
// lane can see (so overwriting it cannot grow the table). Callers hold
// ln.mu.
func (sw *Switch) keyAdmitted(ln *ctlLane, pending *laneTable, st *snapTable, table string, key ir.MapKey) bool {
	if _, ok := pending.wb[key]; ok {
		return true
	}
	if _, hit, _ := ln.view.Load().lookup(table, key); hit {
		return true
	}
	_, hit, _ := st.lookup(key)
	return hit
}

// FlipShard publishes shard's staged lane updates in one atomic store —
// the per-shard §4.3.3 visibility flip. Lookups from this shard pinned
// the previous view see none of the batch; lookups after see all of it.
func (sw *Switch) FlipShard(shard int) {
	if shard < 0 || shard >= len(sw.lanes) {
		return
	}
	ln := sw.lanes[shard]
	ln.mu.Lock()
	defer ln.mu.Unlock()
	if len(ln.pending) == 0 {
		return
	}
	ln.stats.ctlFlips.Add(1)
	ln.stats.ctlOps.Add(1)
	sw.c.ctlFlips.Inc()
	sw.c.ctlOps.Inc()
	old := ln.view.Load()
	nv := &laneOverlay{tables: map[string]*laneTable{}}
	if old != nil {
		for name, lt := range old.tables {
			c := newLaneTable()
			for k, v := range lt.wb {
				c.wb[k] = v
			}
			for k := range lt.del {
				c.del[k] = true
			}
			nv.tables[name] = c
		}
	}
	for name, pend := range ln.pending {
		c, ok := nv.tables[name]
		if !ok {
			c = newLaneTable()
			nv.tables[name] = c
		}
		for k, v := range pend.wb {
			c.wb[k] = v
			delete(c.del, k)
		}
		for k := range pend.del {
			c.del[k] = true
			delete(c.wb, k)
		}
	}
	ln.view.Store(nv)
	ln.pending = nil
	sw.gEpoch.Set(int64(sw.epoch.Add(1)))
}

// CompactShard folds shard's published lane overlay into the main tables
// once it outgrows the same sqrt amortization threshold the global
// overlay uses. The fold takes the global control-plane mutex (it
// publishes a fresh snapshot) but runs only once per ~sqrt(main) staged
// entries, so lanes stay independent in the steady state.
func (sw *Switch) CompactShard(shard int) {
	if shard < 0 || shard >= len(sw.lanes) {
		return
	}
	ln := sw.lanes[shard]
	ov := ln.view.Load()
	if ov == nil {
		return
	}
	snap := sw.snap.Load()
	need := false
	for name := range ov.tables {
		st, ok := snap.tables[name]
		if !ok {
			continue
		}
		if ov.size(name) >= mergeThreshold(len(st.main)) {
			need = true
			break
		}
	}
	if !need {
		return
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	ln.mu.Lock()
	defer ln.mu.Unlock()
	if sw.foldLaneLocked(ln) {
		sw.publishLocked()
	}
	ln.clearLocked()
}

// FoldShards folds every lane's overlay (published and pending) into the
// main tables and publishes once. The engine calls it at quiescent
// points — before staging a reconfiguration (so stale lane entries
// cannot shadow the reconfig's staged deletions) and at Stop (so the
// final table contents are consolidated and exact). Callers must ensure
// no drainer is concurrently staging; the locks make the fold safe, but
// only quiescence makes "one visibility flip" mean anything.
func (sw *Switch) FoldShards() {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	changed := false
	// Every lane stays locked from its fold to its clear, so no FlipShard
	// can publish a fresh view in between and have the clear discard it.
	for _, ln := range sw.lanes {
		ln.mu.Lock()
		if sw.foldLaneLocked(ln) {
			changed = true
		}
	}
	if changed {
		sw.publishLocked()
	}
	for _, ln := range sw.lanes {
		ln.clearLocked()
		ln.mu.Unlock()
	}
}

// foldLaneLocked folds one lane's view and pending overlays into the
// main tables. Callers hold sw.mu and ln.mu, publish the folded snapshot,
// and only then clear the lane (clearLocked): a data-plane pass loads the
// lane view before the snapshot, so an entry must be in the published
// snapshot before it leaves the view or a pass could find it in neither.
func (sw *Switch) foldLaneLocked(ln *ctlLane) bool {
	changed := false
	fold := func(tables map[string]*laneTable) {
		for name, lt := range tables {
			t, ok := sw.tables[name]
			if !ok || len(lt.wb)+len(lt.del) == 0 {
				continue
			}
			changed = true
			sw.foldIntoMainLocked(t, lt.wb, lt.del)
		}
	}
	fold(viewTables(ln.view.Load()))
	fold(ln.pending)
	return changed
}

// clearLocked empties a lane whose content has been folded and published.
// Callers hold ln.mu.
func (ln *ctlLane) clearLocked() {
	ln.view.Store(nil)
	ln.pending = nil
}

// laneTableEntries sums the net lane-resident contribution to one
// table's visible entry count, resolving duplicate keys across lanes
// deterministically (first lane wins — lanes are consulted per shard,
// so a cross-lane duplicate is already a program without flow affinity).
// Callers hold sw.mu (any mode).
func (sw *Switch) laneTableEntries(name string, t *Table) int {
	add := 0
	var seen map[ir.MapKey]bool
	for _, ln := range sw.lanes {
		ln.mu.Lock()
		for _, src := range []map[string]*laneTable{ln.pending, viewTables(ln.view.Load())} {
			lt, ok := src[name]
			if !ok {
				continue
			}
			for k := range lt.wb {
				if seen[k] {
					continue
				}
				if seen == nil {
					seen = map[ir.MapKey]bool{}
				}
				seen[k] = true
				if _, visible := t.Lookup(k); !visible {
					add++
				}
			}
			for k := range lt.del {
				if seen[k] {
					continue
				}
				if seen == nil {
					seen = map[ir.MapKey]bool{}
				}
				seen[k] = true
				if _, visible := t.Lookup(k); visible {
					add--
				}
			}
		}
		ln.mu.Unlock()
	}
	return add
}

// viewTables unwraps an overlay's table map (nil-safe).
func viewTables(ov *laneOverlay) map[string]*laneTable {
	if ov == nil {
		return nil
	}
	return ov.tables
}
