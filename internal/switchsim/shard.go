package switchsim

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"gallium/internal/ir"
)

// The control plane (§4.3.3): stage, then flip.
//
// Each engine worker owns one shard of the control plane, and each shard
// owns a pending batch: StageShard validates an update and appends it,
// touching nothing a packet can see; FlipShard applies the shard's batch
// to the tables in place and publishes the successor view, which is the
// one atomic operation that makes the batch visible — to every shard. A
// worker stages and flips its own write-backs on its own goroutine.
// Sequential drivers (Testbed, Deployment, SeedFrom) and the engine's
// quiescent Reconfigure are shard 0 of the same protocol.
//
// Capacity across shards is enforced with bounded slack: a stage admits an
// insert while the table's visible entries plus the inserts staged on any
// shard stay under its capacity, but the check and the count are two
// steps, so shards staging at the same instant can overshoot by at most
// (shards-1) entries. ErrTableFull is a soft failure everywhere, so the
// slack trades a lock every worker would serialize on for a bounded
// overshoot.

// ctlLane is what is genuinely per shard: the pending batch and the
// counter block. It is padded to cache-line boundaries so two shards'
// lanes never share a line.
type ctlLane struct {
	_  [64]byte
	mu sync.Mutex
	// pending holds the staged, invisible updates in staging order; Vals,
	// VecVals and Entries are private copies.
	pending []Update
	// stats are this lane's activity counters; Stats() sums them across
	// lanes so the per-packet hot path never contends on shared atomics.
	stats laneStats
	_     [64]byte
}

// laneStats are one shard's data-plane and staging counters, padded so
// adjacent lanes' counter blocks never false-share.
type laneStats struct {
	_                                                  [64]byte
	prePackets, postPackets, fastPath, toServer, punts atomic.Int64
	drops, stepsTotal                                  atomic.Int64
	ctlOps, ctlFlips, expired                          atomic.Int64
	_                                                  [64]byte
}

// ConfigureShards sizes the switch for n shards (n <= 1 keeps the single
// default one). It must be called before any concurrent traffic — the
// engine calls it at construction; lanes cannot be resized while workers
// stage on them.
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

// statsFor returns the counter block a pass on shard accounts into
// (shard 0's for an out-of-range index).
func (sw *Switch) statsFor(shard int) *laneStats {
	if shard < 0 || shard >= len(sw.lanes) {
		shard = 0
	}
	return &sw.lanes[shard].stats
}

// StageShard validates one update of any kind and appends it to shard's
// pending batch, invisible until FlipShard. It takes only the shard's own
// mutex — concurrent shards stage without serializing on each other. An
// out-of-range shard is an error, so nothing can be pending where
// FlipShard would not find it. A key or value tuple whose arity disagrees
// with the table's declaration is an error here, so the flip and the data
// plane only ever meet well-formed entries.
func (sw *Switch) StageShard(shard int, u Update) error {
	if shard < 0 || shard >= len(sw.lanes) {
		return fmt.Errorf("switchsim: shard %d out of range (%d shards)", shard, len(sw.lanes))
	}
	ln := sw.lanes[shard]
	v := sw.view.Load()
	ln.mu.Lock()
	defer ln.mu.Unlock()
	ln.stats.ctlOps.Add(1)
	v.obs.ctlOps.Inc()
	v.obs.ctlStaged.Inc()
	t, resident := sw.Table(u.Table)
	switch {
	case u.Register != "":
		if _, ok := sw.global(u.Register, ir.KindScalar); !ok {
			return fmt.Errorf("switchsim: register %q not resident", u.Register)
		}
	case u.Vec != "":
		if _, err := sw.checkVector(u.Vec, u.VecVals); err != nil {
			return err
		}
		u.VecVals = slices.Clone(u.VecVals)
	case !resident:
		return fmt.Errorf("switchsim: table %q not resident", u.Table)
	case u.Replace:
		if t.capacity > 0 && len(u.Entries) > t.capacity && !t.cached {
			return fmt.Errorf("%w: %q (%d entries, capacity %d)", ErrTableFull, u.Table, len(u.Entries), t.capacity)
		}
		entries := make(map[ir.MapKey][]uint64, len(u.Entries))
		for k, vals := range u.Entries {
			if err := t.checkEntry(&k, vals); err != nil {
				return err
			}
			entries[k] = slices.Clone(vals)
		}
		u.Entries = entries
	case u.Delete:
		if err := t.checkKey(&u.Key); err != nil {
			return err
		}
		if u.Expire {
			ln.stats.expired.Add(1)
			v.obs.expired.Inc()
		}
	default:
		if err := t.checkEntry(&u.Key, u.Vals); err != nil {
			return err
		}
		if t.capacity > 0 && !t.cached && t.live.Load()+t.staged.Load() >= int64(t.capacity) && !ln.overwrites(v, t, &u) {
			return fmt.Errorf("%w: %q (%d entries)", ErrTableFull, u.Table, t.capacity)
		}
		t.staged.Add(1)
		u.Vals = slices.Clone(u.Vals)
	}
	ln.pending = append(ln.pending, u)
	return nil
}

// checkKey rejects a key whose width is not the one the table's global
// declares; checkEntry a value tuple's as well.
func (t *Table) checkKey(key *ir.MapKey) error {
	if int(key.N) != t.nk {
		return fmt.Errorf("switchsim: table %q: key has %d components, declared %d", t.name, key.N, t.nk)
	}
	return nil
}

func (t *Table) checkEntry(key *ir.MapKey, vals []uint64) error {
	if len(vals) != t.nv {
		return fmt.Errorf("switchsim: table %q: entry has %d values, declared %d", t.name, len(vals), t.nv)
	}
	return t.checkKey(key)
}

// overwrites reports whether u's key is already visible or already has an
// insert pending on this lane, so admitting u cannot grow the table — and
// refusing it would leave the switch serving a stale value. Callers hold
// ln.mu.
func (ln *ctlLane) overwrites(v *view, t *Table, u *Update) bool {
	if _, ok := t.lookup(v, &u.Key); ok {
		return true
	}
	for i := range ln.pending {
		if p := &ln.pending[i]; p.Table == u.Table && p.Key == u.Key && !p.Delete && !p.Replace {
			return true
		}
	}
	return false
}

// FlipShard makes shard's staged batch visible with one atomic store — the
// §4.3.3 visibility flip. Under the control-plane mutex it applies the
// batch to the tables in place, in staging order (last writer wins), each
// write stamped with the next epoch and preceded by an undo record on the
// current view; then §7 cache tables evict down to capacity, as deletions
// of the same batch; then the successor view is published. A pass that
// pinned the current view sees none of the batch, however far the flip has
// got; a pass that pins the successor sees all of it. The cost is O(batch).
// A shard with nothing pending — any out-of-range index included, since
// StageShard refuses those — is a no-op.
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
	sw.mu.Lock()
	defer sw.mu.Unlock()
	cur := sw.view.Load()
	nv := cur.successor()
	ln.stats.ctlFlips.Add(1)
	ln.stats.ctlOps.Add(1)
	cur.obs.ctlFlips.Inc()
	cur.obs.ctlOps.Inc()
	ownRegs, ownVecs := false, false // nv's maps are still cur's until written
	for i := range ln.pending {
		u := &ln.pending[i]
		// StageShard checked that the one name u carries is resident.
		switch {
		case u.Register != "":
			if !ownRegs {
				nv.registers, ownRegs = slices.Clone(cur.registers), true
			}
			nv.registers[sw.globals[u.Register]] = u.RegVal
		case u.Vec != "":
			if !ownVecs {
				nv.vecs, ownVecs = slices.Clone(cur.vecs), true
			}
			nv.vecs[sw.globals[u.Vec]] = u.VecVals
		default:
			t := sw.tables[sw.globals[u.Table]]
			switch {
			case u.Replace:
				t.replace(cur, u.Entries)
			case u.Delete:
				t.write(cur, t.newNode(u.Key.K[:t.nk], nil, true))
			default:
				t.staged.Add(-1)
				t.write(cur, t.newNode(u.Key.K[:t.nk], u.Vals, false))
			}
		}
	}
	ln.pending = nil
	if sw.hasCacheTables {
		for _, t := range sw.tables {
			if t == nil {
				continue
			}
			if n := t.evict(cur); n > 0 {
				sw.evictions.Add(int64(n))
				cur.obs.evict.Add(uint64(n))
			}
		}
	}
	sw.publishLocked(nv)
}

// The six names below are the two write-back protocols this package used
// to have. They remain only because bench/ — a separate module this tree
// may not edit — replays the old write-back sequence by name; nothing
// else in the tree calls them, and they go with the next benchmark PR.

// LaneEligible reports whether an update is a plain table insert or
// delete, which the old protocol staged on a shard and everything else
// globally. StageShard now takes every kind.
func LaneEligible(u Update) bool {
	return u.Table != "" && !u.Replace && u.Register == "" && u.Vec == ""
}

// StageWriteback is StageShard on shard 0.
func (sw *Switch) StageWriteback(u Update) error { return sw.StageShard(0, u) }

// FlipVisibility is FlipShard on shard 0.
func (sw *Switch) FlipVisibility() { sw.FlipShard(0) }

// CompactShard, CompactWriteback and FoldShards folded overlays into the
// main tables; there is nothing left to fold.
func (sw *Switch) CompactShard(int)  {}
func (sw *Switch) CompactWriteback() {}
func (sw *Switch) FoldShards()       {}
