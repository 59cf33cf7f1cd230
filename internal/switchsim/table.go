package switchsim

import (
	"sync/atomic"
	"unsafe"

	"gallium/internal/ir"
)

// Table is one replicated match-action table: a single-writer,
// lock-free-reader open-addressed array of atomic pointers to immutable
// entry nodes, updated in place by the control plane's flip. Its key and
// value arity are fixed at New from the global's declaration, which is
// what lets an entry be one packed allocation. The exported methods are a
// read-only handle, safe to call while traffic runs.
type Table struct {
	sw       *Switch
	name     string
	capacity int
	// cached marks §7 cache mode: misses punt, and inserts beyond
	// capacity evict the oldest entry (FIFO).
	cached bool
	// nk and nv are the key and value arity in words.
	nk, nv int

	// slots is the probe array (power-of-two length, linear probing,
	// always at least one empty slot). Growth swaps a rebuilt array in
	// through this one pointer; the superseded array is never written
	// again, so a reader still probing it sees a complete older table.
	slots atomic.Pointer[slotArray]
	// live is the exact entry count as of the last applied write.
	live atomic.Int64
	// staged counts inserts staged on any shard and not yet flipped; the
	// capacity check adds it to live.
	staged atomic.Int64
	// used counts occupied slots, tombstones included (flip side only).
	used int
	// fifo orders a §7 cache table's entries by insertion for eviction.
	fifo []*node
	// obs holds this table's hit and miss counts once the switch is
	// instrumented.
	obs atomic.Pointer[tableObs]
}

// node is one version of one entry, immutable once write has stamped and
// stored it: a single allocation of 1+nk+nv words — the stamp, the key's
// nk words, the nv value words — of which the struct names only the first.
// A probe therefore touches the slot and then one or two adjacent cache
// lines, and the value tuple it returns is a sub-slice of the same words.
//
// The stamp is epoch<<1 | dead. epoch is the flip that wrote the node: a
// pass pinned to an older view must not see it. A dead node is a deletion
// ("a special value indicates table entry deletion", §4.3.3); it keeps the
// key's slot so a re-insert lands where lookups already probe.
type node struct{ stamp uint64 }

func (n *node) epoch() uint64 { return n.stamp >> 1 }
func (n *node) dead() bool    { return n.stamp&1 != 0 }

// slotArray is one probe array: ptrs[i] is slot i's node and tags[i] the
// top byte of that node's key hash (tagOf), so that a probe passing an
// occupied slot dereferences the node, a cache miss of its own, only
// when the tags agree. The flip side writes a slot's tag once, before
// the slot's first pointer Store — in write when the slot was empty, in
// rebuild into the fresh array — and never again while the array lives:
// later nodes in a slot carry the same key. A reader loads tags[i] only
// after it has loaded a non-nil ptrs[i], so that load orders the tag
// write before the read.
type slotArray struct {
	ptrs []atomic.Pointer[node]
	tags []uint8
}

func newSlotArray(size int) *slotArray {
	return &slotArray{ptrs: make([]atomic.Pointer[node], size), tags: make([]uint8, size)}
}

// tagOf is a key's tag, from its ir.HashKey h: the top byte, which the
// home slot (h's low bits) does not use below 2^56 slots.
func tagOf(h uint64) uint8 { return uint8(h >> 56) }

// newNode packs an entry, or with dead set a deletion, for a later write.
// key and vals have the table's arity (StageShard checked).
func (t *Table) newNode(key, vals []uint64, dead bool) *node {
	w := make([]uint64, 1+t.nk+t.nv)
	if dead {
		w[0] = 1
	}
	copy(w[1:], key)
	copy(w[1+t.nk:], vals)
	return (*node)(unsafe.Pointer(&w[0]))
}

// words returns n's whole allocation; newNode is the only producer of
// nodes, so the length is the table's.
func (t *Table) words(n *node) []uint64 { return unsafe.Slice(&n.stamp, 1+t.nk+t.nv) }

// key returns n's key words.
func (t *Table) key(n *node) []uint64 { return t.words(n)[1 : 1+t.nk] }

// undoRec is what one flip replaced for one key: n is the node the flip
// wrote (it carries the key) and old the node the key resolved to before
// (nil or dead when it was absent). Records hang off the view the flip
// supersedes, so they are garbage as soon as the last pass pinned to that
// view returns.
type undoRec struct {
	t      *Table
	n, old *node
	next   *undoRec
}

// undoSlab hands one flip its undo records: from the successor view's own
// array for a small batch, else from a single allocation sized to the
// batch. The writes a batch cannot count ahead — a Replace's deletions,
// §7 evictions — allocate theirs once it runs out.
type undoSlab []undoRec

func (s *undoSlab) take() *undoRec {
	if len(*s) == 0 {
		return new(undoRec)
	}
	r := &(*s)[0]
	*s = (*s)[1:]
	return r
}

func newTable(sw *Switch, g *ir.Global, capacity int, cached bool) *Table {
	t := &Table{sw: sw, name: g.Name, capacity: capacity, cached: cached,
		nk: len(g.KeyTypes), nv: len(g.ValTypes)}
	t.slots.Store(newSlotArray(8))
	return t
}

// Lookup resolves key as the data plane currently would.
func (t *Table) Lookup(key ir.MapKey) ([]uint64, bool) {
	return t.lookup(t.sw.view.Load(), &key)
}

// Len reports the number of visible entries.
func (t *Table) Len() int { return int(t.live.Load()) }

// Capacity reports the annotated maximum entry count (the §7 cache size
// for a cache table).
func (t *Table) Capacity() int { return t.capacity }

// slot returns the index of key's slot in s: the one holding its node, or
// the first empty one of its probe sequence. key has the table's arity
// and h is its ir.HashKey. An occupied slot's tag is read after its
// pointer, and its node's key only when the tag is key's.
func (t *Table) slot(s *slotArray, key []uint64, h uint64) uint64 {
	mask := uint64(len(s.ptrs) - 1)
	tag := tagOf(h)
	for i := h & mask; ; i = (i + 1) & mask {
		n := s.ptrs[i].Load()
		if n == nil || s.tags[i] == tag && ir.SameKey(t.key(n), key) {
			return i
		}
	}
}

// lookup resolves key as of view v — the whole data-plane read path. The
// slot's node answers when v's epoch has reached it; otherwise (nothing
// there, or a node some later flip wrote) the key's history does. A key of
// another arity than the table's matches nothing.
func (t *Table) lookup(v *view, key *ir.MapKey) ([]uint64, bool) {
	if int(key.N) != t.nk {
		return nil, false
	}
	kw := key.K[:t.nk]
	s := t.slots.Load()
	n := s.ptrs[t.slot(s, kw, ir.HashKey(kw))].Load()
	if n == nil || n.epoch() > v.epoch {
		n = t.before(v, kw)
	}
	if n == nil || n.dead() {
		return nil, false
	}
	return t.words(n)[1+t.nk:], true
}

// before walks the flips after v, oldest first: the first one that touched
// key recorded what it replaced, and that is the node as of v. No record
// means no later flip touched the key, so it was absent.
func (t *Table) before(v *view, key []uint64) *node {
	for w := v; w != nil; w = w.next.Load() {
		for r := w.undo.Load(); r != nil; r = r.next {
			if r.t == t && ir.SameKey(t.key(r.n), key) {
				return r.old
			}
		}
	}
	return nil
}

// write installs n — an entry or a deletion — in place as part of the flip
// that supersedes cur: it stamps n with that flip's epoch and first records
// on cur, in a record from undo, what a pass pinned at or before cur must
// still see. It reports whether a live entry was removed. Callers hold
// sw.mu.
func (t *Table) write(cur *view, n *node, undo *undoSlab) (removed bool) {
	epoch := cur.epoch + 1
	n.stamp |= epoch << 1
	s := t.slots.Load()
	if (t.used+1)*4 > len(s.ptrs)*3 {
		s = t.rebuild(epoch)
	}
	key := t.key(n)
	h := ir.HashKey(key)
	i := t.slot(s, key, h)
	old := s.ptrs[i].Load()
	wasLive := old != nil && !old.dead()
	if n.dead() && !wasLive {
		return false
	}
	// One record per key and flip: a node this flip wrote already has one,
	// and rebuild keeps such nodes, dead ones included.
	if old == nil || old.epoch() != epoch {
		r := undo.take()
		*r = undoRec{t: t, n: n, old: old, next: cur.undo.Load()}
		cur.undo.Store(r)
	}
	if old == nil {
		t.used++
		s.tags[i] = tagOf(h) // before the slot's first Store
	}
	s.ptrs[i].Store(n)
	if n.dead() || !wasLive { // not an overwrite: the entry count changes
		if n.dead() {
			t.live.Add(-1)
		} else {
			t.live.Add(1)
			if t.cached {
				t.fifo = append(t.fifo, n)
			}
		}
	}
	return n.dead()
}

// replace makes entries the table's whole content as part of the flip that
// supersedes cur: deletions of the keys entries lacks, then writes of the
// rest.
func (t *Table) replace(cur *view, entries map[ir.MapKey][]uint64, undo *undoSlab) {
	s := t.slots.Load()
	var k ir.MapKey
	k.N = uint8(t.nk)
	for i := range s.ptrs {
		if n := s.ptrs[i].Load(); n != nil && !n.dead() {
			copy(k.K[:], t.key(n))
			if _, keep := entries[k]; !keep {
				t.write(cur, t.newNode(t.key(n), nil, true), undo)
			}
		}
	}
	for k, vals := range entries {
		t.write(cur, t.newNode(k.K[:t.nk], vals, false), undo)
	}
}

// evict brings a §7 cache table back within its capacity as part of the
// flip that supersedes cur, deleting from the FIFO head, and reports how
// many entries went. A key deleted since it was queued is skipped.
func (t *Table) evict(cur *view, undo *undoSlab) (evicted int) {
	for t.cached && t.Len() > t.capacity && len(t.fifo) > 0 {
		victim := t.fifo[0]
		t.fifo = t.fifo[1:]
		if t.write(cur, t.newNode(t.key(victim), nil, true), undo) {
			evicted++
		}
	}
	return evicted
}

// rebuild swaps in a fresh array holding the live entries at no more than
// half load, dropping tombstones older than the flip in progress: a pass
// that needs the entry a dropped tombstone deleted misses here and finds
// it through the deleting flip's undo record.
func (t *Table) rebuild(epoch uint64) *slotArray {
	old := t.slots.Load()
	keep := func(n *node) bool { return n != nil && (!n.dead() || n.epoch() == epoch) }
	kept := 0
	for i := range old.ptrs {
		if keep(old.ptrs[i].Load()) {
			kept++
		}
	}
	size := 8
	for size < 2*(kept+1) {
		size *= 2
	}
	s := newSlotArray(size)
	for i := range old.ptrs {
		if n := old.ptrs[i].Load(); keep(n) {
			key := t.key(n)
			h := ir.HashKey(key)
			j := t.slot(s, key, h)
			s.tags[j] = tagOf(h)
			s.ptrs[j].Store(n)
		}
	}
	t.used = kept
	t.slots.Store(s)
	return s
}
