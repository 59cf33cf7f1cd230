package ir

import (
	"fmt"
	"slices"
	"unsafe"
)

// Table is the server's copy of one map global, packed like a switch
// table's SRAM (§2.1): entry e is stride words of one slab — nk key words,
// nv value words (both widths from the declaration) and its EntryLife —
// found through an open-addressed probe index (linear probing, at most
// half full). A removal shifts the probe run back over the hole, so there
// are no tombstones, and frees the entry to a free list: an entry keeps
// its index while it lives. Both arrays grow as entries arrive, never from
// the declared maximum. A Table belongs to its State's goroutine.
type Table struct {
	name           string
	nk, nv, stride int
	words          []uint64 // the slab; len(words)/stride entries handed out
	index          []int32  // entry+1 per probe slot, 0 for an empty slot
	n              int      // live entries
	free           int32    // free-list head, chained through EntryLife.Next; -1 none
}

// EntryLife is an entry's lifecycle record, its last lifeWords words. The
// flow-state tracker owns the exported fields; an insert clears them.
type EntryLife struct {
	Touch      int64 // virtual time of the last find or write
	Prev, Next int32 // neighbours on the tracker's list for Class
	Class      uint8
	Linked     bool // on a tracker's list
	used       bool // live, not on the free list
}

const lifeWords, minSlots = 3, 8

var _ = [1]struct{}{}[unsafe.Sizeof(EntryLife{})-lifeWords*8] // EntryLife fills lifeWords words

func newTable(g *Global) *Table {
	nk, nv := len(g.KeyTypes), len(g.ValTypes)
	return &Table{name: g.Name, nk: nk, nv: nv, stride: nk + nv + lifeWords, free: -1, index: make([]int32, minSlots)}
}

// Name returns the map global's name.
func (t *Table) Name() string { return t.name }

// Len reports the number of entries.
func (t *Table) Len() int { return t.n }

// Key returns entry e's key.
func (t *Table) Key(e int32) MapKey {
	var k MapKey
	k.N = uint8(copy(k.K[:], t.KeyWords(e)))
	return k
}

// KeyWords returns entry e's key words in place.
func (t *Table) KeyWords(e int32) []uint64 {
	b := int(e) * t.stride
	return t.words[b : b+t.nk : b+t.nk]
}

// Vals returns entry e's value words in place, valid until a change.
func (t *Table) Vals(e int32) []uint64 {
	b := int(e)*t.stride + t.nk
	return t.words[b : b+t.nv : b+t.nv]
}

// Life returns entry e's lifecycle record in place.
func (t *Table) Life(e int32) *EntryLife {
	return (*EntryLife)(unsafe.Pointer(&t.words[(int(e)+1)*t.stride-lifeWords]))
}

// Find returns the index of key's entry, or -1. A key of another arity
// than the declaration's matches nothing, and a nil table holds nothing.
func (t *Table) Find(key *MapKey) int32 {
	if t == nil || int(key.N) != t.nk {
		return -1
	}
	_, e := t.probe(key.K[:t.nk])
	return e
}

// probe returns the probe slot holding key and its entry, or the first
// empty slot of key's sequence and -1.
func (t *Table) probe(kw []uint64) (int, int32) {
	mask := uint64(len(t.index) - 1)
	for i := HashKey(kw) & mask; ; i = (i + 1) & mask {
		if ix := t.index[i]; ix == 0 || SameKey(t.KeyWords(ix-1), kw) {
			return int(i), ix - 1
		}
	}
}

// Put stores a copy of vals under key, both of the declaration's arity,
// and returns the entry. It tells no lifecycle (State.InsertAt does): a
// tracker adopts the entry at its next sweep.
func (t *Table) Put(key *MapKey, vals []uint64) (int32, error) {
	if int(key.N) != t.nk || len(vals) != t.nv {
		return -1, fmt.Errorf("ir: insert into %q: %d key and %d value words, declared %d and %d", t.name, key.N, len(vals), t.nk, t.nv)
	}
	kw := key.K[:t.nk]
	i, e := t.probe(kw)
	if e < 0 {
		if 2*(t.n+1) > len(t.index) {
			t.grow()
			i, _ = t.probe(kw)
		}
		if e = t.free; e >= 0 {
			t.free = t.Life(e).Next
		} else {
			e = int32(len(t.words) / t.stride)
			t.words = slices.Grow(t.words, t.stride)[:len(t.words)+t.stride]
		}
		copy(t.words[int(e)*t.stride:], kw)
		*t.Life(e) = EntryLife{used: true}
		t.index[i] = e + 1
		t.n++
	}
	copy(t.Vals(e), vals)
	return e, nil
}

// grow doubles the probe index.
func (t *Table) grow() {
	old := t.index
	t.index = make([]int32, 2*len(old))
	for _, ix := range old {
		if ix != 0 {
			i, _ := t.probe(t.KeyWords(ix - 1))
			t.index[i] = ix
		}
	}
}

// Delete removes entry e. State.RemoveAt tells the lifecycle first.
func (t *Table) Delete(e int32) {
	mask := uint64(len(t.index) - 1)
	i := HashKey(t.KeyWords(e)) & mask
	for t.index[i] != e+1 {
		i = (i + 1) & mask
	}
	// Backward shift: each later entry of the run moves into the hole
	// unless its home slot lies cyclically after the hole.
	for j := (i + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		if home := HashKey(t.KeyWords(t.index[j]-1)) & mask; (j-home)&mask >= (j-i)&mask {
			t.index[i] = t.index[j]
			i = j
		}
	}
	t.index[i] = 0
	*t.Life(e) = EntryLife{Next: t.free}
	t.free = e
	t.n--
}

// Range calls f with every entry until f returns false. f may delete
// entries; one it inserts may or may not be visited.
func (t *Table) Range(f func(e int32) bool) {
	for e := int32(0); int(e)*t.stride < len(t.words); e++ {
		if t.Life(e).used && !f(e) {
			return
		}
	}
}

// equal reports whether o holds the same entries; two nil tables do.
func (t *Table) equal(o *Table) bool {
	if t == nil || o == nil {
		return t == o
	}
	eq := t.n == o.n
	t.Range(func(e int32) bool {
		k := t.Key(e)
		oe := o.Find(&k)
		eq = eq && oe >= 0 && slices.Equal(t.Vals(e), o.Vals(oe))
		return eq
	})
	return eq
}

// HashKey mixes a key's words; the server's and the switch's tables
// index by its low bits.
func HashKey(k []uint64) uint64 {
	h := uint64(len(k))
	for _, w := range k {
		h = (h ^ w) * 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	return h
}

// SameKey compares two keys of one table's arity word by word.
func SameKey(a, b []uint64) bool {
	for i, w := range a {
		if w != b[i] {
			return false
		}
	}
	return true
}
