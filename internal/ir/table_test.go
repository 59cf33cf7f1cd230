package ir

import (
	"slices"
	"testing"
)

// tableProgram declares one map "m" of nk key and nv value words.
func tableProgram(nk, nv int, max int) *Program {
	g := &Global{Name: "m", Kind: KindMap, MaxEntries: max}
	for i := 0; i < nk; i++ {
		g.KeyTypes = append(g.KeyTypes, U64)
	}
	for i := 0; i < nv; i++ {
		g.ValTypes = append(g.ValTypes, U64)
	}
	return &Program{Name: "t", Globals: []*Global{g}}
}

// fuzzKey spreads a small key number over nk words, so distinct numbers
// give distinct keys and a handful of numbers keep colliding in the low
// bits of small probe indices.
func fuzzKey(nk int, k byte) MapKey {
	var key MapKey
	for i := 0; i < nk; i++ {
		key.K[i] = uint64(k) << (8 * i % 64)
	}
	key.N = uint8(nk)
	return key
}

// checkTable compares st's map "m" against the model: find of every key
// in the domain, len, and a range that visits each entry exactly once.
func checkTable(t *testing.T, st *State, model map[MapKey][]uint64, nk int, domain int) {
	t.Helper()
	tb := st.Table("m")
	if tb.Len() != len(model) {
		t.Fatalf("len %d, model %d", tb.Len(), len(model))
	}
	for k := 0; k < domain; k++ {
		key := fuzzKey(nk, byte(k))
		want, ok := model[key]
		e := tb.Find(&key)
		if (e >= 0) != ok || ok && !slices.Equal(tb.Vals(e), want) {
			t.Fatalf("find %v: entry %d, model %v (present %v)", key, e, want, ok)
		}
	}
	seen := map[MapKey]bool{}
	tb.Range(func(e int32) bool {
		k := tb.Key(e)
		if seen[k] || !slices.Equal(model[k], tb.Vals(e)) {
			t.Fatalf("range: entry %d key %v (seen %v) vals %v, model %v", e, k, seen[k], tb.Vals(e), model[k])
		}
		seen[k] = true
		return true
	})
	if len(seen) != len(model) {
		t.Fatalf("range visited %d entries, model has %d", len(seen), len(model))
	}
}

// FuzzStateMap runs random op sequences against one packed table and a
// plain Go map: inserts (new keys and overwrites), removes (present and
// absent keys, mid-run of a probe sequence), removal during a range, and
// ReplaceMap.
// After every op it checks find, len and range, that a Clone is Equal and
// independent, and that a state rebuilt from the model in another order —
// another probe layout — is Equal too.
func FuzzStateMap(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 2, 1, 0, 1, 3, 0})
	f.Add([]byte{7, 7, 0, 5, 0, 13, 0, 21, 0, 29, 2, 13, 2, 5, 1, 29})
	f.Add([]byte{2, 0, 0, 1, 0, 9, 0, 17, 0, 25, 0, 33, 2, 9, 0, 41, 2, 1, 3, 0, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nk, nv := 1+int(data[0]%8), 1+int(data[1]%8)
		const domain = 48
		p := tableProgram(nk, nv, 0)
		st := NewState(p)
		model := map[MapKey][]uint64{}
		for i := 2; i+1 < len(data); i += 2 {
			op, arg := data[i]%5, data[i+1]
			key := fuzzKey(nk, arg%domain)
			switch op {
			case 0, 1: // insert or overwrite
				vals := make([]uint64, nv)
				for j := range vals {
					vals[j] = uint64(data[i]) + uint64(j)<<32 + uint64(i)
				}
				if err := st.MapInsert("m", key, vals); err != nil {
					t.Fatal(err)
				}
				model[key] = vals
			case 2: // remove, present or not
				if err := st.MapRemove("m", key); err != nil {
					t.Fatal(err)
				}
				delete(model, key)
			case 4: // replace the whole content with the entries whose key number is odd
				fresh := map[MapKey][]uint64{}
				for k, v := range model {
					if k.K[0]%2 == 1 {
						fresh[k] = v
					}
				}
				st.ReplaceMap("m", fresh)
				model = fresh
			case 3: // remove every entry whose key number is a multiple of arg, mid-range
				tb := st.Table("m")
				div := uint64(arg%7) + 2
				tb.Range(func(e int32) bool {
					if k := tb.Key(e); k.K[0]%div == 0 {
						st.MapRemove("m", k)
						delete(model, k)
					}
					return true
				})
			}
			checkTable(t, st, model, nk, domain)

			c := st.Clone()
			if !st.Equal(c) || !c.Equal(st) {
				t.Fatal("clone not equal")
			}
			checkTable(t, c, model, nk, domain)
			rebuilt := NewState(p)
			keys := make([]MapKey, 0, len(model))
			for k := range model {
				keys = append(keys, k)
			}
			slices.SortFunc(keys, func(a, b MapKey) int { return -slices.Compare(a.K[:], b.K[:]) })
			for _, k := range keys {
				rebuilt.MapInsert("m", k, model[k])
			}
			if !st.Equal(rebuilt) || !rebuilt.Equal(st) {
				t.Fatal("state not equal to the model rebuilt in another order")
			}
			// The clone is independent: changing it breaks equality and
			// leaves the original alone.
			if len(model) > 0 {
				k := keys[0]
				c.MapRemove("m", k)
				if st.Equal(c) {
					t.Fatal("removing from the clone kept it equal")
				}
			}
			checkTable(t, st, model, nk, domain)
		}
	})
}

// TestTableStartsSmallAndGrowsOnDemand pins that a table is sized by what
// it holds, never by its declaration: mazunat's nat_fwd (two key words,
// one value word) and nat_rev (one and two), both max 65536, start at a
// few slots, and their arrays grow only as entries arrive — the probe
// index by doubling, the slab only when full and at most twofold.
func TestTableStartsSmallAndGrowsOnDemand(t *testing.T) {
	for _, shape := range [][2]int{{2, 1}, {1, 2}} {
		nk, nv := shape[0], shape[1]
		st := NewState(tableProgram(nk, nv, 65536))
		tb := st.Table("m")
		slabEntries := func() int { return cap(tb.words) / tb.stride }
		if len(tb.index) > 64 || slabEntries() > 64 {
			t.Fatalf("%v: fresh table has %d probe slots and room for %d entries; want at most 64", shape, len(tb.index), slabEntries())
		}
		lastIndex, lastSlab := len(tb.index), slabEntries()
		for n := 1; n <= 5000; n++ {
			key := fuzzKey(nk, 0)
			key.K[0] = uint64(n)
			st.MapInsert("m", key, make([]uint64, nv))
			if idx := len(tb.index); idx != lastIndex {
				if idx != 2*lastIndex || 2*n != lastIndex+2 {
					t.Fatalf("%v, %d entries: probe index grew %d -> %d", shape, n, lastIndex, idx)
				}
				lastIndex = idx
			}
			if se := slabEntries(); se != lastSlab {
				// Only a full slab grows, to at most twice its size (plus the
				// allocator's size-class rounding).
				if n-1 != lastSlab || se > max(2*lastSlab+lastSlab/4, minSlots) {
					t.Fatalf("%v, %d entries: slab grew from room for %d to %d", shape, n, lastSlab, se)
				}
				lastSlab = se
			}
		}
		if lastIndex > 16384 || lastSlab > 10000 {
			t.Fatalf("%v: 5000 entries hold %d probe slots and room for %d entries", shape, lastIndex, lastSlab)
		}
	}
}
