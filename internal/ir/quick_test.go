package ir

import (
	"testing"
	"testing/quick"
)

// Property-based tests over the IR's core data structures.

func TestQuickEvalBinOpMatchesGoSemantics(t *testing.T) {
	prop := func(a, b uint64) bool {
		checks := []struct {
			op   Op
			want uint64
		}{
			{Add, a + b}, {Sub, a - b}, {And, a & b}, {Or, a | b}, {Xor, a ^ b}, {Mul, a * b},
			{Eq, boolVal(a == b)}, {Ne, boolVal(a != b)},
			{Lt, boolVal(a < b)}, {Le, boolVal(a <= b)},
			{Gt, boolVal(a > b)}, {Ge, boolVal(a >= b)},
		}
		for _, c := range checks {
			got, err := evalBinOp(c.op, a, b)
			if err != nil || got != c.want {
				return false
			}
		}
		if b != 0 {
			if got, err := evalBinOp(Div, a, b); err != nil || got != a/b {
				return false
			}
			if got, err := evalBinOp(Mod, a, b); err != nil || got != a%b {
				return false
			}
		}
		// Shifts saturate to zero at >= 64.
		if got, err := evalBinOp(Shl, a, 64+b%100); err != nil || got != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickTypeMaskIdempotent(t *testing.T) {
	prop := func(v uint64) bool {
		for _, typ := range []Type{Bool, U8, U16, U32, U64} {
			m := v & typ.Mask()
			if m&typ.Mask() != m {
				return false
			}
			if typ != U64 && m >= 1<<uint(typ.Bits()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickStateCloneEqual(t *testing.T) {
	prop := func(keys []uint64, vals []uint64, scalar uint64) bool {
		p := &Program{Name: "q", Globals: []*Global{
			{Name: "m", Kind: KindMap, KeyTypes: []Type{U64}, ValTypes: []Type{U64}},
			{Name: "v", Kind: KindVec, ValTypes: []Type{U64}},
			{Name: "g", Kind: KindScalar, ValTypes: []Type{U64}},
			{Name: "l", Kind: KindLPM, ValTypes: []Type{U32}},
		}}
		st := NewState(p)
		for i, k := range keys {
			var v uint64
			if i < len(vals) {
				v = vals[i]
			}
			st.MapInsert("m", MakeMapKey(k), []uint64{v})
		}
		st.Vecs["v"] = append([]uint64(nil), vals...)
		st.Globals["g"] = scalar
		for i, k := range keys {
			st.AddRoute("l", k, i%33, uint64(i))
		}

		c := st.Clone()
		if !st.Equal(c) || !c.Equal(st) {
			return false
		}
		// Any single mutation must break equality.
		c.Globals["g"] = scalar + 1
		if st.Equal(c) {
			return false
		}
		c.Globals["g"] = scalar
		if !st.Equal(c) {
			return false
		}
		c.MapInsert("m", MakeMapKey(^uint64(0)), []uint64{1})
		if _, existed := st.MapFind("m", MakeMapKey(^uint64(0))); !existed && st.Equal(c) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickLpmLongestWins(t *testing.T) {
	prop := func(addr uint32, hop1, hop2 uint64) bool {
		p := &Program{Name: "q", Globals: []*Global{{Name: "l", Kind: KindLPM, ValTypes: []Type{U64}}}}
		st := NewState(p)
		key := uint64(addr)
		// Install /8 and /24 covering the address, plus a default.
		st.AddRoute("l", 0, 0, 999)
		st.AddRoute("l", key, 8, hop1)
		st.AddRoute("l", key, 24, hop2)
		vals, ok := st.LpmFind("l", key)
		if !ok || vals[0] != hop2 {
			return false
		}
		// An address sharing only the /8 gets hop1.
		sibling := key>>24<<24 | (key+1<<16)&0x00FF0000 | key&0xFFFF
		if sibling>>24 == key>>24 && sibling>>8 != key>>8 {
			vals, ok = st.LpmFind("l", sibling)
			if !ok || vals[0] != hop1 {
				return false
			}
		}
		// A totally different /8 falls to the default.
		other := key ^ 0xFF000000
		if other>>24 != key>>24 {
			vals, ok = st.LpmFind("l", other)
			if !ok || vals[0] != 999 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickLpmEntryMatches(t *testing.T) {
	prop := func(key uint32, plen8 uint8) bool {
		plen := int(plen8) % 33
		e := LpmEntry{Key: uint64(key), PrefixLen: plen}
		// The key always matches its own entry.
		if !e.Matches(uint64(key)) {
			return false
		}
		if plen > 0 {
			// Flipping a bit inside the prefix breaks the match.
			flipped := uint64(key) ^ 1<<(32-uint(plen))
			if e.Matches(flipped) {
				return false
			}
		}
		if plen < 32 {
			// Flipping a bit outside the prefix preserves the match.
			same := uint64(key) ^ 1<<(31-uint(plen))
			if !e.Matches(same) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
