package switchsim

import (
	"sync"
	"testing"

	"gallium/internal/ir"
)

// homeMask covers the hash bits that pick a key's home slot in every
// array the tag tests grow: keys equal in them share a home slot at any
// size up to 2^16.
const homeMask = 1<<16 - 1

// hashOf is the hash the table indexes a one-word key by.
func hashOf(k uint64) uint64 { return ir.HashKey([]uint64{k}) }

// collidingPairs brute-forces two pairs of u16 keys that share a home
// slot: one pair whose tags are equal, so only the key comparison tells
// them apart, and one whose tags differ.
func collidingPairs(t *testing.T) (sameTag, diffTag [2]uint64) {
	t.Helper()
	byHome := map[uint64][]uint64{}
	var haveSame, haveDiff bool
	for k := uint64(1); k < 1<<16 && !(haveSame && haveDiff); k++ {
		home := hashOf(k) & homeMask
		for _, o := range byHome[home] {
			same := tagOf(hashOf(o)) == tagOf(hashOf(k))
			if same && !haveSame {
				sameTag, haveSame = [2]uint64{o, k}, true
			}
			if !same && !haveDiff {
				diffTag, haveDiff = [2]uint64{o, k}, true
			}
		}
		byHome[home] = append(byHome[home], k)
	}
	if !haveSame || !haveDiff {
		t.Fatal("no u16 keys share a home slot with equal and with different tags")
	}
	return sameTag, diffTag
}

// TestTagCollisionsResolve drives two keys that share a home slot — once
// with equal tags, once with different ones — through every write a slot
// sees: insert, overwrite, delete (a tombstone the other key's probe must
// pass), re-insert into the tombstone, and a rebuild that drops a
// tombstone so the key returns into a never-used slot. After each step
// both keys resolve to their own values at the current view, and after
// the rebuild also at a view pinned before it.
func TestTagCollisionsResolve(t *testing.T) {
	sameTag, diffTag := collidingPairs(t)
	for _, c := range []struct {
		name string
		keys [2]uint64
	}{
		{"same tag", sameTag},
		{"different tag", diffTag},
	} {
		t.Run(c.name, func(t *testing.T) {
			x, y := c.keys[0], c.keys[1]
			sw := New(compileSrc(t, pairTabSource))
			tbl, _ := sw.Table("ta")
			put := func(k, v uint64) Update { return Update{Table: "ta", Key: ir.MakeMapKey(k), Vals: []uint64{v}} }
			del := func(k uint64) Update { return Update{Table: "ta", Key: ir.MakeMapKey(k), Delete: true} }
			// check wants x and y to resolve to wx and wy at v (0: absent).
			check := func(step string, v *view, wx, wy uint64) {
				t.Helper()
				for _, w := range []struct{ k, want uint64 }{{x, wx}, {y, wy}} {
					key := ir.MakeMapKey(w.k)
					vals, ok := tbl.lookup(v, &key)
					if ok != (w.want != 0) || (ok && vals[0] != w.want) {
						t.Errorf("%s: key %d = %v %v, want value %d (0 = absent)", step, w.k, vals, ok, w.want)
					}
				}
			}
			slotOf := func(k uint64) uint64 {
				kw := []uint64{k}
				return tbl.slot(tbl.slots.Load(), kw, hashOf(k))
			}

			install(t, sw, put(x, 1))
			install(t, sw, put(y, 2)) // y's probe passes x's node
			check("insert", sw.view.Load(), 1, 2)
			xSlot := slotOf(x)
			if mask := uint64(len(tbl.slots.Load().ptrs) - 1); slotOf(y) != (xSlot+1)&mask {
				t.Fatalf("y in slot %d, x in %d: the keys do not collide", slotOf(y), xSlot)
			}

			install(t, sw, put(y, 3), put(x, 4))
			check("overwrite", sw.view.Load(), 4, 3)

			install(t, sw, del(x))
			check("delete", sw.view.Load(), 0, 3)

			install(t, sw, put(x, 5))
			check("re-insert", sw.view.Load(), 5, 3)
			if slotOf(x) != xSlot {
				t.Errorf("re-inserted x in slot %d, its tombstone was in %d", slotOf(x), xSlot)
			}

			pinned := sw.view.Load()
			arr := tbl.slots.Load()
			install(t, sw, put(x, 6), del(y))
			for k := uint64(40000); k < 40064; k++ { // fillers, then tombstones
				install(t, sw, put(k, k))
				install(t, sw, del(k))
			}
			if tbl.slots.Load() == arr {
				t.Fatal("the fillers never rebuilt the array")
			}
			check("after the rebuild", sw.view.Load(), 6, 0)
			check("pinned before the rebuild", pinned, 5, 3)

			install(t, sw, put(y, 7)) // y's tombstone is gone: a never-used slot
			check("re-insert after the rebuild", sw.view.Load(), 6, 7)
			check("still pinned", pinned, 5, 3)
		})
	}
}

// TestTagProtocolUnderFlips races the tag protocol: readers, some on the
// current view and some on a view pinned for a whole sweep, look up keys
// that share home slots while the flip side deletes, overwrites and
// re-inserts them and grows and rebuilds the array with fillers, so that
// inserts keep landing in never-used slots of fresh arrays. Every value
// written for key k is k+1, so a reader that takes another key's node
// fails. Under -race it also proves that a reader's tag load is ordered
// after the tag's one write.
func TestTagProtocolUnderFlips(t *testing.T) {
	sw := New(compileSrc(t, pairTabSource))
	tbl, _ := sw.Table("ta")
	var hot []ir.MapKey // keys that share their hash's low 6 bits
	for k := uint64(1); len(hot) < 48; k++ {
		if hashOf(k)&63 == hashOf(1)&63 {
			hot = append(hot, ir.MakeMapKey(k))
		}
	}
	const readers, rounds = 4, 1000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(pin bool) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := sw.view.Load()
				for i := range hot {
					if !pin {
						v = sw.view.Load()
					}
					if vals, ok := tbl.lookup(v, &hot[i]); ok && vals[0] != hot[i].K[0]+1 {
						errs <- "a lookup of one key returned another key's value"
						return
					}
				}
			}
		}(r%2 == 0)
	}

	filler := uint64(50000)
	for round := 0; round < rounds; round++ {
		var batch []Update
		for i, k := range hot {
			switch (round + i) % 4 {
			case 0:
				batch = append(batch, Update{Table: "ta", Key: k, Delete: true})
			case 1, 2:
				batch = append(batch, Update{Table: "ta", Key: k, Vals: []uint64{k.K[0] + 1}})
			}
		}
		for i := 0; i < 4; i++ {
			batch = append(batch, Update{Table: "ta", Key: ir.MakeMapKey(filler), Vals: []uint64{filler + 1}})
			filler++
		}
		if round >= 8 {
			for i := uint64(0); i < 4; i++ {
				batch = append(batch, Update{Table: "ta", Key: ir.MakeMapKey(filler - 36 + i), Delete: true})
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
}
