package dataflow

import (
	"slices"
	"testing"

	"gallium/internal/ir"
)

func TestStraightLineLiveness(t *testing.T) {
	// x = const; y = const; z = x + y; storehdr = z; send
	b := ir.NewBuilder("f")
	x := b.Const("x", ir.U32, 1)
	y := b.Const("y", ir.U32, 2)
	z := b.BinOp("z", ir.Add, x, y)
	b.StoreHeader("ip.ttl", z)
	b.Send()
	fn := b.Fn()
	fn.Finalize()

	if in := Liveness(fn).In[0]; slices.Contains(in, true) {
		t.Errorf("entry live-in = %v, want empty", in)
	}
	// Max live: x and y simultaneously (64 bits), then just z (32).
	if got := MaxLiveBits(fn); got != 64 {
		t.Errorf("MaxLiveBits = %d, want 64", got)
	}
}

func TestBranchLiveness(t *testing.T) {
	// c live across the branch; v live only on one arm.
	b := ir.NewBuilder("f")
	c := b.Const("c", ir.Bool, 1)
	v := b.Const("v", ir.U32, 7)
	then := b.NewBlock()
	els := b.NewBlock()
	b.Branch(c, then, els)
	b.SetBlock(then)
	b.StoreHeader("ip.ttl", v)
	b.Send()
	b.SetBlock(els)
	b.Drop()
	fn := b.Fn()
	fn.Finalize()

	live := Liveness(fn)
	if !live.In[then.ID][v] {
		t.Error("v must be live into then-block")
	}
	if live.In[els.ID][v] {
		t.Error("v must not be live into else-block")
	}
	if live.Out[0][c] {
		t.Error("c is consumed by the branch, not live out past it")
	}
}

func TestLoopLiveness(t *testing.T) {
	// Loop-carried: i is live around the back edge.
	b := ir.NewBuilder("f")
	g := &ir.Global{Name: "n", Kind: ir.KindScalar, ValTypes: []ir.Type{ir.U32}}
	i0 := b.Const("i0", ir.U32, 0)
	head := b.NewBlock()
	body := b.NewBlock()
	exit := b.NewBlock()
	b.Jump(head)
	b.SetBlock(head)
	n := b.GlobalLoad("n", g)
	c := b.BinOp("c", ir.Lt, i0, n)
	b.Branch(c, body, exit)
	b.SetBlock(body)
	b.Jump(head)
	b.SetBlock(exit)
	b.Send()
	fn := b.Fn()
	fn.Finalize()

	// i0 is used in the loop head, which is re-entered from the body: it
	// must be live out of the body and into the head.
	live := Liveness(fn)
	if !live.In[head.ID][i0] || !live.In[body.ID][i0] {
		t.Errorf("i0 must be live through the loop: head=%v body=%v", live.In[head.ID], live.In[body.ID])
	}
}

func TestDeadRegisterReuse(t *testing.T) {
	// a dies before b is created: they never coexist, so max live is one
	// 32-bit register at a time (after the store consumes a).
	b := ir.NewBuilder("f")
	a := b.Const("a", ir.U32, 1)
	b.StoreHeader("ip.saddr", a)
	v := b.Const("v", ir.U32, 2)
	b.StoreHeader("ip.daddr", v)
	b.Send()
	fn := b.Fn()
	fn.Finalize()
	if got := MaxLiveBits(fn); got != 32 {
		t.Errorf("MaxLiveBits = %d, want 32 (slots reused)", got)
	}
}

func TestUsedRegs(t *testing.T) {
	b := ir.NewBuilder("f")
	x := b.Const("x", ir.U32, 1)
	y := b.BinOp("y", ir.Add, x, x)
	then := b.NewBlock()
	els := b.NewBlock()
	c := b.BinOp("c", ir.Eq, y, x)
	unread := b.Const("unread", ir.U32, 9)
	b.Branch(c, then, els)
	b.SetBlock(then)
	b.Send()
	b.SetBlock(els)
	b.Drop()
	fn := b.Fn()
	fn.Finalize()

	used := UsedRegs(fn)
	if !used[x] || !used[y] || !used[c] || used[unread] {
		t.Errorf("used = %v, want x, y and the branch condition c, not %s", used, fn.RegName(unread))
	}
}

// TestMaxLiveBitsCountsUnreachableBlocks: the metadata width covers code
// no entry path reaches, as long as it reaches an exit. A 64-bit value
// live only in an orphan block sets the peak.
func TestMaxLiveBitsCountsUnreachableBlocks(t *testing.T) {
	b := ir.NewBuilder("f")
	orphan := b.NewBlock()
	b.Send()
	b.SetBlock(orphan)
	w := b.LoadHeader("w", "ip.saddr", ir.U64)
	b.StoreHeader("ip.daddr", w)
	b.Drop()
	fn := b.Fn()
	fn.Finalize()
	if got := MaxLiveBits(fn); got != 64 {
		t.Errorf("MaxLiveBits = %d, want 64 from the unreachable block", got)
	}
}

// TestWalkLiveOrder pins the visit protocol: each instruction, last to
// first, with the set live just after it, then the entry set at -1.
func TestWalkLiveOrder(t *testing.T) {
	b := ir.NewBuilder("f")
	x := b.LoadHeader("x", "ip.saddr", ir.U32)
	y := b.BinOp("y", ir.Add, x, x)
	b.StoreHeader("ip.daddr", y)
	b.Send()
	fn := b.Fn()
	fn.Finalize()

	type step struct {
		idx  int
		x, y bool
	}
	var got []step
	out := make([]bool, len(fn.Regs))
	in := WalkLive(fn.Blocks[0], out, func(idx int, live []bool) {
		got = append(got, step{idx, live[x], live[y]})
	})
	want := []step{{2, false, false}, {1, false, true}, {0, true, false}, {-1, false, false}}
	if !slices.Equal(got, want) {
		t.Errorf("visits = %v, want %v", got, want)
	}
	if slices.Contains(in, true) || slices.Contains(out, true) {
		t.Errorf("entry set %v and liveOut %v, want both empty", in, out)
	}
}
