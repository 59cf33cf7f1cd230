package dataflow

import (
	"testing"

	"gallium/internal/ir"
)

// TestSolverBackwardLiveness checks the backward direction on a loop: a
// register used only around the back edge must be live at the loop head
// but dead before its (re)definition.
func TestSolverBackwardLiveness(t *testing.T) {
	b := ir.NewBuilder("loop")
	head := b.NewBlock()
	body := b.NewBlock()
	exit := b.NewBlock()

	// entry: i = 0
	i := b.Const("i", ir.U32, 0)
	n := b.Const("n", ir.U32, 10)
	b.Jump(head)

	// head: if i < n -> body else exit
	b.SetBlock(head)
	cond := b.BinOp("cond", ir.Lt, i, n)
	b.Branch(cond, body, exit)

	// body: i = i + 1 (written back into a fresh reg used via the head)
	b.SetBlock(body)
	one := b.Const("one", ir.U32, 1)
	sum := b.BinOp("sum", ir.Add, i, one)
	b.StoreHeader("ip.ttl", sum)
	b.Jump(head)

	b.SetBlock(exit)
	b.Send()

	fn := b.Fn()
	fn.Finalize()

	res := Liveness(fn)
	// i and n are live entering the loop head.
	if in := res.In[head.ID]; !in[i] || !in[n] {
		t.Fatalf("head live-in = %v, want i and n live", in)
	}
	// Nothing is live after the exit block's Send.
	for r, live := range res.Out[exit.ID] {
		if live {
			t.Fatalf("reg %d live after exit", r)
		}
	}
	// i stays live through the body (the back edge re-reads it).
	if out := res.Out[body.ID]; !out[i] {
		t.Fatalf("i dead at body exit; back edge should keep it live")
	}
}

// TestSolverSkipsUnreachable: a forward problem leaves blocks the entry
// never reaches at bottom; a backward one still solves an unreachable
// exit.
func TestSolverSkipsUnreachable(t *testing.T) {
	b := ir.NewBuilder("dead")
	dead := b.NewBlock()
	b.Send()
	b.SetBlock(dead)
	x := b.Const("x", ir.U32, 1)
	b.StoreHeader("ip.ttl", x)
	b.Send()
	fn := b.Fn()
	fn.Finalize()

	// Backward from exits: the dead block IS an exit, so a backward
	// analysis solves it even though the entry never reaches it.
	if Liveness(fn).In[dead.ID] == nil {
		t.Fatalf("backward analysis skipped the unreachable exit")
	}
	iv := Solve[*ivState](fn, &ivProblem{fn: fn})
	if iv.In[dead.ID] != nil {
		t.Fatalf("forward analysis reached an unreachable block")
	}
}
