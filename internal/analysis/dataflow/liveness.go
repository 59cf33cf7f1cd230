package dataflow

import (
	"slices"

	"gallium/internal/ir"
)

// liveRegs is register liveness on the solver: a backward may-analysis
// whose state marks, per register, whether some path from this point to
// an exit reads it before writing it. Exits start with nothing live and
// joins take the union.
type liveRegs struct {
	fn *ir.Function
}

func (p *liveRegs) Direction() Direction   { return Backward }
func (p *liveRegs) Bottom() []bool         { return nil }
func (p *liveRegs) IsBottom(s []bool) bool { return s == nil }
func (p *liveRegs) Boundary() []bool       { return make([]bool, len(p.fn.Regs)) }
func (p *liveRegs) Equal(a, b []bool) bool { return slices.Equal(a, b) }

func (p *liveRegs) Join(a, b []bool) []bool {
	j := slices.Clone(a)
	for i, l := range b {
		j[i] = j[i] || l
	}
	return j
}

func (p *liveRegs) Transfer(b *ir.Block, out []bool) []bool {
	return WalkLive(b, out, func(int, []bool) {})
}

// Liveness solves register liveness over fn. Out[b] marks the registers
// live at block b's exit and In[b] those live at its entry, indexed by
// register; blocks from which no exit is reachable keep nil.
func Liveness(fn *ir.Function) *Result[[]bool] {
	return Solve[[]bool](fn, &liveRegs{fn: fn})
}

// WalkLive steps liveness backward through block b from liveOut, the set
// live at its exit. It calls visit for each instruction, last to first,
// with the instruction's index and the set live just after it, then once
// with index -1 and the block's entry set, which it also returns. The set
// is updated in place between calls, so visit must not keep it; liveOut
// itself is not modified.
func WalkLive(b *ir.Block, liveOut []bool, visit func(idx int, live []bool)) []bool {
	live := slices.Clone(liveOut)
	for _, r := range b.Term.Args {
		live[r] = true
	}
	for j := len(b.Instrs) - 1; j >= 0; j-- {
		visit(j, live)
		for _, r := range b.Instrs[j].Dst {
			live[r] = false
		}
		for _, r := range b.Instrs[j].Args {
			live[r] = true
		}
	}
	visit(-1, live)
	return live
}

// MaxLiveBits returns the widest set of simultaneously live registers, in
// bits, over every program point of fn: the per-packet metadata a switch
// partition needs once dead temporaries share slots (§4.2.2, constraint
// 4).
func MaxLiveBits(fn *ir.Function) int {
	res := Liveness(fn)
	peak := 0
	for _, b := range fn.Blocks {
		if res.Out[b.ID] == nil {
			continue
		}
		WalkLive(b, res.Out[b.ID], func(_ int, live []bool) {
			bits := 0
			for r, l := range live {
				if l {
					bits += fn.RegType(ir.Reg(r)).Bits()
				}
			}
			peak = max(peak, bits)
		})
	}
	return peak
}

// UsedRegs marks every register fn reads as an instruction or terminator
// operand, indexed by register.
func UsedRegs(fn *ir.Function) []bool {
	used := make([]bool, len(fn.Regs))
	for _, s := range fn.Stmts() {
		for _, r := range s.Args {
			used[r] = true
		}
	}
	return used
}
