package analysis

import (
	"slices"

	"gallium/internal/analysis/dataflow"
	"gallium/internal/ir"
)

// uninitUse is one read of a register that is not definitely assigned on
// every entry path reaching it.
type uninitUse struct {
	stmt *ir.Instr
	reg  ir.Reg
	term bool // the read is a terminator operand (branch condition)
	blk  int
}

// definedRegs is the definite-assignment problem on the dataflow solver:
// a forward must-analysis whose state is the set of registers written on
// *every* path from entry. The boundary (entry) state is empty — a loop
// back to entry cannot define anything first — and joins intersect, so
// the intersection with the empty boundary keeps the entry block clean
// even when it has predecessors.
type definedRegs struct {
	fn *ir.Function
}

func (p *definedRegs) Direction() dataflow.Direction { return dataflow.Forward }
func (p *definedRegs) Bottom() []bool                { return nil }
func (p *definedRegs) IsBottom(s []bool) bool        { return s == nil }
func (p *definedRegs) Boundary() []bool              { return make([]bool, len(p.fn.Regs)) }

func (p *definedRegs) Join(a, b []bool) []bool {
	j := append([]bool(nil), a...)
	for i := range j {
		j[i] = j[i] && b[i]
	}
	return j
}

func (p *definedRegs) Equal(a, b []bool) bool { return slices.Equal(a, b) }

func (p *definedRegs) Transfer(b *ir.Block, in []bool) []bool {
	cur := append([]bool(nil), in...)
	for i := range b.Instrs {
		for _, r := range b.Instrs[i].Dst {
			cur[r] = true
		}
	}
	return cur
}

// maybeUninitUses runs a forward definite-assignment dataflow over fn:
// a register is "defined at P" only when every path from entry to P
// writes it. It returns every read of a not-definitely-assigned register
// in blocks reachable from entry, deduplicated per (statement, register).
//
// The lint layer reports these directly (use-before-def); the partition
// verifier reuses the same analysis on the emitted partition functions,
// where an undefined read means a value crossed a partition boundary
// without a transfer-header carry or rematerialization.
func maybeUninitUses(fn *ir.Function) []uninitUse {
	if len(fn.Blocks) == 0 {
		return nil
	}
	res := dataflow.Solve[[]bool](fn, &definedRegs{fn: fn})

	type key struct {
		id  int
		reg ir.Reg
	}
	seen := map[key]bool{}
	var uses []uninitUse
	report := func(s *ir.Instr, r ir.Reg, term bool, blk int) {
		k := key{s.ID, r}
		if seen[k] {
			return
		}
		seen[k] = true
		uses = append(uses, uninitUse{stmt: s, reg: r, term: term, blk: blk})
	}
	for _, b := range fn.Blocks {
		if res.In[b.ID] == nil {
			continue // unreachable from entry
		}
		cur := append([]bool(nil), res.In[b.ID]...)
		for i := range b.Instrs {
			s := &b.Instrs[i]
			for _, r := range s.Args {
				if !cur[r] {
					report(s, r, false, b.ID)
				}
			}
			for _, r := range s.Dst {
				cur[r] = true
			}
		}
		for _, r := range b.Term.Args {
			if !cur[r] {
				report(&b.Term, r, true, b.ID)
			}
		}
	}
	return uses
}
