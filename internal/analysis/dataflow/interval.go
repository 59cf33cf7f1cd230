package dataflow

import (
	"fmt"
	"math/bits"

	"gallium/internal/ir"
	"gallium/internal/packet"
)

// Interval is an inclusive unsigned value range [Lo, Hi].
type Interval struct {
	Lo, Hi uint64
}

// full returns the complete range of a type.
func full(t ir.Type) Interval { return Interval{0, t.Mask()} }

// singleton reports whether the interval holds exactly one value.
func (iv Interval) singleton() bool { return iv.Lo == iv.Hi }

// String renders "[lo, hi]" (or "v" for singletons).
func (iv Interval) String() string {
	if iv.singleton() {
		return fmt.Sprintf("%d", iv.Lo)
	}
	return fmt.Sprintf("[%d, %d]", iv.Lo, iv.Hi)
}

func joinInterval(a, b Interval) Interval {
	return Interval{Lo: min(a.Lo, b.Lo), Hi: max(a.Hi, b.Hi)}
}

// Truncation is one header write whose value range provably can exceed
// the field's width on a reachable path — bits would be dropped on the
// wire.
type Truncation struct {
	// Stmt and Line locate the StoreHeader.
	Stmt, Line int
	// Field is the header field written; FieldBits its width.
	Field     string
	FieldBits int
	// Val is the stored register's interval at the store.
	Val Interval
	// Why is the derivation chain for the diagnostic.
	Why []string
}

// IntervalResult is the interval analysis output: the reachable
// truncations plus the proven range of every reachable header write
// (width facts for the placement layer).
type IntervalResult struct {
	Truncations []Truncation
	// StoreRanges maps StoreHeader statement ID → the stored value's
	// interval. Only reachable stores appear.
	StoreRanges map[int]Interval
}

// ivState is the lattice state: one interval per register. A nil state
// is bottom (block not yet reached / path infeasible).
type ivState struct {
	regs []Interval
}

func (s *ivState) clone() *ivState {
	return &ivState{regs: append([]Interval(nil), s.regs...)}
}

type ivProblem struct {
	fn *ir.Function
}

func (p *ivProblem) Direction() Direction     { return Forward }
func (p *ivProblem) Bottom() *ivState         { return nil }
func (p *ivProblem) IsBottom(s *ivState) bool { return s == nil }

func (p *ivProblem) Boundary() *ivState {
	s := &ivState{regs: make([]Interval, len(p.fn.Regs))}
	for i := range s.regs {
		// Registers are masked to their declared type on every write (see
		// ir.execInstr); before any write the value is unconstrained
		// within the type.
		s.regs[i] = full(p.fn.RegType(ir.Reg(i)))
	}
	return s
}

func (p *ivProblem) Join(a, b *ivState) *ivState {
	j := a.clone()
	for i := range j.regs {
		j.regs[i] = joinInterval(j.regs[i], b.regs[i])
	}
	return j
}

func (p *ivProblem) Equal(a, b *ivState) bool {
	for i := range a.regs {
		if a.regs[i] != b.regs[i] {
			return false
		}
	}
	return true
}

// Widen jumps any still-growing register to its full type range, so
// loops over counters terminate after a bounded number of rounds.
func (p *ivProblem) Widen(prev, next *ivState) *ivState {
	w := next.clone()
	for i := range w.regs {
		if w.regs[i].Lo < prev.regs[i].Lo || w.regs[i].Hi > prev.regs[i].Hi {
			w.regs[i] = full(p.fn.RegType(ir.Reg(i)))
		}
	}
	return w
}

func (p *ivProblem) Transfer(b *ir.Block, in *ivState) *ivState {
	s := in.clone()
	for i := range b.Instrs {
		ivStep(p.fn, s, &b.Instrs[i])
	}
	return s
}

// FlowEdge sharpens the out-state of a Branch block along one edge
// using the branch condition's defining comparison. Returns nil
// (bottom) when the edge is provably infeasible.
func (p *ivProblem) FlowEdge(from *ir.Block, to int, out *ivState) *ivState {
	if from.Term.Kind != ir.Branch || from.Term.Then == from.Term.Else {
		return out
	}
	cond, taken := from.Term.Args[0], to == from.Term.Then
	// The front end lowers conditions immediately before the Branch, so
	// scan this block backwards for the condition's definition; follow
	// one Not. Missing or foreign defs simply skip refinement.
	var def *ir.Instr
	for i := len(from.Instrs) - 1; i >= 0; i-- {
		in := &from.Instrs[i]
		if len(in.Dst) > 0 && in.Dst[0] == cond {
			if in.Kind == ir.Not {
				taken = !taken
				cond = in.Args[0]
				continue
			}
			def = in
			break
		}
	}
	if def == nil || def.Kind != ir.BinOp || !def.Op.IsComparison() {
		return out
	}
	op := def.Op
	if !taken {
		op = negateCmp(op)
	}
	a, b := def.Args[0], def.Args[1]
	x, y, feasible := refineCmp(op, out.regs[a], out.regs[b])
	if !feasible {
		return nil
	}
	s := out.clone()
	s.regs[a], s.regs[b] = x, y
	return s
}

// negateCmp returns the comparison that holds on the not-taken edge.
func negateCmp(op ir.Op) ir.Op {
	switch op {
	case ir.Eq:
		return ir.Ne
	case ir.Ne:
		return ir.Eq
	case ir.Lt:
		return ir.Ge
	case ir.Le:
		return ir.Gt
	case ir.Gt:
		return ir.Le
	case ir.Ge:
		return ir.Lt
	}
	return op
}

// refineCmp narrows the operand intervals of a comparison known to be
// true. feasible=false means no value pair satisfies it — the edge is
// dead.
func refineCmp(op ir.Op, x, y Interval) (rx, ry Interval, feasible bool) {
	switch op {
	case ir.Eq:
		lo, hi := max(x.Lo, y.Lo), min(x.Hi, y.Hi)
		if lo > hi {
			return x, y, false
		}
		m := Interval{lo, hi}
		return m, m, true
	case ir.Ne:
		if x.singleton() && y.singleton() && x.Lo == y.Lo {
			return x, y, false
		}
		if y.singleton() {
			if x.Lo == y.Lo && x.Lo < x.Hi {
				x.Lo++
			}
			if x.Hi == y.Lo && x.Hi > x.Lo {
				x.Hi--
			}
		}
		if x.singleton() {
			if y.Lo == x.Lo && y.Lo < y.Hi {
				y.Lo++
			}
			if y.Hi == x.Lo && y.Hi > y.Lo {
				y.Hi--
			}
		}
		return x, y, true
	case ir.Lt: // x < y
		if y.Hi == 0 || x.Lo >= y.Hi {
			if y.Hi == 0 {
				return x, y, false
			}
		}
		x.Hi = min(x.Hi, y.Hi-1)
		y.Lo = max(y.Lo, x.Lo+1)
		return x, y, x.Lo <= x.Hi && y.Lo <= y.Hi
	case ir.Le: // x <= y
		x.Hi = min(x.Hi, y.Hi)
		y.Lo = max(y.Lo, x.Lo)
		return x, y, x.Lo <= x.Hi && y.Lo <= y.Hi
	case ir.Gt: // x > y
		if x.Hi == 0 {
			return x, y, false
		}
		y.Hi = min(y.Hi, x.Hi-1)
		x.Lo = max(x.Lo, y.Lo+1)
		return x, y, x.Lo <= x.Hi && y.Lo <= y.Hi
	case ir.Ge: // x >= y
		x.Lo = max(x.Lo, y.Lo)
		y.Hi = min(y.Hi, x.Hi)
		return x, y, x.Lo <= x.Hi && y.Lo <= y.Hi
	}
	return x, y, true
}

// ivStep applies one instruction's interval transfer to s in place,
// mirroring ir.execInstr's masking semantics: every register write is
// truncated to the register's declared type.
func ivStep(fn *ir.Function, s *ivState, in *ir.Instr) {
	setDst := func(iv Interval) {
		if len(in.Dst) == 0 || in.Dst[0] == ir.NoReg {
			return
		}
		d := in.Dst[0]
		m := fn.RegType(d).Mask()
		if iv.Hi > m {
			// The runtime masks the write; a range that crosses the mask
			// boundary wraps, so only same-side ranges stay precise.
			if iv.Lo > m && iv.Hi-iv.Lo <= m {
				iv = Interval{iv.Lo & m, iv.Hi & m}
				if iv.Lo > iv.Hi {
					iv = Interval{0, m}
				}
			} else {
				iv = Interval{0, m}
			}
		}
		s.regs[d] = iv
	}
	switch in.Kind {
	case ir.Const:
		v := in.Imm & in.Typ.Mask()
		setDst(Interval{v, v})
	case ir.BinOp:
		setDst(binOpInterval(in.Op, s.regs[in.Args[0]], s.regs[in.Args[1]]))
	case ir.Not, ir.PayloadMatch:
		setDst(Interval{0, 1})
	case ir.Convert:
		setDst(s.regs[in.Args[0]])
	case ir.LoadHeader:
		if b, ok := packet.HeaderFieldBits(in.Obj); ok {
			setDst(Interval{0, mask(b)})
		} else {
			setDst(Interval{0, ^uint64(0)})
		}
	case ir.Hash:
		setDst(full(ir.U32))
	case ir.MapFind, ir.LpmFind:
		if len(in.Dst) > 0 {
			s.regs[in.Dst[0]] = Interval{0, 1}
		}
		for _, d := range in.Dst[1:] {
			if d != ir.NoReg {
				s.regs[d] = full(fn.RegType(d))
			}
		}
	case ir.VecGet, ir.VecLen, ir.GlobalLoad, ir.XferLoad:
		for _, d := range in.Dst {
			if d != ir.NoReg {
				s.regs[d] = full(fn.RegType(d))
			}
		}
	case ir.StoreHeader, ir.MapInsert, ir.MapRemove, ir.GlobalStore, ir.XferStore:
		// No register effects.
	}
}

func mask(b int) uint64 {
	if b >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(b) - 1
}

// binOpInterval is the per-operator transfer. Overflowing results fall
// back to the full range the destination mask will impose (setDst).
func binOpInterval(op ir.Op, x, y Interval) Interval {
	top := Interval{0, ^uint64(0)}
	switch op {
	case ir.Add:
		lo, c1 := bits.Add64(x.Lo, y.Lo, 0)
		hi, c2 := bits.Add64(x.Hi, y.Hi, 0)
		if c1 != 0 || c2 != 0 {
			return top
		}
		return Interval{lo, hi}
	case ir.Sub:
		if x.Lo < y.Hi {
			return top // may wrap below zero
		}
		return Interval{x.Lo - y.Hi, x.Hi - y.Lo}
	case ir.Mul:
		hiHi, hiLo := bits.Mul64(x.Hi, y.Hi)
		if hiHi != 0 {
			return top
		}
		return Interval{x.Lo * y.Lo, hiLo}
	case ir.Div:
		if y.Lo == 0 {
			// Division by zero faults at runtime; past it, any quotient.
			return top
		}
		return Interval{x.Lo / y.Hi, x.Hi / y.Lo}
	case ir.Mod:
		if y.Hi == 0 {
			return top
		}
		return Interval{0, min(x.Hi, y.Hi-1)}
	case ir.And:
		return Interval{0, min(x.Hi, y.Hi)}
	case ir.Or:
		return Interval{max(x.Lo, y.Lo), mask(bits.Len64(x.Hi | y.Hi))}
	case ir.Xor:
		return Interval{0, mask(bits.Len64(x.Hi | y.Hi))}
	case ir.Shl:
		if y.Hi >= 64 {
			return top
		}
		hiHi, hiLo := bits.Mul64(x.Hi, 1<<y.Hi)
		if hiHi != 0 {
			return top
		}
		return Interval{x.Lo << y.Lo, hiLo}
	case ir.Shr:
		if y.Lo >= 64 {
			return Interval{0, 0}
		}
		lo := uint64(0)
		if y.Hi < 64 {
			lo = x.Lo >> y.Hi
		}
		return Interval{lo, x.Hi >> y.Lo}
	case ir.Eq, ir.Ne, ir.Lt, ir.Le, ir.Gt, ir.Ge:
		return Interval{0, 1}
	}
	return top
}

// AnalyzeIntervals runs the interval analysis over the input program
// and reports reachable header-write truncations plus the proven range
// of every header write. The program must be finalized.
func AnalyzeIntervals(p *ir.Program) *IntervalResult {
	fn := p.Fn
	prob := &ivProblem{fn: fn}
	res := Solve[*ivState](fn, prob)

	out := &IntervalResult{StoreRanges: map[int]Interval{}}
	defs := lastDefs(fn)
	for _, b := range fn.Blocks {
		in := res.In[b.ID]
		if in == nil {
			continue // unreachable or on no feasible path
		}
		s := in.clone()
		for i := range b.Instrs {
			instr := &b.Instrs[i]
			if instr.Kind == ir.StoreHeader {
				iv := s.regs[instr.Args[0]]
				out.StoreRanges[instr.ID] = iv
				if fb, ok := packet.HeaderFieldBits(instr.Obj); ok && iv.Hi > mask(fb) {
					tr := Truncation{
						Stmt:      instr.ID,
						Line:      instr.Line,
						Field:     instr.Obj,
						FieldBits: fb,
						Val:       iv,
					}
					tr.Why = []string{fmt.Sprintf(
						"stored value %s ∈ %s can exceed the %d-bit field maximum %d",
						fn.RegName(instr.Args[0]), iv, fb, mask(fb))}
					tr.Why = append(tr.Why, explainReg(fn, instr.Args[0], defs, 3)...)
					out.Truncations = append(out.Truncations, tr)
				}
			}
			ivStep(fn, s, instr)
		}
	}
	return out
}
