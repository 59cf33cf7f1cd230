package ir

import (
	"bytes"
	"fmt"

	"gallium/internal/packet"
)

// This file is the runtimes' executor. A partition function is a fixed
// match-action pipeline (§2, §4), so the switch simulator and the server
// runtime lower it once, at load time, into a Plan: a flat array of ops
// with everything that does not depend on the packet already bound. The
// reference interpreter in interp.go stays the definition of behaviour —
// and an independent implementation for difftest to check this one against.

// PlanState is how a plan reaches middlebox state: globals are addressed
// by their index in Program.Globals, and map keys and inserted value tuples
// arrive in the Env's scratch, valid only for the duration of the call.
type PlanState interface {
	MapFind(g int, key *MapKey) ([]uint64, bool)
	MapInsert(g int, key *MapKey, vals []uint64) error
	MapRemove(g int, key *MapKey) error
	VecGet(g int, idx uint64) (uint64, error)
	VecLen(g int) uint64
	GlobalLoad(g int) uint64
	GlobalStore(g int, v uint64) error
	LpmFind(g int, key uint64) ([]uint64, bool)
}

// opcode is a plan op's kind. One op stands for one IR statement, so the
// number of ops a packet executes is the interpreter's Steps.
type opcode uint8

const (
	opConst   opcode = iota
	opMove           // Convert whose mask is all-ones
	opConvert        // dst = a & mask
	opNot
	// The sixteen binary operators, in Op order: opAdd+opcode(op).
	opAdd
	opSub
	opAnd
	opOr
	opXor
	opShl
	opShr
	opMul
	opDiv
	opMod
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opLoadHeader
	opStoreHeader
	opPayloadMatch
	opHash
	opMapFind
	opMapInsert
	opMapRemove
	opVecGet
	opVecLen
	opGlobalLoad
	opGlobalStore
	opXferLoad
	opXferStore
	opLpmFind
	// opFail stands for a statement the lowering could not bind (unknown
	// field, global or kind); executing it returns the error the
	// interpreter would, so an unreachable bad statement stays harmless.
	opFail
	opJump
	opBranch
	opSend
	opDrop
	opToNext
)

// slotMask is one register operand of a list-shaped op: the slot, and for
// an operand that is written (or stored into state) the mask of its type.
type slotMask struct {
	slot int32
	mask uint64
}

// planOp is one lowered statement. Which fields mean what:
//
//	dst, a, b  register slots (branch: a is the condition, dst/b unused)
//	mask       the destination register's type mask; for opConst the
//	           already-masked immediate; for opGlobalStore the global's
//	           value mask
//	g          index into Program.Globals; for transfer ops the 0-based
//	           scratchpad slot; for opPayloadMatch and opFail an index
//	           into Plan.pats / Plan.fails; for jumps the Then block
//	els        a branch's Else block
//	args       map ops: nkey key slots, then the value slots (MapFind:
//	           destinations with their masks; MapInsert: sources with
//	           the map's value masks); opLpmFind: value destinations;
//	           opHash: the hashed slots
type planOp struct {
	code  opcode
	nkey  uint8
	dst   int32
	a, b  int32
	g     int32
	els   int32
	id    int32
	mask  uint64
	field *packet.Field
	args  []slotMask
}

// planBlock is one basic block's op range; its last op is the terminator.
type planBlock struct{ start, end int32 }

// Plan is a partition function lowered for execution. It is immutable
// after CompilePlan and safe for concurrent Exec calls.
type Plan struct {
	name   string
	nregs  int
	ops    []planOp
	blocks []planBlock
	pats   [][]byte
	fails  []error
	// xferNames is indexed like planOp.g of transfer ops, for error text.
	xferNames map[int32]string
}

// CompilePlan lowers fn (the whole program or one partition of it) once.
// Bound at lowering time: register slots and their type masks, header
// field handles, global indices, the operator of every BinOp, branch
// targets, constants (pre-masked), payload patterns. Left per packet: the
// register values, the packet, the transfer scratchpad and the state.
func CompilePlan(prog *Program, fn *Function) *Plan {
	p := &Plan{name: fn.Name, nregs: len(fn.Regs), xferNames: map[int32]string{}}
	gidx := make(map[string]int32, len(prog.Globals))
	for i, g := range prog.Globals {
		gidx[g.Name] = int32(i)
	}
	lo := lowering{p: p, prog: prog, fn: fn, gidx: gidx}
	for _, b := range fn.Blocks {
		start := int32(len(p.ops))
		for i := range b.Instrs {
			p.ops = append(p.ops, lo.instr(&b.Instrs[i]))
		}
		p.ops = append(p.ops, lo.term(&b.Term))
		p.blocks = append(p.blocks, planBlock{start, int32(len(p.ops))})
	}
	return p
}

type lowering struct {
	p    *Plan
	prog *Program
	fn   *Function
	gidx map[string]int32
}

func (lo *lowering) mask(r Reg) uint64 { return lo.fn.RegType(r).Mask() }

func (lo *lowering) fail(in *Instr, err error) planOp {
	lo.p.fails = append(lo.p.fails, err)
	return planOp{code: opFail, id: int32(in.ID), g: int32(len(lo.p.fails) - 1)}
}

// srcs lowers a list of registers that are only read.
func srcs(regs []Reg) []slotMask {
	out := make([]slotMask, len(regs))
	for i, r := range regs {
		out[i].slot = int32(r)
	}
	return out
}

// dsts lowers a list of registers that are written, each with the mask of
// its own type.
func (lo *lowering) dsts(regs []Reg) []slotMask {
	out := srcs(regs)
	for i, r := range regs {
		out[i].mask = lo.mask(r)
	}
	return out
}

func (lo *lowering) instr(in *Instr) planOp {
	op := planOp{id: int32(in.ID)}
	if len(in.Dst) > 0 {
		op.dst, op.mask = int32(in.Dst[0]), lo.mask(in.Dst[0])
	}
	if len(in.Args) > 0 {
		op.a = int32(in.Args[0])
	}
	// State ops bind their global by index, map ops their key arity.
	var g *Global
	switch in.Kind {
	case MapFind, MapInsert, MapRemove, VecGet, VecLen, GlobalLoad, GlobalStore, LpmFind:
		gi, ok := lo.gidx[in.Obj]
		if !ok {
			return lo.fail(in, fmt.Errorf("ir: stmt %d: unknown global %q", in.ID, in.Obj))
		}
		op.g, g = gi, lo.prog.Globals[gi]
	}
	switch in.Kind {
	case MapFind, MapInsert, MapRemove:
		nk := len(in.Args)
		if in.Kind == MapInsert {
			nk = len(g.KeyTypes)
		}
		if nk > len(MapKey{}.K) {
			return lo.fail(in, fmt.Errorf("ir: stmt %d: map key arity %d exceeds max %d", in.ID, nk, len(MapKey{}.K)))
		}
		op.nkey = uint8(nk)
	}
	switch in.Kind {
	case Const:
		op.code, op.mask = opConst, in.Imm&op.mask
	case BinOp:
		if in.Op > Ge {
			return lo.fail(in, fmt.Errorf("ir: stmt %d: unknown op %s", in.ID, in.Op))
		}
		op.code, op.b = opAdd+opcode(in.Op), int32(in.Args[1])
	case Not:
		op.code = opNot
	case Convert:
		op.code = opConvert
		if op.mask == ^uint64(0) {
			op.code = opMove
		}
	case LoadHeader, StoreHeader:
		f, ok := packet.LookupField(in.Obj)
		if !ok {
			return lo.fail(in, fmt.Errorf("packet: unknown header field %q", in.Obj))
		}
		op.code, op.field = opLoadHeader, f
		if in.Kind == StoreHeader {
			op.code = opStoreHeader
		}
	case PayloadMatch:
		pat := in.pat
		if pat == nil {
			// Hand-built IR that skipped Finalize's precompile step.
			pat = []byte(in.Obj)
		}
		lo.p.pats = append(lo.p.pats, pat)
		op.code, op.g = opPayloadMatch, int32(len(lo.p.pats)-1)
	case Hash:
		op.code, op.args = opHash, srcs(in.Args)
	case MapFind:
		op.code, op.args = opMapFind, append(srcs(in.Args), lo.dsts(in.Dst[1:])...)
	case MapInsert:
		nk := int(op.nkey)
		if nk > len(in.Args) || len(in.Args)-nk > len(g.ValTypes) {
			return lo.fail(in, fmt.Errorf("ir: stmt %d: insert into %q does not match its declaration", in.ID, in.Obj))
		}
		op.code, op.args = opMapInsert, srcs(in.Args)
		for i := range op.args[nk:] {
			op.args[nk+i].mask = g.ValTypes[i].Mask()
		}
	case MapRemove:
		op.code, op.args = opMapRemove, srcs(in.Args)
	case VecGet:
		op.code = opVecGet
	case VecLen:
		op.code = opVecLen
	case GlobalLoad:
		op.code = opGlobalLoad
	case GlobalStore:
		if len(g.ValTypes) == 0 {
			return lo.fail(in, fmt.Errorf("ir: stmt %d: store to %q, which declares no value type", in.ID, in.Obj))
		}
		op.code, op.mask = opGlobalStore, g.ValTypes[0].Mask()
	case XferLoad, XferStore:
		op.code, op.g = opXferLoad, int32(in.Slot-1)
		if in.Kind == XferStore {
			op.code = opXferStore
		}
		lo.p.xferNames[op.g] = in.Obj
	case LpmFind:
		op.code, op.args = opLpmFind, lo.dsts(in.Dst[1:])
	default:
		return lo.fail(in, fmt.Errorf("ir: stmt %d: cannot execute kind %s", in.ID, in.Kind))
	}
	return op
}

func (lo *lowering) term(t *Instr) planOp {
	op := planOp{id: int32(t.ID)}
	switch t.Kind {
	case Jump:
		op.code, op.g = opJump, int32(t.Then)
	case Branch:
		op.code, op.a, op.g, op.els = opBranch, int32(t.Args[0]), int32(t.Then), int32(t.Else)
	case Send:
		op.code = opSend
	case Drop:
		op.code = opDrop
	case ToNext:
		op.code = opToNext
	default:
		return lo.fail(t, fmt.Errorf("ir: %s: bad terminator %s", lo.fn.Name, t.Kind))
	}
	return op
}

// planKey fills the Env's scratch key from the register file in place and
// returns it. Words past the new arity are zeroed so the key compares
// equal to one MakeMapKey built.
func (e *Env) planKey(regs []uint64, args []slotMask) *MapKey {
	k := &e.key
	for i := len(args); i < int(k.N); i++ {
		k.K[i] = 0
	}
	for i, a := range args {
		k.K[i] = regs[a.slot]
	}
	k.N = uint8(len(args))
	return k
}

// Exec runs the plan over env.Pkt against st, using env.Xfer as the
// transfer scratchpad and env.Regs as the register file. It returns what
// ExecFunc returns for the function the plan was lowered from, Steps
// included: every op is one statement and a block's ops are counted on
// entry, except that a block which would cross the step limit is cut at
// the limit so the statements before it still take effect.
func (p *Plan) Exec(st PlanState, env *Env) (Result, error) {
	regs := env.regFile(p.nregs)
	pkt := env.Pkt
	steps := 0
	for bi := int32(0); ; {
		b := p.blocks[bi]
		ops := p.ops[b.start:b.end]
		limited := steps+len(ops) > maxSteps
		if limited {
			ops = ops[:maxSteps-steps]
		}
		steps += len(ops)
		for i := range ops {
			op := &ops[i]
			switch op.code {
			case opConst:
				regs[op.dst] = op.mask
			case opMove:
				regs[op.dst] = regs[op.a]
			case opConvert:
				regs[op.dst] = regs[op.a] & op.mask
			case opNot:
				regs[op.dst] = boolVal(regs[op.a] == 0)
			case opAdd:
				regs[op.dst] = (regs[op.a] + regs[op.b]) & op.mask
			case opSub:
				regs[op.dst] = (regs[op.a] - regs[op.b]) & op.mask
			case opAnd:
				regs[op.dst] = regs[op.a] & regs[op.b] & op.mask
			case opOr:
				regs[op.dst] = (regs[op.a] | regs[op.b]) & op.mask
			case opXor:
				regs[op.dst] = (regs[op.a] ^ regs[op.b]) & op.mask
			case opShl:
				// Go defines a shift by >= 64 as 0, which is the IR's rule.
				regs[op.dst] = regs[op.a] << regs[op.b] & op.mask
			case opShr:
				regs[op.dst] = regs[op.a] >> regs[op.b] & op.mask
			case opMul:
				regs[op.dst] = regs[op.a] * regs[op.b] & op.mask
			case opDiv:
				if regs[op.b] == 0 {
					return Result{}, fmt.Errorf("ir: stmt %d: division by zero", op.id)
				}
				regs[op.dst] = regs[op.a] / regs[op.b] & op.mask
			case opMod:
				if regs[op.b] == 0 {
					return Result{}, fmt.Errorf("ir: stmt %d: modulo by zero", op.id)
				}
				regs[op.dst] = regs[op.a] % regs[op.b] & op.mask
			case opEq:
				regs[op.dst] = boolVal(regs[op.a] == regs[op.b])
			case opNe:
				regs[op.dst] = boolVal(regs[op.a] != regs[op.b])
			case opLt:
				regs[op.dst] = boolVal(regs[op.a] < regs[op.b])
			case opLe:
				regs[op.dst] = boolVal(regs[op.a] <= regs[op.b])
			case opGt:
				regs[op.dst] = boolVal(regs[op.a] > regs[op.b])
			case opGe:
				regs[op.dst] = boolVal(regs[op.a] >= regs[op.b])
			case opLoadHeader:
				regs[op.dst] = op.field.Get(pkt) & op.mask
			case opStoreHeader:
				op.field.Set(pkt, regs[op.a])
			case opPayloadMatch:
				regs[op.dst] = boolVal(bytes.Contains(pkt.Payload, p.pats[op.g]))
			case opHash:
				h := uint64(fnvOffset)
				for _, a := range op.args {
					h = fnvMix(h, regs[a.slot])
				}
				regs[op.dst] = h & U32.Mask()
			case opMapFind:
				vals, ok := st.MapFind(int(op.g), env.planKey(regs, op.args[:op.nkey]))
				regs[op.dst] = boolVal(ok)
				setFound(regs, op.args[op.nkey:], vals, ok)
			case opMapInsert:
				key := env.planKey(regs, op.args[:op.nkey])
				vals := env.vals[:0]
				for _, s := range op.args[op.nkey:] {
					vals = append(vals, regs[s.slot]&s.mask)
				}
				env.vals = vals
				if err := st.MapInsert(int(op.g), key, vals); err != nil {
					return Result{}, fmt.Errorf("ir: stmt %d: %w", op.id, err)
				}
			case opMapRemove:
				if err := st.MapRemove(int(op.g), env.planKey(regs, op.args)); err != nil {
					return Result{}, fmt.Errorf("ir: stmt %d: %w", op.id, err)
				}
			case opVecGet:
				v, err := st.VecGet(int(op.g), regs[op.a])
				if err != nil {
					return Result{}, fmt.Errorf("ir: stmt %d: %w", op.id, err)
				}
				regs[op.dst] = v & op.mask
			case opVecLen:
				regs[op.dst] = st.VecLen(int(op.g))
			case opGlobalLoad:
				regs[op.dst] = st.GlobalLoad(int(op.g)) & op.mask
			case opGlobalStore:
				if err := st.GlobalStore(int(op.g), regs[op.a]&op.mask); err != nil {
					return Result{}, fmt.Errorf("ir: stmt %d: %w", op.id, err)
				}
			case opXferLoad:
				if uint(op.g) >= uint(len(env.Xfer)) {
					return Result{}, p.noXfer(op, "xferload", env)
				}
				regs[op.dst] = env.Xfer[op.g] & op.mask
			case opXferStore:
				if uint(op.g) >= uint(len(env.Xfer)) {
					return Result{}, p.noXfer(op, "xferstore", env)
				}
				env.Xfer[op.g] = regs[op.a]
			case opLpmFind:
				vals, ok := st.LpmFind(int(op.g), regs[op.a])
				regs[op.dst] = boolVal(ok)
				setFound(regs, op.args, vals, ok)
			case opFail:
				return Result{}, p.fails[op.g]
			case opJump:
				bi = op.g
			case opBranch:
				if regs[op.a] != 0 {
					bi = op.g
				} else {
					bi = op.els
				}
			case opSend:
				return Result{Action: ActionSent, Steps: steps}, nil
			case opDrop:
				return Result{Action: ActionDropped, Steps: steps}, nil
			case opToNext:
				return Result{Action: ActionNext, Steps: steps}, nil
			}
		}
		if limited {
			return Result{}, fmt.Errorf("ir: %s: step limit exceeded (infinite loop?)", p.name)
		}
	}
}

// setFound writes a find's value tuple (zeros on a miss) to its
// destination registers.
func setFound(regs []uint64, dsts []slotMask, vals []uint64, ok bool) {
	for i, d := range dsts {
		if ok {
			regs[d.slot] = vals[i] & d.mask
		} else {
			regs[d.slot] = 0
		}
	}
}

func (p *Plan) noXfer(op *planOp, what string, env *Env) error {
	return fmt.Errorf("ir: stmt %d: %s %q with no transfer context (slot %d, %d slots)",
		op.id, what, p.xferNames[op.g], op.g+1, len(env.Xfer))
}
