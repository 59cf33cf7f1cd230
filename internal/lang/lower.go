package lang

import (
	"fmt"

	"gallium/internal/ir"
	"gallium/internal/packet"
)

// Compile parses and lowers a MiniClick source file into an IR program.
func Compile(src string) (*ir.Program, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Lower(f)
}

// noType marks "no expected type" when lowering expressions.
const noType ir.Type = 0xFF

var dslTypes = map[string]ir.Type{
	"bool": ir.Bool, "u8": ir.U8, "u16": ir.U16, "u32": ir.U32, "u64": ir.U64,
}

// Predefined constants available in every middlebox.
var predefined = map[string]uint64{
	"TCP_FIN":    uint64(packet.TCPFlagFIN),
	"TCP_SYN":    uint64(packet.TCPFlagSYN),
	"TCP_RST":    uint64(packet.TCPFlagRST),
	"TCP_PSH":    uint64(packet.TCPFlagPSH),
	"TCP_ACK":    uint64(packet.TCPFlagACK),
	"TCP_URG":    uint64(packet.TCPFlagURG),
	"PROTO_TCP":  uint64(packet.IPProtocolTCP),
	"PROTO_UDP":  uint64(packet.IPProtocolUDP),
	"PROTO_GRE":  uint64(packet.IPProtocolGRE),
	"PROTO_IPIP": uint64(packet.IPProtocolIPIP),
	"PROTO_IPV6": uint64(packet.IPProtocolIPv6),
	"ETH_IPV4":   uint64(packet.EtherTypeIPv4),
	"ETH_IPV6":   uint64(packet.EtherTypeIPv6),
	"TUN_NONE":   packet.TunModeNone,
	"TUN_GRE":    packet.TunModeGRE,
	"TUN_IPIP":   packet.TunModeIPIP,
	"true":       1,
	"false":      0,
}

type bindKind int

const (
	bindVar bindKind = iota
	bindFind
)

type binding struct {
	kind     bindKind
	reg      ir.Reg
	typ      ir.Type
	mutable  bool
	found    ir.Reg
	vals     []ir.Reg
	valTypes []ir.Type
}

type lowerer struct {
	file    *File
	prog    *ir.Program
	b       *ir.Builder
	globals map[string]*ir.Global
	consts  map[string]constVal
	scopes  []map[string]*binding
	pkt     string
	// mutated names need a dedicated register (they are reassigned).
	mutated map[string]bool
	// helpers are inlinable procs; inlining tracks the active call stack
	// to reject recursion (the switch has no call stack and no loops).
	helpers  map[string]*ProcDecl
	inlining []string
}

type constVal struct {
	val uint64
	typ ir.Type
}

// Lower type-checks and lowers a parsed file to IR.
func Lower(f *File) (*ir.Program, error) {
	lo := &lowerer{
		file:    f,
		globals: map[string]*ir.Global{},
		consts:  map[string]constVal{},
		mutated: map[string]bool{},
		helpers: map[string]*ProcDecl{},
	}
	for _, h := range f.Helpers {
		if h.Name == f.Proc.Name || lo.helpers[h.Name] != nil {
			return nil, errf(h.Line, 1, "duplicate proc %q", h.Name)
		}
		lo.helpers[h.Name] = h
	}
	lo.prog = &ir.Program{Name: f.Name}
	for _, d := range f.Decls {
		if err := lo.decl(d); err != nil {
			return nil, err
		}
	}
	lo.collectMutated(f.Proc.Body)
	for _, h := range f.Helpers {
		lo.collectMutated(h.Body)
	}
	lo.b = ir.NewBuilder(f.Proc.Name)
	lo.pkt = f.Proc.PktName
	lo.pushScope()
	terminated, err := lo.block(f.Proc.Body)
	if err != nil {
		return nil, err
	}
	if !terminated {
		lo.b.Drop() // falling off the end drops the packet (Click semantics)
	}
	fn := lo.b.Fn()
	fn.Finalize()
	lo.prog.Fn = fn
	if err := lo.prog.Validate(); err != nil {
		return nil, fmt.Errorf("lang: internal error, generated invalid IR: %w", err)
	}
	return lo.prog, nil
}

func (lo *lowerer) decl(d Decl) error {
	addGlobal := func(g *ir.Global, line int) error {
		if lo.globals[g.Name] != nil {
			return errf(line, 1, "duplicate declaration %q", g.Name)
		}
		if _, clash := lo.consts[g.Name]; clash {
			return errf(line, 1, "%q already declared as const", g.Name)
		}
		lo.globals[g.Name] = g
		lo.prog.Globals = append(lo.prog.Globals, g)
		return nil
	}
	switch d := d.(type) {
	case *MapDecl:
		g := &ir.Global{Name: d.Name, Kind: ir.KindMap, MaxEntries: d.Max}
		if len(d.KeyTypes) > 8 {
			return errf(d.Line, 1, "map %q: at most 8 key components", d.Name)
		}
		for _, tn := range d.KeyTypes {
			g.KeyTypes = append(g.KeyTypes, dslTypes[tn])
		}
		for _, tn := range d.ValTypes {
			g.ValTypes = append(g.ValTypes, dslTypes[tn])
		}
		return addGlobal(g, d.Line)
	case *LpmDecl:
		g := &ir.Global{Name: d.Name, Kind: ir.KindLPM, MaxEntries: d.Max}
		for _, tn := range d.ValTypes {
			g.ValTypes = append(g.ValTypes, dslTypes[tn])
		}
		return addGlobal(g, d.Line)
	case *VecDecl:
		g := &ir.Global{Name: d.Name, Kind: ir.KindVec, ValTypes: []ir.Type{dslTypes[d.Elem]}, MaxEntries: d.Max}
		return addGlobal(g, d.Line)
	case *GlobalDecl:
		g := &ir.Global{Name: d.Name, Kind: ir.KindScalar, ValTypes: []ir.Type{dslTypes[d.Type]}}
		return addGlobal(g, d.Line)
	case *ConstDecl:
		v, ok := lo.constEval(d.Expr)
		if !ok {
			return errf(d.Line, 1, "const %q: initializer is not a constant expression", d.Name)
		}
		t := dslTypes[d.Type]
		lo.consts[d.Name] = constVal{val: v & t.Mask(), typ: t}
		return nil
	}
	return fmt.Errorf("lang: unknown declaration %T", d)
}

// constEval folds compile-time constant expressions (const initializers
// and the ip(a,b,c,d) builtin).
func (lo *lowerer) constEval(e Expr) (uint64, bool) {
	switch e := e.(type) {
	case *NumExpr:
		return e.Val, true
	case *IdentExpr:
		if c, ok := lo.consts[e.Name]; ok {
			return c.val, true
		}
		if v, ok := predefined[e.Name]; ok {
			return v, true
		}
	case *CallExpr:
		if e.Func == "ip" && e.Recv == "" && len(e.Args) == 4 {
			var parts [4]uint64
			for i, a := range e.Args {
				v, ok := lo.constEval(a)
				if !ok || v > 255 {
					return 0, false
				}
				parts[i] = v
			}
			return parts[0]<<24 | parts[1]<<16 | parts[2]<<8 | parts[3], true
		}
	case *BinExpr:
		l, ok1 := lo.constEval(e.L)
		r, ok2 := lo.constEval(e.R)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch e.Op {
		case TokPlus:
			return l + r, true
		case TokMinus:
			return l - r, true
		case TokStar:
			return l * r, true
		case TokPipe:
			return l | r, true
		case TokAmp:
			return l & r, true
		case TokCaret:
			return l ^ r, true
		case TokShl:
			return l << (r & 63), true
		case TokShr:
			return l >> (r & 63), true
		}
	case *CastExpr:
		v, ok := lo.constEval(e.X)
		if !ok {
			return 0, false
		}
		return v & dslTypes[e.Type].Mask(), true
	}
	return 0, false
}

func (lo *lowerer) collectMutated(b *Block) {
	for _, s := range b.Stmts {
		switch s := s.(type) {
		case *AssignStmt:
			if id, ok := s.Target.(*IdentExpr); ok {
				lo.mutated[id.Name] = true
			}
		case *IfStmt:
			lo.collectMutated(s.Then)
			if s.Else != nil {
				lo.collectMutated(s.Else)
			}
		case *WhileStmt:
			lo.collectMutated(s.Body)
		}
	}
}

func (lo *lowerer) pushScope() { lo.scopes = append(lo.scopes, map[string]*binding{}) }
func (lo *lowerer) popScope()  { lo.scopes = lo.scopes[:len(lo.scopes)-1] }

func (lo *lowerer) lookup(name string) *binding {
	for i := len(lo.scopes) - 1; i >= 0; i-- {
		if b, ok := lo.scopes[i][name]; ok {
			return b
		}
	}
	return nil
}

func (lo *lowerer) bind(name string, b *binding, line int) error {
	top := lo.scopes[len(lo.scopes)-1]
	if _, dup := top[name]; dup {
		return errf(line, 1, "%q redeclared in this block", name)
	}
	top[name] = b
	return nil
}

// block lowers a statement list; it reports whether every path through it
// ended in send/drop/return.
func (lo *lowerer) block(b *Block) (bool, error) {
	lo.pushScope()
	defer lo.popScope()
	for i, s := range b.Stmts {
		terminated, err := lo.stmt(s)
		if err != nil {
			return false, err
		}
		if terminated {
			if i != len(b.Stmts)-1 {
				return false, errf(stmtLine(b.Stmts[i+1]), 1, "unreachable code after terminator")
			}
			return true, nil
		}
	}
	return false, nil
}

func stmtLine(s Stmt) int {
	switch s := s.(type) {
	case *VarDeclStmt:
		return s.Line
	case *LetFindStmt:
		return s.Line
	case *AssignStmt:
		return s.Line
	case *IfStmt:
		return s.Line
	case *WhileStmt:
		return s.Line
	case *SendStmt:
		return s.Line
	case *DropStmt:
		return s.Line
	case *ReturnStmt:
		return s.Line
	case *CallStmt:
		return s.Line
	}
	return 0
}

func (lo *lowerer) stmt(s Stmt) (bool, error) {
	lo.b.SetPos(stmtLine(s))
	switch s := s.(type) {
	case *VarDeclStmt:
		t := dslTypes[s.Type]
		regsBefore := len(lo.b.Fn().Regs)
		init, err := lo.expr(s.Init, t)
		if err != nil {
			return false, err
		}
		bd := &binding{kind: bindVar, typ: t, mutable: lo.mutated[s.Name]}
		if bd.mutable {
			// Reassigned later: give it a dedicated register and copy in.
			dst := lo.b.NewReg(s.Name, t)
			lo.copyTo(dst, init)
			bd.reg = dst
		} else {
			bd.reg = init
			// Carry the source variable name onto the result register (it
			// names synthesized transfer header fields, Figure 5) — but
			// only when the initializer allocated it, so aliasing another
			// variable does not rename it.
			if int(init) >= regsBefore {
				lo.b.Fn().Regs[init].Name = s.Name
			}
		}
		return false, lo.bind(s.Name, bd, s.Line)

	case *LetFindStmt:
		g := lo.globals[s.Map]
		if s.Method == "lookup" {
			if g == nil || g.Kind != ir.KindLPM {
				return false, errf(s.Line, 1, "%q is not a declared lpm table", s.Map)
			}
			if len(s.Args) != 1 {
				return false, errf(s.Line, 1, "%s.lookup takes one u32 key", s.Map)
			}
			key, err := lo.expr(s.Args[0], ir.U32)
			if err != nil {
				return false, err
			}
			found, vals := lo.b.LpmFind(s.Name, g, key)
			return false, lo.bind(s.Name, &binding{kind: bindFind, found: found, vals: vals, valTypes: g.ValTypes}, s.Line)
		}
		if g == nil || g.Kind != ir.KindMap {
			return false, errf(s.Line, 1, "%q is not a declared map", s.Map)
		}
		if len(s.Args) != len(g.KeyTypes) {
			return false, errf(s.Line, 1, "%s.find: %d keys given, map has %d", s.Map, len(s.Args), len(g.KeyTypes))
		}
		keys := make([]ir.Reg, len(s.Args))
		for i, a := range s.Args {
			r, err := lo.expr(a, g.KeyTypes[i])
			if err != nil {
				return false, err
			}
			keys[i] = r
		}
		found, vals := lo.b.MapFind(s.Name, g, keys...)
		return false, lo.bind(s.Name, &binding{kind: bindFind, found: found, vals: vals, valTypes: g.ValTypes}, s.Line)

	case *AssignStmt:
		return false, lo.assign(s)

	case *IfStmt:
		return lo.ifStmt(s)

	case *WhileStmt:
		return lo.whileStmt(s)

	case *SendStmt:
		lo.b.Send()
		return true, nil
	case *DropStmt:
		lo.b.Drop()
		return true, nil
	case *ReturnStmt:
		lo.b.Drop()
		return true, nil

	case *InlineCallStmt:
		h := lo.helpers[s.Name]
		if h == nil {
			return false, errf(s.Line, 1, "unknown proc %q", s.Name)
		}
		for _, active := range lo.inlining {
			if active == s.Name {
				return false, errf(s.Line, 1, "recursive call to %q (P4 pipelines cannot loop)", s.Name)
			}
		}
		// Inline the helper's body at the call site (§4.1: all calls are
		// inlined before dependency analysis). The helper sees the same
		// packet under its own parameter name and the shared globals, but
		// a fresh local scope.
		savedPkt := lo.pkt
		savedScopes := lo.scopes
		lo.pkt = h.PktName
		lo.scopes = nil
		lo.pushScope()
		lo.inlining = append(lo.inlining, s.Name)
		terminated, err := lo.block(h.Body)
		lo.inlining = lo.inlining[:len(lo.inlining)-1]
		lo.pkt = savedPkt
		lo.scopes = savedScopes
		if err != nil {
			return false, err
		}
		return terminated, nil

	case *CallStmt:
		g := lo.globals[s.Recv]
		if g == nil || g.Kind != ir.KindMap {
			return false, errf(s.Line, 1, "%q is not a declared map", s.Recv)
		}
		switch s.Method {
		case "insert":
			want := len(g.KeyTypes) + len(g.ValTypes)
			if len(s.Args) != want {
				return false, errf(s.Line, 1, "%s.insert: %d args given, want %d (keys then values)", s.Recv, len(s.Args), want)
			}
			keys := make([]ir.Reg, len(g.KeyTypes))
			vals := make([]ir.Reg, len(g.ValTypes))
			for i := range keys {
				r, err := lo.expr(s.Args[i], g.KeyTypes[i])
				if err != nil {
					return false, err
				}
				keys[i] = r
			}
			for i := range vals {
				r, err := lo.expr(s.Args[len(keys)+i], g.ValTypes[i])
				if err != nil {
					return false, err
				}
				vals[i] = r
			}
			lo.b.MapInsert(g, keys, vals)
		case "remove":
			if len(s.Args) != len(g.KeyTypes) {
				return false, errf(s.Line, 1, "%s.remove: %d keys given, map has %d", s.Recv, len(s.Args), len(g.KeyTypes))
			}
			keys := make([]ir.Reg, len(s.Args))
			for i, a := range s.Args {
				r, err := lo.expr(a, g.KeyTypes[i])
				if err != nil {
					return false, err
				}
				keys[i] = r
			}
			lo.b.MapRemove(g, keys)
		default:
			return false, errf(s.Line, 1, "unknown method %s.%s", s.Recv, s.Method)
		}
		return false, nil
	}
	return false, fmt.Errorf("lang: unknown statement %T", s)
}

func (lo *lowerer) assign(s *AssignStmt) error {
	switch target := s.Target.(type) {
	case *IdentExpr:
		// Local variable or scalar global.
		if bd := lo.lookup(target.Name); bd != nil {
			if bd.kind != bindVar || !bd.mutable {
				return errf(s.Line, 1, "%q is not assignable", target.Name)
			}
			v, err := lo.expr(s.Value, bd.typ)
			if err != nil {
				return err
			}
			lo.copyTo(bd.reg, v)
			return nil
		}
		if g, ok := lo.globals[target.Name]; ok && g.Kind == ir.KindScalar {
			v, err := lo.expr(s.Value, g.ValTypes[0])
			if err != nil {
				return err
			}
			lo.b.GlobalStore(g, v)
			return nil
		}
		return errf(s.Line, 1, "assignment to undeclared %q", target.Name)
	case *FieldExpr:
		path, err := lo.packetPath(target)
		if err != nil {
			return err
		}
		bits, ok := packet.HeaderFieldBits(path)
		if !ok {
			return errf(s.Line, 1, "unknown packet field %q", path)
		}
		v, err := lo.expr(s.Value, bitsToType(bits))
		if err != nil {
			return err
		}
		lo.b.StoreHeader(path, v)
		return nil
	}
	return errf(s.Line, 1, "invalid assignment target")
}

func (lo *lowerer) ifStmt(s *IfStmt) (bool, error) {
	cond, err := lo.expr(s.Cond, ir.Bool)
	if err != nil {
		return false, err
	}
	thenB := lo.b.NewBlock()
	var elseB *ir.Block
	if s.Else != nil {
		elseB = lo.b.NewBlock()
	}
	var joinB *ir.Block
	ensureJoin := func() *ir.Block {
		if joinB == nil {
			joinB = lo.b.NewBlock()
		}
		return joinB
	}
	if elseB != nil {
		lo.b.Branch(cond, thenB, elseB)
	} else {
		lo.b.Branch(cond, thenB, ensureJoin())
	}

	lo.b.SetBlock(thenB)
	t1, err := lo.block(s.Then)
	if err != nil {
		return false, err
	}
	if !t1 {
		lo.b.Jump(ensureJoin())
	}

	t2 := false
	if elseB != nil {
		lo.b.SetBlock(elseB)
		t2, err = lo.block(s.Else)
		if err != nil {
			return false, err
		}
		if !t2 {
			lo.b.Jump(ensureJoin())
		}
	}

	terminated := t1 && s.Else != nil && t2
	if !terminated {
		lo.b.SetBlock(joinB)
	}
	return terminated, nil
}

func (lo *lowerer) whileStmt(s *WhileStmt) (bool, error) {
	head := lo.b.NewBlock()
	body := lo.b.NewBlock()
	exit := lo.b.NewBlock()
	lo.b.Jump(head)
	lo.b.SetBlock(head)
	cond, err := lo.expr(s.Cond, ir.Bool)
	if err != nil {
		return false, err
	}
	lo.b.Branch(cond, body, exit)
	lo.b.SetBlock(body)
	terminated, err := lo.block(s.Body)
	if err != nil {
		return false, err
	}
	if !terminated {
		lo.b.Jump(head)
	}
	lo.b.SetBlock(exit)
	return false, nil
}

// copyTo emits dst = src (a Convert into an existing register).
func (lo *lowerer) copyTo(dst, src ir.Reg) {
	fn := lo.b.Fn()
	blk := lo.b.Cur()
	blk.Instrs = append(blk.Instrs, ir.Instr{
		Kind: ir.Convert, Dst: []ir.Reg{dst}, Args: []ir.Reg{src}, Typ: fn.RegType(dst),
	})
}

// expr lowers an expression; want is the expected type (noType when
// unconstrained). Integer literals adapt to the expected type; all other
// mismatches are errors (MiniClick has no implicit conversions — use
// casts, as the switch hardware makes widths explicit).
func (lo *lowerer) expr(e Expr, want ir.Type) (ir.Reg, error) {
	line, col := e.Pos()
	r, t, err := lo.exprAny(e, want)
	if err != nil {
		return 0, err
	}
	if want != noType && t != want {
		return 0, errf(line, col, "type mismatch: have %s, want %s (add a cast)", t, want)
	}
	return r, nil
}

// exprAny lowers an expression and reports its type.
func (lo *lowerer) exprAny(e Expr, want ir.Type) (ir.Reg, ir.Type, error) {
	line, col := e.Pos()
	switch e := e.(type) {
	case *NumExpr:
		t := want
		if t == noType {
			t = ir.U32
		}
		if e.Val&^t.Mask() != 0 {
			return 0, 0, errf(line, col, "literal %d overflows %s", e.Val, t)
		}
		return lo.b.Const(fmt.Sprintf("c%d", e.Val), t, e.Val), t, nil

	case *IdentExpr:
		if bd := lo.lookup(e.Name); bd != nil {
			if bd.kind != bindVar {
				return 0, 0, errf(line, col, "%q is a find result; use .ok or .v0", e.Name)
			}
			return bd.reg, bd.typ, nil
		}
		if c, ok := lo.consts[e.Name]; ok {
			return lo.b.Const(e.Name, c.typ, c.val), c.typ, nil
		}
		if v, ok := predefined[e.Name]; ok {
			t := want
			if t == noType {
				t = ir.U32
			}
			if e.Name == "true" || e.Name == "false" {
				t = ir.Bool
			}
			return lo.b.Const(e.Name, t, v), t, nil
		}
		if g, ok := lo.globals[e.Name]; ok && g.Kind == ir.KindScalar {
			return lo.b.GlobalLoad(e.Name, g), g.ValTypes[0], nil
		}
		return 0, 0, errf(line, col, "undeclared identifier %q", e.Name)

	case *FieldExpr:
		// Find-result access: r.ok, r.v0, r.val.
		if base, ok := e.Recv.(*IdentExpr); ok {
			if bd := lo.lookup(base.Name); bd != nil && bd.kind == bindFind {
				switch {
				case e.Name == "ok":
					return bd.found, ir.Bool, nil
				case e.Name == "val":
					return bd.vals[0], bd.valTypes[0], nil
				case len(e.Name) >= 2 && e.Name[0] == 'v':
					var idx int
					if _, err := fmt.Sscanf(e.Name[1:], "%d", &idx); err == nil && idx >= 0 && idx < len(bd.vals) {
						return bd.vals[idx], bd.valTypes[idx], nil
					}
				}
				return 0, 0, errf(line, col, "find result %q has no field %q", base.Name, e.Name)
			}
		}
		// Packet header access.
		path, err := lo.packetPath(e)
		if err != nil {
			return 0, 0, err
		}
		bits, ok := packet.HeaderFieldBits(path)
		if !ok {
			return 0, 0, errf(line, col, "unknown packet field %q", path)
		}
		t := bitsToType(bits)
		return lo.b.LoadHeader(lastSegment(path), path, t), t, nil

	case *BinExpr:
		return lo.binExpr(e, want)

	case *UnaryExpr:
		x, err := lo.expr(e.X, ir.Bool)
		if err != nil {
			return 0, 0, err
		}
		return lo.b.Not("not", x), ir.Bool, nil

	case *CastExpr:
		t := dslTypes[e.Type]
		x, _, err := lo.exprAny(e.X, noType)
		if err != nil {
			return 0, 0, err
		}
		return lo.b.Convert("cast", t, x), t, nil

	case *CallExpr:
		return lo.callExpr(e, want)

	case *IndexExpr:
		g := lo.globals[e.Vec]
		if g == nil || g.Kind != ir.KindVec {
			return 0, 0, errf(line, col, "%q is not a declared vector", e.Vec)
		}
		idx, err := lo.expr(e.Idx, ir.U32)
		if err != nil {
			return 0, 0, err
		}
		return lo.b.VecGet(e.Vec+"_elem", g, idx), g.ValTypes[0], nil
	}
	return 0, 0, errf(line, col, "unsupported expression %T", e)
}

func (lo *lowerer) binExpr(e *BinExpr, want ir.Type) (ir.Reg, ir.Type, error) {
	line, col := e.Pos()
	switch e.Op {
	case TokAndAnd, TokOrOr:
		// Note: MiniClick has no short-circuit evaluation; operands are
		// side-effect free so only timing differs.
		l, err := lo.expr(e.L, ir.Bool)
		if err != nil {
			return 0, 0, err
		}
		r, err := lo.expr(e.R, ir.Bool)
		if err != nil {
			return 0, 0, err
		}
		op := ir.And
		if e.Op == TokOrOr {
			op = ir.Or
		}
		return lo.b.BinOp("logic", op, l, r), ir.Bool, nil
	}

	// Lower the non-literal side first so literals adapt to it.
	var lr, rr ir.Reg
	var lt ir.Type
	var err error
	_, lIsNum := e.L.(*NumExpr)
	_, rIsNum := e.R.(*NumExpr)
	operandWant := noType
	if !isComparison(e.Op) && want != noType && want != ir.Bool {
		operandWant = want
	}
	switch {
	case lIsNum && !rIsNum:
		rr, lt, err = lo.exprAny(e.R, operandWant)
		if err != nil {
			return 0, 0, err
		}
		lr, err = lo.expr(e.L, lt)
	default:
		lr, lt, err = lo.exprAny(e.L, operandWant)
		if err != nil {
			return 0, 0, err
		}
		if e.Op == TokShl || e.Op == TokShr {
			// Shift amounts may be any width.
			rr, _, err = lo.exprAny(e.R, noType)
		} else {
			rr, err = lo.expr(e.R, lt)
		}
	}
	if err != nil {
		return 0, 0, err
	}
	op, ok := binOps[e.Op]
	if !ok {
		return 0, 0, errf(line, col, "unsupported operator")
	}
	if lt == ir.Bool && !op.IsComparison() {
		return 0, 0, errf(line, col, "arithmetic on bool")
	}
	res := lo.b.BinOp(op.String(), op, lr, rr)
	if op.IsComparison() {
		return res, ir.Bool, nil
	}
	return res, lt, nil
}

var binOps = map[TokKind]ir.Op{
	TokPlus: ir.Add, TokMinus: ir.Sub, TokStar: ir.Mul, TokSlash: ir.Div, TokPercent: ir.Mod,
	TokAmp: ir.And, TokPipe: ir.Or, TokCaret: ir.Xor, TokShl: ir.Shl, TokShr: ir.Shr,
	TokEq: ir.Eq, TokNe: ir.Ne, TokLt: ir.Lt, TokLe: ir.Le, TokGt: ir.Gt, TokGe: ir.Ge,
}

func isComparison(k TokKind) bool {
	switch k {
	case TokEq, TokNe, TokLt, TokLe, TokGt, TokGe:
		return true
	}
	return false
}

func (lo *lowerer) callExpr(e *CallExpr, want ir.Type) (ir.Reg, ir.Type, error) {
	line, col := e.Pos()
	if e.Recv == "" {
		switch e.Func {
		case "hash":
			if len(e.Args) == 0 {
				return 0, 0, errf(line, col, "hash needs at least one argument")
			}
			args := make([]ir.Reg, len(e.Args))
			for i, a := range e.Args {
				r, _, err := lo.exprAny(a, noType)
				if err != nil {
					return 0, 0, err
				}
				args[i] = r
			}
			return lo.b.Hash("hash", args...), ir.U32, nil
		case "ip":
			v, ok := lo.constEval(e)
			if !ok {
				return 0, 0, errf(line, col, "ip(a,b,c,d) needs constant octets")
			}
			return lo.b.Const("ipaddr", ir.U32, v), ir.U32, nil
		case "payload_contains":
			return lo.b.PayloadMatch("paymatch", e.StrArg), ir.Bool, nil
		}
		return 0, 0, errf(line, col, "unknown builtin %q", e.Func)
	}
	g := lo.globals[e.Recv]
	if g == nil {
		return 0, 0, errf(line, col, "%q is not a declared structure", e.Recv)
	}
	switch e.Func {
	case "contains":
		if g.Kind == ir.KindLPM {
			if len(e.Args) != 1 {
				return 0, 0, errf(line, col, "%s.contains takes one u32 key", e.Recv)
			}
			key, err := lo.expr(e.Args[0], ir.U32)
			if err != nil {
				return 0, 0, err
			}
			found, _ := lo.b.LpmFind(e.Recv+"_has", g, key)
			return found, ir.Bool, nil
		}
		if g.Kind != ir.KindMap {
			return 0, 0, errf(line, col, "%q.contains: receiver is not a map", e.Recv)
		}
		if len(e.Args) != len(g.KeyTypes) {
			return 0, 0, errf(line, col, "%s.contains: %d keys given, map has %d", e.Recv, len(e.Args), len(g.KeyTypes))
		}
		keys := make([]ir.Reg, len(e.Args))
		for i, a := range e.Args {
			r, err := lo.expr(a, g.KeyTypes[i])
			if err != nil {
				return 0, 0, err
			}
			keys[i] = r
		}
		found, _ := lo.b.MapFind(e.Recv+"_has", g, keys...)
		return found, ir.Bool, nil
	case "size":
		if g.Kind != ir.KindVec {
			return 0, 0, errf(line, col, "%q.size: receiver is not a vector", e.Recv)
		}
		return lo.b.VecLen(e.Recv+"_size", g), ir.U32, nil
	}
	return 0, 0, errf(line, col, "unknown method %s.%s", e.Recv, e.Func)
}

// packetPath resolves p.ip.saddr-style chains into the packet field table
// path "ip.saddr".
func (lo *lowerer) packetPath(e *FieldExpr) (string, error) {
	line, col := e.Pos()
	inner, ok := e.Recv.(*FieldExpr)
	if !ok {
		return "", errf(line, col, "expected packet field access (p.<layer>.<field>)")
	}
	base, ok := inner.Recv.(*IdentExpr)
	if !ok || base.Name != lo.pkt {
		return "", errf(line, col, "packet field access must start with %q", lo.pkt)
	}
	return inner.Name + "." + e.Name, nil
}

func lastSegment(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '.' {
			return path[i+1:]
		}
	}
	return path
}

func bitsToType(bits int) ir.Type {
	switch bits {
	case 1:
		return ir.Bool
	case 8:
		return ir.U8
	case 16:
		return ir.U16
	case 32:
		return ir.U32
	}
	return ir.U64
}
