package difftest

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"gallium/internal/flowstate"
)

// ---------------------------------------------------------------------------
// Program model
//
// The generator does not emit source text directly: it builds a small
// statement tree (ProgramSpec.Body) whose leaves carry pre-rendered
// expression strings. The tree is what the shrinker mutates — dropping a
// statement or hoisting a branch and re-rendering gives a smaller program
// whose compilability the shrinker then re-checks.
// ---------------------------------------------------------------------------

// MapDecl is one generated map: declaration shape plus the fixed key
// expression tuple every access site of this map uses, so that lookups,
// inserts, and removes of one map actually collide on keys.
type MapDecl struct {
	Name     string
	KeyTypes []string
	ValTypes []string
	Max      int
	// KeyExprs are the rendered access-site key expressions, one per key
	// component. For shard-safe programs this is always the captured
	// ingress flow tuple.
	KeyExprs []string
}

func (m *MapDecl) keyList() string { return strings.Join(m.KeyExprs, ", ") }

// VecDecl is one generated read-only vector with its seeded contents.
type VecDecl struct {
	Name string
	Max  int
	Seed []uint64
}

// LpmDecl is one generated read-only LPM table (seeded canonically by
// Setup: a default route plus two nested 10/8 prefixes).
type LpmDecl struct {
	Name string
	Max  int
}

// GlobalDecl is one generated scalar global and its seeded initial value.
type GlobalDecl struct {
	Name string
	Type string
	Init uint64
}

// ConstDecl is one generated named constant.
type ConstDecl struct {
	Name string
	Type string
	Expr string
}

// ProgramSpec is a generated MiniClick program: declarations plus the
// process() statement tree. Render produces the .mc source; Setup seeds
// the read-only and initial state identically for the oracle and every
// subject leg.
type ProgramSpec struct {
	Name string
	Seed uint64
	// ShardSafe marks programs whose cross-packet state is partitioned by
	// ingress flow: every map is keyed by the full captured flow tuple,
	// and globals are never written. For these, 8-worker execution must
	// equal the sequential oracle with per-shard map states union-merged.
	ShardSafe bool
	// Affinity is the expected flow-affinity certificate verdict in wire
	// form ("exact", "derived", "cross-flow"), recorded by corpus files so
	// replay cross-checks the dataflow analyzer against the value captured
	// at write time. Empty means unrecorded (no check).
	Affinity string
	// Expiry, when non-nil, arms the flow-state lifecycle on the engine
	// legs and runs the extra expiry leg: a sequential oracle that sweeps
	// the tracker after every packet must agree with the engine's
	// incremental, control-plane-mediated expiry. Timeouts are generated
	// as multiples of PacketSpacingNs so whether an entry is stale at
	// packet i is exact integer arithmetic, never a rounding accident.
	Expiry  *flowstate.Config
	Maps    []MapDecl
	Vecs    []VecDecl
	Lpms    []LpmDecl
	Globals []GlobalDecl
	Consts  []ConstDecl
	Body    *Block

	// traceMode is the scenario the trace generator should steer toward
	// ("" for the plain v4 workload): "v6" mixes IPv6 packets in, "encap"
	// GRE/IPIP-wraps packets, "tunlb"/"synproxy"/"mssclamp" pair the
	// matching middlebox template with traffic that reaches its hot
	// paths. Set by the scenario draws at the end of GenProgram; corpus
	// replay never needs it because the trace itself is stored.
	traceMode string
}

// ---------------------------------------------------------------------------
// Statement tree
// ---------------------------------------------------------------------------

// Stmt is one statement in the generated tree.
type Stmt interface {
	render(b *strings.Builder, ind string)
}

// Block is a statement sequence.
type Block struct{ Stmts []Stmt }

func (bl *Block) render(b *strings.Builder, ind string) {
	for _, s := range bl.Stmts {
		s.render(b, ind)
	}
}

// RawStmt is a pre-rendered simple statement (declaration, assignment,
// map insert/remove, let-binding).
type RawStmt struct{ Text string }

func (s *RawStmt) render(b *strings.Builder, ind string) {
	b.WriteString(ind)
	b.WriteString(s.Text)
	b.WriteString("\n")
}

// TermStmt is a send(p) / drop(p) terminator.
type TermStmt struct{ Op string }

func (s *TermStmt) render(b *strings.Builder, ind string) {
	b.WriteString(ind)
	b.WriteString(s.Op)
	b.WriteString("(p);\n")
}

// IfStmt is a conditional; Else may be nil.
type IfStmt struct {
	Cond string
	Then *Block
	Else *Block
}

func (s *IfStmt) render(b *strings.Builder, ind string) {
	b.WriteString(ind)
	b.WriteString("if (")
	b.WriteString(s.Cond)
	b.WriteString(") {\n")
	s.Then.render(b, ind+"    ")
	if s.Else != nil {
		b.WriteString(ind)
		b.WriteString("} else {\n")
		s.Else.render(b, ind+"    ")
	}
	b.WriteString(ind)
	b.WriteString("}\n")
}

// WhileStmt is a bounded counting loop. The counter declaration, test,
// and increment are part of the node itself — never child statements — so
// no shrink step can produce an unbounded loop.
type WhileStmt struct {
	Counter string
	Type    string
	Bound   int
	Body    *Block
}

func (s *WhileStmt) render(b *strings.Builder, ind string) {
	fmt.Fprintf(b, "%s%s %s = 0;\n", ind, s.Type, s.Counter)
	fmt.Fprintf(b, "%swhile (%s < %d) {\n", ind, s.Counter, s.Bound)
	s.Body.render(b, ind+"    ")
	fmt.Fprintf(b, "%s    %s = (%s + 1);\n", ind, s.Counter, s.Counter)
	fmt.Fprintf(b, "%s}\n", ind)
}

// Render emits the MiniClick source for the spec.
func (p *ProgramSpec) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "middlebox %s {\n", p.Name)
	for _, m := range p.Maps {
		fmt.Fprintf(&b, "    map<%s -> %s> %s(max = %d);\n",
			strings.Join(m.KeyTypes, ","), strings.Join(m.ValTypes, ","), m.Name, m.Max)
	}
	for _, v := range p.Vecs {
		fmt.Fprintf(&b, "    vec<u32> %s(max = %d);\n", v.Name, v.Max)
	}
	for _, l := range p.Lpms {
		fmt.Fprintf(&b, "    lpm<u32 -> u32> %s(max = %d);\n", l.Name, l.Max)
	}
	for _, g := range p.Globals {
		fmt.Fprintf(&b, "    global %s %s;\n", g.Type, g.Name)
	}
	for _, c := range p.Consts {
		fmt.Fprintf(&b, "    const %s %s = %s;\n", c.Type, c.Name, c.Expr)
	}
	b.WriteString("\n    proc process(pkt p) {\n")
	p.Body.render(&b, "        ")
	b.WriteString("    }\n}\n")
	return b.String()
}

// ---------------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------------

var unsignedTypes = []string{"u8", "u16", "u32", "u64"}

func typeBits(t string) int {
	switch t {
	case "u8":
		return 8
	case "u16":
		return 16
	case "u32":
		return 32
	case "u64":
		return 64
	}
	return 0
}

type headerField struct{ name, typ string }

// Readable header fields. Reading tcp.* on a UDP packet (and vice versa)
// is defined — the absent header's struct reads zero — so the generator
// does not need proto guards.
var headerReads = []headerField{
	{"p.ip.saddr", "u32"}, {"p.ip.daddr", "u32"}, {"p.ip.proto", "u8"},
	{"p.ip.ttl", "u8"}, {"p.ip.tos", "u8"}, {"p.ip.id", "u16"},
	{"p.tcp.flags", "u8"}, {"p.tcp.seq", "u32"}, {"p.tcp.window", "u16"},
	{"p.l4.sport", "u16"}, {"p.l4.dport", "u16"},
}

// Writable header fields. Length fields are excluded so generated rewrites
// never declare a length that disagrees with the payload actually carried.
var headerWrites = []headerField{
	{"p.ip.saddr", "u32"}, {"p.ip.daddr", "u32"}, {"p.ip.ttl", "u8"},
	{"p.ip.tos", "u8"}, {"p.ip.id", "u16"}, {"p.tcp.window", "u16"},
	{"p.l4.sport", "u16"}, {"p.l4.dport", "u16"},
}

// payloadPatterns are the strings payload_contains sites test for; the
// trace generator plants the same set, so both outcomes are exercised.
var payloadPatterns = []string{"GET", "EVIL", ".exe", "login"}

type scopeVar struct{ name, typ string }

type genCtx struct {
	r    *rng
	spec *ProgramSpec
	// scope is the flat stack of visible locals; callers snapshot and
	// truncate around nested blocks.
	scope []scopeVar
	// protected names may never be assignment targets (flow captures,
	// loop counters).
	protected map[string]bool
	nvar      int
}

func (g *genCtx) fresh(prefix string) string {
	g.nvar++
	return fmt.Sprintf("%s%d", prefix, g.nvar)
}

// literal renders a constant that fits the type.
func (g *genCtx) literal(t string) string {
	small := []uint64{0, 1, 2, 3, 5, 7, 10, 16, 22, 60, 64, 80, 100, 200, 255}
	v := pick(g.r, small)
	if typeBits(t) >= 16 && g.r.pct(30) {
		v = pick(g.r, []uint64{256, 1024, 5001, 8080, 65535})
	}
	if typeBits(t) >= 32 && g.r.pct(20) {
		v = pick(g.r, []uint64{65536, 1 << 20, 0xFFFFFFFF})
	}
	return strconv.FormatUint(v, 10)
}

// localsOf returns in-scope locals of the given type.
func (g *genCtx) localsOf(t string) []scopeVar {
	var out []scopeVar
	for _, v := range g.scope {
		if v.typ == t {
			out = append(out, v)
		}
	}
	return out
}

// expr renders an expression of the given unsigned type.
func (g *genCtx) expr(t string, depth int) string {
	// Compound expressions always put a self-typed ("anchored") operand on
	// the left: the checker lowers a binop's left side first and adapts
	// literals on the right to it, so an anchored left makes the whole
	// expression well-typed even in unconstrained contexts (cast bodies,
	// comparison operands).
	if depth > 0 && g.r.pct(45) {
		switch g.r.intn(10) {
		case 0, 1, 2, 3:
			op := pick(g.r, []string{"+", "-", "&", "|", "^"})
			return "(" + g.anchored(t, depth-1) + " " + op + " " + g.expr(t, depth-1) + ")"
		case 4, 5:
			op := pick(g.r, []string{">>", "<<"})
			sh := strconv.Itoa(1 + g.r.intn(typeBits(t)-1))
			return "(" + g.anchored(t, depth-1) + " " + op + " " + sh + ")"
		case 6:
			mod := pick(g.r, []string{"3", "5", "7", "13", "16"})
			return "(" + g.anchored(t, depth-1) + " % " + mod + ")"
		case 7:
			return "(" + g.anchored(t, depth-1) + " * " + pick(g.r, []string{"2", "3", "5"}) + ")"
		case 8:
			// Explicit narrowing/widening cast from a different width.
			from := pick(g.r, unsignedTypes)
			return "(" + t + ")(" + g.expr(from, depth-1) + ")"
		case 9:
			if t == "u32" {
				n := g.r.rangen(2, 4)
				args := make([]string, n)
				for i := range args {
					args[i] = g.expr(pick(g.r, []string{"u8", "u16", "u32"}), 0)
				}
				return "hash(" + strings.Join(args, ", ") + ")"
			}
		}
	}
	// Leaves.
	choices := []int{0, 0, 1, 1, 2, 3}
	switch pick(g.r, choices) {
	case 0: // literal
		return g.literal(t)
	case 1: // header field of this exact type
		var fs []headerField
		for _, f := range headerReads {
			if f.typ == t {
				fs = append(fs, f)
			}
		}
		if len(fs) > 0 {
			return pick(g.r, fs).name
		}
	case 2: // local
		if ls := g.localsOf(t); len(ls) > 0 {
			return pick(g.r, ls).name
		}
	case 3: // named const or global of this type
		var names []string
		for _, c := range g.spec.Consts {
			if c.Type == t {
				names = append(names, c.Name)
			}
		}
		for _, gl := range g.spec.Globals {
			if gl.Type == t {
				names = append(names, gl.Name)
			}
		}
		if len(names) > 0 {
			return pick(g.r, names)
		}
	}
	return g.literal(t)
}

// anchored renders an expression whose type is t even with no context to
// adapt to: a typed leaf (header field, local, const, global) when one
// exists, otherwise an explicit cast. Comparison operands need this —
// the checker lowers a comparison's left side unconstrained, so a
// literal-only subexpression there would default to u32.
func (g *genCtx) anchored(t string, depth int) string {
	var leaves []string
	for _, f := range headerReads {
		if f.typ == t {
			leaves = append(leaves, f.name)
		}
	}
	for _, v := range g.localsOf(t) {
		leaves = append(leaves, v.name)
	}
	for _, c := range g.spec.Consts {
		if c.Type == t {
			leaves = append(leaves, c.Name)
		}
	}
	for _, gl := range g.spec.Globals {
		if gl.Type == t {
			leaves = append(leaves, gl.Name)
		}
	}
	if len(leaves) > 0 && g.r.pct(70) {
		return pick(g.r, leaves)
	}
	return "(" + t + ")(" + g.expr(t, depth) + ")"
}

// boolExpr renders a boolean expression.
func (g *genCtx) boolExpr(depth int) string {
	if depth > 0 && g.r.pct(35) {
		switch g.r.intn(3) {
		case 0:
			return "(" + g.boolExpr(depth-1) + " && " + g.boolExpr(depth-1) + ")"
		case 1:
			return "(" + g.boolExpr(depth-1) + " || " + g.boolExpr(depth-1) + ")"
		case 2:
			return "(!" + g.boolExpr(depth-1) + ")"
		}
	}
	if len(g.spec.Maps) > 0 && g.r.pct(20) {
		m := pick(g.r, g.spec.Maps)
		return m.Name + ".contains(" + m.keyList() + ")"
	}
	if g.r.pct(8) {
		return `payload_contains("` + pick(g.r, payloadPatterns) + `")`
	}
	t := pick(g.r, []string{"u8", "u16", "u32"})
	op := pick(g.r, []string{"==", "!=", "<", "<=", ">", ">="})
	return "(" + g.anchored(t, depth) + " " + op + " " + g.expr(t, depth) + ")"
}

// stmts generates n statements at the given nesting depth into a block.
// canTerm permits send/drop terminators at the end of branch blocks.
func (g *genCtx) stmts(n, depth int, canTerm bool) *Block {
	bl := &Block{}
	for i := 0; i < n; i++ {
		bl.Stmts = append(bl.Stmts, g.stmt(depth, canTerm)...)
	}
	return bl
}

// stmt generates one statement (sometimes a let + if pair).
func (g *genCtx) stmt(depth int, canTerm bool) []Stmt {
	for {
		switch g.r.intn(100) {
		case 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17: // var decl
			t := pick(g.r, unsignedTypes)
			name := g.fresh("x")
			s := &RawStmt{Text: fmt.Sprintf("%s %s = %s;", t, name, g.expr(t, 2))}
			g.scope = append(g.scope, scopeVar{name, t})
			return []Stmt{s}

		case 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29: // header write
			f := pick(g.r, headerWrites)
			return []Stmt{&RawStmt{Text: fmt.Sprintf("%s = %s;", f.name, g.expr(f.typ, 2))}}

		case 30, 31, 32, 33, 34, 35, 36: // local reassignment
			var targets []scopeVar
			for _, v := range g.scope {
				if !g.protected[v.name] {
					targets = append(targets, v)
				}
			}
			if len(targets) == 0 {
				continue
			}
			v := pick(g.r, targets)
			return []Stmt{&RawStmt{Text: fmt.Sprintf("%s = %s;", v.name, g.expr(v.typ, 2))}}

		case 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48: // map find: let + ok-branch
			if len(g.spec.Maps) == 0 || depth <= 0 {
				continue
			}
			m := pick(g.r, g.spec.Maps)
			name := g.fresh("l")
			let := &RawStmt{Text: fmt.Sprintf("let %s = %s.find(%s);", name, m.Name, m.keyList())}
			mark := len(g.scope)
			for vi, vt := range m.ValTypes {
				bound := fmt.Sprintf("%s.v%d", name, vi)
				g.scope = append(g.scope, scopeVar{bound, vt})
				g.protected[bound] = true
			}
			// At most one branch may end in a terminator: if both
			// terminated, everything after the if would be unreachable,
			// which the front end rejects.
			termThen := canTerm && g.r.pct(50)
			then := g.innerBlock(depth, termThen)
			g.scope = g.scope[:mark]
			var els *Block
			if g.r.pct(60) {
				els = g.innerBlock(depth, canTerm && !termThen)
			}
			return []Stmt{let, &IfStmt{Cond: name + ".ok", Then: then, Else: els}}

		case 49, 50, 51, 52, 53, 54, 55, 56, 57, 58: // map insert
			if len(g.spec.Maps) == 0 {
				continue
			}
			m := pick(g.r, g.spec.Maps)
			vals := make([]string, len(m.ValTypes))
			for i, vt := range m.ValTypes {
				vals[i] = g.expr(vt, 2)
			}
			return []Stmt{&RawStmt{Text: fmt.Sprintf("%s.insert(%s, %s);",
				m.Name, m.keyList(), strings.Join(vals, ", "))}}

		case 59, 60, 61: // map remove
			if len(g.spec.Maps) == 0 {
				continue
			}
			m := pick(g.r, g.spec.Maps)
			return []Stmt{&RawStmt{Text: fmt.Sprintf("%s.remove(%s);", m.Name, m.keyList())}}

		case 62, 63, 64, 65, 66, 67, 68, 69, 70, 71, 72, 73: // plain if
			if depth <= 0 {
				continue
			}
			termThen := canTerm && g.r.pct(50)
			then := g.innerBlock(depth, termThen)
			var els *Block
			if g.r.pct(55) {
				els = g.innerBlock(depth, canTerm && !termThen)
			}
			return []Stmt{&IfStmt{Cond: g.boolExpr(2), Then: then, Else: els}}

		case 74, 75, 76, 77, 78, 79: // vec read
			if len(g.spec.Vecs) == 0 {
				continue
			}
			v := pick(g.r, g.spec.Vecs)
			name := g.fresh("x")
			s := &RawStmt{Text: fmt.Sprintf("u32 %s = %s[(%s %% %s.size())];",
				name, v.Name, g.expr("u32", 2), v.Name)}
			g.scope = append(g.scope, scopeVar{name, "u32"})
			return []Stmt{s}

		case 80, 81, 82: // lpm lookup
			if len(g.spec.Lpms) == 0 || depth <= 0 {
				continue
			}
			l := pick(g.r, g.spec.Lpms)
			name := g.fresh("r")
			key := "p.ip.daddr"
			if g.r.pct(30) {
				key = g.expr("u32", 1)
			}
			let := &RawStmt{Text: fmt.Sprintf("let %s = %s.lookup(%s);", name, l.Name, key)}
			mark := len(g.scope)
			g.scope = append(g.scope, scopeVar{name + ".v0", "u32"})
			g.protected[name+".v0"] = true
			then := g.innerBlock(depth, canTerm)
			g.scope = g.scope[:mark]
			return []Stmt{let, &IfStmt{Cond: name + ".ok", Then: then}}

		case 83, 84, 85, 86, 87, 88: // global write (non-shard-safe only)
			if g.spec.ShardSafe || len(g.spec.Globals) == 0 {
				continue
			}
			gl := pick(g.r, g.spec.Globals)
			text := fmt.Sprintf("%s = %s;", gl.Name, g.expr(gl.Type, 2))
			if g.r.pct(50) { // read-modify-write counter
				text = fmt.Sprintf("%s = (%s + 1);", gl.Name, gl.Name)
			}
			return []Stmt{&RawStmt{Text: text}}

		case 89, 90, 91: // bounded while loop (server-resident construct)
			if depth <= 0 {
				continue
			}
			counter := g.fresh("w")
			g.protected[counter] = true
			mark := len(g.scope)
			g.scope = append(g.scope, scopeVar{counter, "u8"})
			body := g.stmts(g.r.rangen(1, 2), 0, false)
			g.scope = g.scope[:mark]
			return []Stmt{&WhileStmt{Counter: counter, Type: "u8", Bound: g.r.rangen(2, 4), Body: body}}

		default: // payload-gated branch
			if depth <= 0 {
				continue
			}
			then := g.innerBlock(depth, canTerm)
			cond := `payload_contains("` + pick(g.r, payloadPatterns) + `")`
			return []Stmt{&IfStmt{Cond: cond, Then: then}}
		}
	}
}

// innerBlock generates a nested branch body, optionally ending in a
// terminator.
func (g *genCtx) innerBlock(depth int, canTerm bool) *Block {
	mark := len(g.scope)
	n := g.r.rangen(1, 2)
	if depth > 0 {
		n = g.r.rangen(1, 3)
	}
	bl := g.stmts(n, depth-1, canTerm)
	g.scope = g.scope[:mark]
	if canTerm && g.r.pct(25) {
		op := "send"
		if g.r.pct(35) {
			op = "drop"
		}
		bl.Stmts = append(bl.Stmts, &TermStmt{Op: op})
	}
	return bl
}

// flowKeyTypes/flowKeyExprs are the canonical captured-ingress-tuple key
// shape every shard-safe map uses.
var (
	flowKeyTypes = []string{"u32", "u32", "u16", "u16", "u8"}
	flowKeyExprs = []string{"fsrc", "fdst", "fsp", "fdp", "fpr"}
)

// nonFlowKeyShapes are the cross-flow key templates non-shard-safe maps
// draw from. Their key expressions read the *current* header values, so a
// rewrite upstream changes the key — exactly the aliasing the sequential
// legs must still agree on.
var nonFlowKeyShapes = []struct {
	types []string
	exprs []string
}{
	{[]string{"u32"}, []string{"p.ip.saddr"}},
	{[]string{"u32"}, []string{"p.ip.daddr"}},
	{[]string{"u16"}, []string{"p.l4.dport"}},
	{[]string{"u16"}, []string{"(u16)(p.ip.saddr & 65535)"}},
	{[]string{"u32", "u32"}, []string{"p.ip.saddr", "p.ip.daddr"}},
	{[]string{"u8"}, []string{"p.ip.proto"}},
}

// GenProgram derives a complete random program from the seed. The same
// seed always produces the identical ProgramSpec.
func GenProgram(seed uint64) *ProgramSpec {
	r := newRNG(seed)
	spec := &ProgramSpec{
		Name:      "fz" + strconv.FormatUint(seed, 10),
		Seed:      seed,
		ShardSafe: r.pct(50),
	}

	nMaps := r.rangen(1, 3)
	for i := 0; i < nMaps; i++ {
		m := MapDecl{Name: fmt.Sprintf("m%d", i), Max: 8192}
		if spec.ShardSafe || r.pct(30) {
			m.KeyTypes = flowKeyTypes
			m.KeyExprs = flowKeyExprs
		} else {
			shape := pick(r, nonFlowKeyShapes)
			m.KeyTypes = shape.types
			m.KeyExprs = shape.exprs
		}
		nv := r.rangen(1, 2)
		for v := 0; v < nv; v++ {
			m.ValTypes = append(m.ValTypes, pick(r, []string{"u8", "u16", "u32"}))
		}
		spec.Maps = append(spec.Maps, m)
	}
	if r.pct(50) {
		spec.Vecs = append(spec.Vecs, VecDecl{Name: "v0", Max: 16, Seed: []uint64{7, 13, 21, 42}})
	}
	if r.pct(25) {
		spec.Lpms = append(spec.Lpms, LpmDecl{Name: "lp0", Max: 256})
	}
	nGlob := r.intn(3)
	for i := 0; i < nGlob; i++ {
		spec.Globals = append(spec.Globals, GlobalDecl{
			Name: fmt.Sprintf("g%d", i),
			Type: pick(r, []string{"u16", "u32"}),
			Init: uint64(r.intn(100)),
		})
	}
	nConst := r.intn(3)
	for i := 0; i < nConst; i++ {
		t := pick(r, []string{"u16", "u32"})
		expr := strconv.Itoa(r.rangen(1, 9999))
		if t == "u32" && r.pct(40) {
			expr = fmt.Sprintf("ip(%d, %d, %d, %d)", 10, 0, 0, r.rangen(1, 9))
		}
		spec.Consts = append(spec.Consts, ConstDecl{Name: fmt.Sprintf("C%d", i), Type: t, Expr: expr})
	}

	g := &genCtx{r: r, spec: spec, protected: map[string]bool{}}
	// Capture the ingress flow tuple before any header rewrite; shard-safe
	// map keys are built exclusively from these.
	preamble := []Stmt{
		&RawStmt{Text: "u32 fsrc = p.ip.saddr;"},
		&RawStmt{Text: "u32 fdst = p.ip.daddr;"},
		&RawStmt{Text: "u16 fsp = p.l4.sport;"},
		&RawStmt{Text: "u16 fdp = p.l4.dport;"},
		&RawStmt{Text: "u8 fpr = p.ip.proto;"},
	}
	for _, v := range []scopeVar{{"fsrc", "u32"}, {"fdst", "u32"}, {"fsp", "u16"}, {"fdp", "u16"}, {"fpr", "u8"}} {
		g.scope = append(g.scope, v)
		g.protected[v.name] = true
	}
	body := g.stmts(r.rangen(5, 10), 2, true)
	body.Stmts = append(preamble, body.Stmts...)
	body.Stmts = append(body.Stmts, &TermStmt{Op: "send"})
	spec.Body = body

	// A quarter of the seeds run with the flow-state lifecycle armed.
	// These draws come after everything else so adding them did not
	// reshuffle the programs existing seeds generate. This capacity is
	// far above any trace's flow count, so these seeds exercise timeouts;
	// the last draw below shrinks it on half of them.
	if r.pct(25) {
		s := time.Duration(PacketSpacingNs)
		spec.Expiry = &flowstate.Config{
			Capacity: 1 << 20,
			TCPTimeouts: flowstate.TCPTimeouts{
				Syn:         time.Duration(r.rangen(1, 3)) * s,
				Established: time.Duration(r.rangen(3, 12)) * s,
				Fin:         time.Duration(r.rangen(1, 3)) * s,
			},
			UDPTimeout: time.Duration(r.rangen(2, 8)) * s,
		}
	}

	// Scenario-diversity draws: IPv6, tunnel encapsulation, and the
	// scenario-middlebox templates (tunneling LB, SYN proxy, MSS clamp).
	// Like the expiry draw these come after everything else, so seeds
	// that don't hit a scenario still generate byte-identical programs.
	// Every scenario clears ShardSafe and Expiry: the captured v4 flow
	// tuple reads zero on v6 packets, so distinct v6 flows would alias
	// onto one "shard-safe" key while dispatch separates them, and the
	// flow lifecycle is specified over the v4 tuple for the same reason.
	applyScenario(spec, r)

	// Half of the seeds still armed get a capacity of a few entries, so
	// LRU eviction — as packet-deterministic as a timeout — decides
	// packets' fates too. Drawn last of all, for the same reason.
	if spec.Expiry != nil && r.pct(50) {
		spec.Expiry.Capacity = r.rangen(2, 7)
	}
	return spec
}
