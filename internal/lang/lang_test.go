package lang

import (
	"strings"
	"testing"

	"gallium/internal/ir"
	"gallium/internal/packet"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex(`middlebox m { // comment
		u32 x = 0xFF + 10; }`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokKind
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
	}
	want := []TokKind{TokIdent, TokIdent, TokLBrace, TokIdent, TokIdent, TokAssign,
		TokNumber, TokPlus, TokNumber, TokSemi, TokRBrace, TokEOF}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
	if toks[6].Num != 0xFF {
		t.Errorf("hex literal = %d", toks[6].Num)
	}
	if toks[8].Num != 10 {
		t.Errorf("dec literal = %d", toks[8].Num)
	}
}

func TestLexTwoCharOperators(t *testing.T) {
	toks, err := Lex(`-> == != <= >= << >> && ||`)
	if err != nil {
		t.Fatal(err)
	}
	want := []TokKind{TokArrow, TokEq, TokNe, TokLe, TokGe, TokShl, TokShr, TokAndAnd, TokOrOr, TokEOF}
	for i, w := range want {
		if toks[i].Kind != w {
			t.Errorf("token %d = %v, want %v", i, toks[i].Kind, w)
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{`@`, `"unterminated`, "\"newline\nin string\""} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q): want error", src)
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("a at %d:%d", toks[0].Line, toks[0].Col)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("b at %d:%d", toks[1].Line, toks[1].Col)
	}
}

const tinySrc = `
middlebox tiny {
    map<u16 -> u32> tbl(max = 16);
    proc process(pkt p) {
        let r = tbl.find(p.tcp.dport);
        if (r.ok) {
            p.ip.daddr = r.v0;
            send(p);
        } else {
            drop(p);
        }
    }
}
`

func TestParseAndLowerTiny(t *testing.T) {
	prog, err := Compile(tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name != "tiny" {
		t.Errorf("name = %q", prog.Name)
	}
	if len(prog.Globals) != 1 || prog.Globals[0].MaxEntries != 16 {
		t.Errorf("globals = %+v", prog.Globals)
	}
	st := ir.NewState(prog)
	st.MapInsert("tbl", ir.MakeMapKey(80), []uint64{uint64(packet.MakeIPv4Addr(9, 9, 9, 9))})
	pkt := packet.BuildTCP(1, 2, 3, 80, packet.TCPOptions{})
	r, err := prog.Exec(&ir.Env{State: st, Pkt: pkt})
	if err != nil {
		t.Fatal(err)
	}
	if r.Action != ir.ActionSent || pkt.IP.DstIP != packet.MakeIPv4Addr(9, 9, 9, 9) {
		t.Errorf("action=%v daddr=%v", r.Action, pkt.IP.DstIP)
	}
	pkt2 := packet.BuildTCP(1, 2, 3, 81, packet.TCPOptions{})
	r, _ = prog.Exec(&ir.Env{State: st, Pkt: pkt2})
	if r.Action != ir.ActionDropped {
		t.Errorf("miss action = %v", r.Action)
	}
}

func compileErr(t *testing.T, src, wantSub string) {
	t.Helper()
	_, err := Compile(src)
	if err == nil {
		t.Errorf("want error containing %q, got none", wantSub)
		return
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Errorf("error %q does not contain %q", err.Error(), wantSub)
	}
}

func TestCompileErrors(t *testing.T) {
	compileErr(t, `middlebox m { }`, "no proc")
	compileErr(t, `middlebox m { proc process(pkt p) { send(p); } proc process(pkt p) { drop(p); } }`, "multiple process procs")
	compileErr(t, `middlebox m { proc process(pkt p) { u32 x = y; send(p); } }`, "undeclared identifier")
	compileErr(t, `middlebox m { proc process(pkt p) { u32 x = p.ip.nosuch; send(p); } }`, "unknown packet field")
	compileErr(t, `middlebox m { proc process(pkt p) { u16 x = p.ip.saddr; send(p); } }`, "type mismatch")
	compileErr(t, `middlebox m { proc process(pkt p) { send(p); drop(p); } }`, "unreachable code")
	compileErr(t, `middlebox m { proc process(pkt p) { u32 x = 1; u32 x = 2; send(p); } }`, "redeclared")
	compileErr(t, `middlebox m { proc process(pkt p) { x = 1; send(p); } }`, "undeclared")
	compileErr(t, `middlebox m { proc process(pkt p) { u8 v = 256; send(p); } }`, "overflows")
	compileErr(t, `middlebox m { proc process(pkt p) { let r = nosuch.find(1); send(p); } }`, "not a declared map")
	compileErr(t, `middlebox m { map<u16 -> u32> t(max=4); proc process(pkt p) { let r = t.find(1, 2); send(p); } }`, "2 keys given")
	compileErr(t, `middlebox m { map<u16 -> u32> t(max=4); proc process(pkt p) { t.insert(1); send(p); } }`, "want 2")
	compileErr(t, `middlebox m { map<u16 -> u32> t(max=4); proc process(pkt p) { let r = t.find(p.tcp.dport); u32 v = r.nosuch; send(p); } }`, "no field")
	compileErr(t, `middlebox m { proc process(pkt p) { u32 v = backends[0]; send(p); } }`, "not a declared vector")
	compileErr(t, `middlebox m { proc process(pkt p) { bool b = p.ip.ttl + true; send(p); } }`, "type mismatch")
	compileErr(t, `middlebox m { const u32 C = p.ip.saddr; proc process(pkt p) { send(p); } }`, "not a constant")
	compileErr(t, `middlebox m { global u32 g; map<u16->u32> g(max=4); proc process(pkt p) { send(p); } }`, "duplicate")
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`middlebox`,
		`middlebox m {`,
		`middlebox m { proc process(pkt p) { if p.ip.ttl { send(p); } } }`,
		`middlebox m { map<u16> t(max=4); proc process(pkt p){send(p);} }`,
		`middlebox m { vec<u32 v; proc process(pkt p){send(p);} }`,
		`middlebox m { proc process(pkt p) { u32 x = ; send(p); } }`,
		`middlebox m { proc process(pkt p) { send(p) } }`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): want error", src)
		}
	}
}

func TestWhileLoopLowering(t *testing.T) {
	src := `
middlebox looper {
    global u32 total;
    proc process(pkt p) {
        u32 i = 0;
        u32 acc = 0;
        while (i < (u32)(p.ip.ttl)) {
            acc = acc + 2;
            i = i + 1;
        }
        total = acc;
        send(p);
    }
}
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	st := ir.NewState(prog)
	pkt := packet.BuildTCP(1, 2, 3, 4, packet.TCPOptions{})
	pkt.IP.TTL = 7
	r, err := prog.Exec(&ir.Env{State: st, Pkt: pkt})
	if err != nil {
		t.Fatal(err)
	}
	if r.Action != ir.ActionSent {
		t.Fatalf("action = %v", r.Action)
	}
	if st.Globals["total"] != 14 {
		t.Errorf("total = %d, want 14", st.Globals["total"])
	}
}

func TestElseIfChain(t *testing.T) {
	src := `
middlebox chain {
    proc process(pkt p) {
        if (p.tcp.dport == 1) {
            p.ip.ttl = 11;
            send(p);
        } else if (p.tcp.dport == 2) {
            p.ip.ttl = 22;
            send(p);
        } else {
            p.ip.ttl = 33;
            send(p);
        }
    }
}
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	for dport, ttl := range map[uint16]uint8{1: 11, 2: 22, 3: 33} {
		pkt := packet.BuildTCP(1, 2, 3, dport, packet.TCPOptions{})
		if _, err := prog.Exec(&ir.Env{State: ir.NewState(prog), Pkt: pkt}); err != nil {
			t.Fatal(err)
		}
		if pkt.IP.TTL != ttl {
			t.Errorf("dport %d: ttl = %d, want %d", dport, pkt.IP.TTL, ttl)
		}
	}
}

func TestConstsAndBuiltins(t *testing.T) {
	src := `
middlebox consts {
    const u32 TARGET = ip(1, 2, 3, 4);
    const u16 PORT = 80 + 8000;
    proc process(pkt p) {
        if (p.ip.daddr == TARGET && p.tcp.dport == PORT) {
            u32 h = hash(p.ip.saddr, p.ip.daddr);
            if (h != 0) {
                send(p);
            } else {
                send(p);
            }
        } else {
            drop(p);
        }
    }
}
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	pkt := packet.BuildTCP(9, packet.MakeIPv4Addr(1, 2, 3, 4), 1, 8080, packet.TCPOptions{})
	r, err := prog.Exec(&ir.Env{State: ir.NewState(prog), Pkt: pkt})
	if err != nil {
		t.Fatal(err)
	}
	if r.Action != ir.ActionSent {
		t.Errorf("matching packet action = %v", r.Action)
	}
	pkt2 := packet.BuildTCP(9, packet.MakeIPv4Addr(1, 2, 3, 5), 1, 8080, packet.TCPOptions{})
	r, _ = prog.Exec(&ir.Env{State: ir.NewState(prog), Pkt: pkt2})
	if r.Action != ir.ActionDropped {
		t.Errorf("non-matching packet action = %v", r.Action)
	}
}

func TestImplicitDropOnFallthrough(t *testing.T) {
	src := `
middlebox fall {
    proc process(pkt p) {
        if (p.ip.ttl == 0) {
            send(p);
        }
        // Falls off the end: packet dropped.
    }
}
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	pkt := packet.BuildTCP(1, 2, 3, 4, packet.TCPOptions{})
	pkt.IP.TTL = 64
	r, err := prog.Exec(&ir.Env{State: ir.NewState(prog), Pkt: pkt})
	if err != nil {
		t.Fatal(err)
	}
	if r.Action != ir.ActionDropped {
		t.Errorf("fallthrough action = %v, want dropped", r.Action)
	}
}

func TestPayloadAndCastExpressions(t *testing.T) {
	src := `
middlebox dpi {
    proc process(pkt p) {
        u8 flags = p.tcp.flags & (u8)(TCP_SYN | TCP_ACK);
        if (flags == (u8)(TCP_SYN | TCP_ACK) && payload_contains("MAGIC")) {
            drop(p);
        } else {
            send(p);
        }
    }
}
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	hit := packet.BuildTCP(1, 2, 3, 4, packet.TCPOptions{
		Flags: packet.TCPFlagSYN | packet.TCPFlagACK, Payload: []byte("xxMAGICxx")})
	r, _ := prog.Exec(&ir.Env{State: ir.NewState(prog), Pkt: hit})
	if r.Action != ir.ActionDropped {
		t.Errorf("hit action = %v", r.Action)
	}
	miss := packet.BuildTCP(1, 2, 3, 4, packet.TCPOptions{
		Flags: packet.TCPFlagSYN | packet.TCPFlagACK, Payload: []byte("benign")})
	r, _ = prog.Exec(&ir.Env{State: ir.NewState(prog), Pkt: miss})
	if r.Action != ir.ActionSent {
		t.Errorf("miss action = %v", r.Action)
	}
}

func TestBlockScoping(t *testing.T) {
	// A variable declared in an if-arm is not visible outside it.
	compileErr(t, `
middlebox scope {
    proc process(pkt p) {
        if (p.ip.ttl == 1) {
            u32 inner = 5;
        }
        p.ip.saddr = inner;
        send(p);
    }
}`, "undeclared")
}

func TestOperatorPrecedence(t *testing.T) {
	src := `
middlebox prec {
    global u32 out;
    proc process(pkt p) {
        // 2 + 3 * 4 = 14; (2+3)*4 = 20; 1 << 2 + 1 = 8 (shift binds looser).
        u32 a = 2 + 3 * 4;
        u32 b = (2 + 3) * 4;
        u32 c = 1 << 2 + 1;
        out = a * 10000 + b * 100 + c;
        send(p);
    }
}
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	st := ir.NewState(prog)
	pkt := packet.BuildTCP(1, 2, 3, 4, packet.TCPOptions{})
	if _, err := prog.Exec(&ir.Env{State: st, Pkt: pkt}); err != nil {
		t.Fatal(err)
	}
	if st.Globals["out"] != 14*10000+20*100+8 {
		t.Errorf("out = %d, want %d", st.Globals["out"], 14*10000+20*100+8)
	}
}

func TestLPMDeclarationAndLookup(t *testing.T) {
	src := `
middlebox router {
    lpm<u32 -> u32> routes(max = 16);
    proc process(pkt p) {
        let r = routes.lookup(p.ip.daddr);
        if (r.ok) {
            p.ip.daddr = r.v0;
            send(p);
        } else {
            drop(p);
        }
    }
}
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	g := prog.Global("routes")
	if g == nil || g.Kind != ir.KindLPM || g.MaxEntries != 16 {
		t.Fatalf("routes global = %+v", g)
	}
	st := ir.NewState(prog)
	st.AddRoute("routes", uint64(packet.MakeIPv4Addr(10, 0, 0, 0)), 8, 42)
	st.AddRoute("routes", uint64(packet.MakeIPv4Addr(10, 1, 0, 0)), 16, 99)

	pkt := packet.BuildTCP(1, packet.MakeIPv4Addr(10, 1, 2, 3), 1, 2, packet.TCPOptions{})
	r, err := prog.Exec(&ir.Env{State: st, Pkt: pkt})
	if err != nil {
		t.Fatal(err)
	}
	if r.Action != ir.ActionSent || uint64(pkt.IP.DstIP) != 99 {
		t.Errorf("longest prefix: action=%v hop=%v, want sent/99", r.Action, pkt.IP.DstIP)
	}
	pkt2 := packet.BuildTCP(1, packet.MakeIPv4Addr(10, 200, 2, 3), 1, 2, packet.TCPOptions{})
	if _, err := prog.Exec(&ir.Env{State: st, Pkt: pkt2}); err != nil {
		t.Fatal(err)
	}
	if uint64(pkt2.IP.DstIP) != 42 {
		t.Errorf("/8 fallback hop = %v, want 42", pkt2.IP.DstIP)
	}
	pkt3 := packet.BuildTCP(1, packet.MakeIPv4Addr(11, 0, 0, 1), 1, 2, packet.TCPOptions{})
	r3, _ := prog.Exec(&ir.Env{State: st, Pkt: pkt3})
	if r3.Action != ir.ActionDropped {
		t.Errorf("no-route action = %v, want dropped", r3.Action)
	}
}

func TestLPMErrors(t *testing.T) {
	compileErr(t, `middlebox m { lpm<u16 -> u32> r(max=4); proc process(pkt p){send(p);} }`, "lpm keys must be u32")
	compileErr(t, `middlebox m { map<u32 -> u32> r(max=4); proc process(pkt p){ let x = r.lookup(p.ip.daddr); send(p);} }`, "not a declared lpm")
	compileErr(t, `middlebox m { lpm<u32 -> u32> r(max=4); proc process(pkt p){ let x = r.find(p.ip.daddr); send(p);} }`, "not a declared map")
	compileErr(t, `middlebox m { lpm<u32 -> u32> r(max=4); proc process(pkt p){ let x = r.lookup(p.ip.daddr, p.ip.saddr); send(p);} }`, "one u32 key")
}

func TestLPMContains(t *testing.T) {
	src := `
middlebox m {
    lpm<u32 -> u8> internal(max = 8);
    proc process(pkt p) {
        if (internal.contains(p.ip.saddr)) {
            send(p);
        } else {
            drop(p);
        }
    }
}
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	st := ir.NewState(prog)
	st.AddRoute("internal", uint64(packet.MakeIPv4Addr(10, 0, 0, 0)), 8, 1)
	in := packet.BuildTCP(packet.MakeIPv4Addr(10, 5, 5, 5), 2, 3, 4, packet.TCPOptions{})
	r, _ := prog.Exec(&ir.Env{State: st, Pkt: in})
	if r.Action != ir.ActionSent {
		t.Errorf("internal source action = %v", r.Action)
	}
	out := packet.BuildTCP(packet.MakeIPv4Addr(11, 5, 5, 5), 2, 3, 4, packet.TCPOptions{})
	r, _ = prog.Exec(&ir.Env{State: st, Pkt: out})
	if r.Action != ir.ActionDropped {
		t.Errorf("external source action = %v", r.Action)
	}
}

func TestHelperProcInlining(t *testing.T) {
	src := `
middlebox helped {
    map<u16 -> u8> blocked(max = 16);

    proc check_blocked(pkt q) {
        if (blocked.contains(q.tcp.dport)) {
            drop(q);
        }
    }

    proc mark(pkt q) {
        q.ip.ttl = 42;
    }

    proc process(pkt p) {
        check_blocked(p);
        mark(p);
        send(p);
    }
}
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	st := ir.NewState(prog)
	st.MapInsert("blocked", ir.MakeMapKey(23), []uint64{1})

	// Blocked port: the inlined helper drops.
	bad := packet.BuildTCP(1, 2, 3, 23, packet.TCPOptions{})
	r, err := prog.Exec(&ir.Env{State: st, Pkt: bad})
	if err != nil {
		t.Fatal(err)
	}
	if r.Action != ir.ActionDropped {
		t.Errorf("blocked action = %v", r.Action)
	}
	// Unblocked: both helpers run, the second under its own packet name.
	ok := packet.BuildTCP(1, 2, 3, 80, packet.TCPOptions{})
	r, err = prog.Exec(&ir.Env{State: st, Pkt: ok})
	if err != nil {
		t.Fatal(err)
	}
	if r.Action != ir.ActionSent || ok.IP.TTL != 42 {
		t.Errorf("action=%v ttl=%d, want sent/42", r.Action, ok.IP.TTL)
	}
}

func TestHelperProcTerminatesAllPaths(t *testing.T) {
	// A helper that terminates on every path makes code after the call
	// unreachable.
	compileErr(t, `
middlebox m {
    proc always(pkt q) { drop(q); }
    proc process(pkt p) {
        always(p);
        send(p);
    }
}`, "unreachable code")
}

func TestHelperProcErrors(t *testing.T) {
	compileErr(t, `middlebox m { proc process(pkt p) { nosuch(p); send(p); } }`, "unknown proc")
	compileErr(t, `
middlebox m {
    proc a(pkt q) { b(q); }
    proc b(pkt q) { a(q); }
    proc process(pkt p) { a(p); send(p); }
}`, "recursive call")
	compileErr(t, `
middlebox m {
    proc a(pkt q) { a(q); }
    proc process(pkt p) { a(p); send(p); }
}`, "recursive call")
	compileErr(t, `
middlebox m {
    proc a(pkt q) { q.ip.ttl = 1; }
    proc a(pkt q) { q.ip.ttl = 2; }
    proc process(pkt p) { a(p); send(p); }
}`, "duplicate proc")
}

func TestHelperScopeIsolation(t *testing.T) {
	// Helper locals do not leak into the caller, and the helper cannot
	// see caller locals.
	compileErr(t, `
middlebox m {
    proc a(pkt q) { u32 inner = 1; }
    proc process(pkt p) {
        a(p);
        p.ip.saddr = inner;
        send(p);
    }
}`, "undeclared")
	compileErr(t, `
middlebox m {
    proc a(pkt q) { q.ip.saddr = outer; }
    proc process(pkt p) {
        u32 outer = 1;
        a(p);
        send(p);
    }
}`, "undeclared")
}

func TestHelperInlinedProgramPartitions(t *testing.T) {
	// The inlined program is an ordinary IR program: partition it and
	// check equivalence.
	src := `
middlebox helped2 {
    map<u16 -> u32> fwd(max = 64);
    proc steer(pkt q) {
        let r = fwd.find(q.tcp.dport);
        if (r.ok) {
            q.ip.daddr = r.v0;
        }
    }
    proc process(pkt p) {
        steer(p);
        send(p);
    }
}
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Fn.NumStmts < 6 {
		t.Errorf("inlined program suspiciously small: %d stmts", prog.Fn.NumStmts)
	}
}

func TestConstExpressionForms(t *testing.T) {
	src := `
middlebox consts2 {
    const u32 A = 10 - 3;
    const u32 B = 6 * 7;
    const u32 C = 0xF0 ^ 0x0F;
    const u32 D = 1 << 10;
    const u32 E = 1024 >> 2;
    const u32 F = (u32)(0x1FFFF & 0xFFFF);
    const u32 G = A + B;
    global u32 out;
    proc process(pkt p) {
        out = A + B + C + D + E + F + G;
        send(p);
    }
}
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	st := ir.NewState(prog)
	pkt := packet.BuildTCP(1, 2, 3, 4, packet.TCPOptions{})
	if _, err := prog.Exec(&ir.Env{State: st, Pkt: pkt}); err != nil {
		t.Fatal(err)
	}
	want := uint64(7 + 42 + 0xFF + 1024 + 256 + 0xFFFF + 49)
	if st.Globals["out"] != want {
		t.Errorf("out = %d, want %d", st.Globals["out"], want)
	}
}

func TestUnaryNotInProgram(t *testing.T) {
	src := `
middlebox noter {
    map<u16 -> u8> m(max = 4);
    proc process(pkt p) {
        if (!m.contains(p.tcp.dport)) {
            drop(p);
        }
        send(p);
    }
}
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	st := ir.NewState(prog)
	st.MapInsert("m", ir.MakeMapKey(80), []uint64{1})
	hit := packet.BuildTCP(1, 2, 3, 80, packet.TCPOptions{})
	r, _ := prog.Exec(&ir.Env{State: st, Pkt: hit})
	if r.Action != ir.ActionSent {
		t.Errorf("known port action = %v", r.Action)
	}
	miss := packet.BuildTCP(1, 2, 3, 81, packet.TCPOptions{})
	r, _ = prog.Exec(&ir.Env{State: st, Pkt: miss})
	if r.Action != ir.ActionDropped {
		t.Errorf("unknown port action = %v", r.Action)
	}
}

func TestMethodAndBuiltinErrors(t *testing.T) {
	compileErr(t, `middlebox m { vec<u32> v(max=4); proc process(pkt p) { bool b = v.contains(1); send(p); } }`, "not a map")
	compileErr(t, `middlebox m { map<u16->u8> t(max=4); proc process(pkt p) { u32 s = t.size(); send(p); } }`, "not a vector")
	compileErr(t, `middlebox m { map<u16->u8> t(max=4); proc process(pkt p) { u32 s = t.nosuch(); send(p); } }`, "unknown method")
	compileErr(t, `middlebox m { proc process(pkt p) { u32 h = hash(); send(p); } }`, "at least one argument")
	compileErr(t, `middlebox m { proc process(pkt p) { u32 a = ip(1, 2, 3, 999); send(p); } }`, "constant octets")
	// Unknown function names fail at parse time (only hash/ip/payload_contains
	// are builtin expression calls).
	compileErr(t, `middlebox m { proc process(pkt p) { u32 a = nosuchfn(1); send(p); } }`, "expected")
	compileErr(t, `middlebox m { map<u16->u8> t(max=4); proc process(pkt p) { bool b = t.contains(1, 2); send(p); } }`, "keys given")
}

func TestVecDeclErrors(t *testing.T) {
	for _, src := range []string{
		`middlebox m { vec<u32 v(max=4); proc process(pkt p){send(p);} }`,
		`middlebox m { vec<u32> (max=4); proc process(pkt p){send(p);} }`,
		`middlebox m { vec<u32> v(max=); proc process(pkt p){send(p);} }`,
		`middlebox m { vec<u32> v(size=4); proc process(pkt p){send(p);} }`,
	} {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q): want error", src)
		}
	}
	// Unannotated vector parses (it just cannot offload).
	prog, err := Compile(`middlebox m { vec<u32> v; proc process(pkt p){ send(p); } }`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Global("v").MaxEntries != 0 {
		t.Error("unannotated vector should have MaxEntries 0")
	}
}

func TestSendDropArgumentErrors(t *testing.T) {
	for _, src := range []string{
		`middlebox m { proc process(pkt p) { send(); } }`,
		`middlebox m { proc process(pkt p) { drop(p) } }`,
		`middlebox m { proc process(pkt p) { send p; } }`,
	} {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q): want error", src)
		}
	}
}
