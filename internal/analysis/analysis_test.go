package analysis

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gallium/internal/ir"
	"gallium/internal/lang"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestSeverityStringAndJSON(t *testing.T) {
	for _, s := range []Severity{Info, Warning, Error} {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back Severity
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != s {
			t.Errorf("severity %s did not round-trip: got %s", s, back)
		}
	}
	var bad Severity
	if err := bad.UnmarshalJSON([]byte(`"fatal"`)); err == nil {
		t.Error("unknown severity name unmarshalled without error")
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Check: CheckDeadStore, Severity: Warning,
		Message: "result is never read", Fn: "lb", Stmt: 7, Line: 12,
	}
	got := d.String()
	want := "12: warning [lint/dead-store] result is never read (in lb, s7)"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	// Program-level: no line, no statement.
	d = Diagnostic{Check: CheckSwitchMemory, Severity: Error, Message: "over budget", Stmt: -1}
	if got := d.String(); got != "error [verify/switch-memory] over budget" {
		t.Errorf("String() = %q", got)
	}
}

func TestDiagnosticsSortAndQueries(t *testing.T) {
	ds := Diagnostics{
		{Check: CheckDeadStore, Severity: Warning, Line: 3},
		{Check: CheckCoverage, Severity: Error, Line: 9},
		{Check: CheckMetadataCarry, Severity: Error, Line: 2},
	}
	ds.Sort()
	if ds[0].Check != CheckCoverage || ds[1].Check != CheckMetadataCarry || ds[2].Check != CheckDeadStore {
		t.Errorf("sort order wrong: %v", ds)
	}
	if !ds.HasErrors() || ds.CountAtLeast(Error) != 2 || ds.CountAtLeast(Warning) != 3 {
		t.Errorf("counts wrong: errors=%d atleast-warning=%d", ds.CountAtLeast(Error), ds.CountAtLeast(Warning))
	}
	if got := ds.ByCheck(CheckMetadataCarry); len(got) != 1 || got[0].Line != 2 {
		t.Errorf("ByCheck = %v", got)
	}
}

func TestChecksRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Checks() {
		if seen[c.ID] {
			t.Errorf("duplicate check ID %s", c.ID)
		}
		seen[c.ID] = true
		if !strings.HasPrefix(c.ID, "verify/") && !strings.HasPrefix(c.ID, "lint/") &&
			!strings.HasPrefix(c.ID, "affinity/") && !strings.HasPrefix(c.ID, "interval/") {
			t.Errorf("check ID %s has no family prefix", c.ID)
		}
		if c.Doc == "" || c.Paper == "" {
			t.Errorf("check %s is undocumented", c.ID)
		}
		if checkSeverity(c.ID) != c.Severity {
			t.Errorf("checkSeverity(%s) disagrees with registry", c.ID)
		}
	}
}

// buildProg wraps a hand-built function into a finalized program.
func buildProg(b *ir.Builder, globals ...*ir.Global) *ir.Program {
	fn := b.Fn()
	fn.Finalize()
	return &ir.Program{Name: fn.Name, Globals: globals, Fn: fn}
}

func TestLintUseBeforeDef(t *testing.T) {
	b := ir.NewBuilder("ubd")
	x := b.NewReg("x", ir.U32) // never written
	b.StoreHeader("ip.saddr", x)
	b.Send()
	ds := Lint(buildProg(b))
	if got := ds.ByCheck(CheckUseBeforeDef); len(got) != 1 || got[0].Severity != Error {
		t.Fatalf("want one use-before-def error, got:\n%s", ds.Render("ubd"))
	}
}

func TestLintUseBeforeDefOneArmOnly(t *testing.T) {
	// x is defined on the then-arm only; the join's read is a may-miss.
	b := ir.NewBuilder("arm")
	c := b.Const("c", ir.Bool, 1)
	x := b.NewReg("x", ir.U32)
	then := b.NewBlock()
	join := b.NewBlock()
	b.Branch(c, then, join)
	b.SetBlock(then)
	b.Cur().Instrs = append(b.Cur().Instrs, ir.Instr{Kind: ir.Const, Dst: []ir.Reg{x}, Typ: ir.U32, Imm: 5})
	b.Jump(join)
	b.SetBlock(join)
	b.StoreHeader("ip.saddr", x)
	b.Send()
	ds := Lint(buildProg(b))
	if len(ds.ByCheck(CheckUseBeforeDef)) != 1 {
		t.Fatalf("one-arm definition not flagged:\n%s", ds.Render("arm"))
	}
}

func TestLintDeadStore(t *testing.T) {
	b := ir.NewBuilder("dead")
	b.LoadHeader("x", "ip.saddr", ir.U32) // result never read
	b.Send()
	ds := Lint(buildProg(b))
	if got := ds.ByCheck(CheckDeadStore); len(got) != 1 || got[0].Severity != Warning {
		t.Fatalf("want one dead-store warning, got:\n%s", ds.Render("dead"))
	}
}

// TestLintDeadStoreReadOnOneArm: a value read on only one arm of a later
// branch is live after its definition, so it is no dead store.
func TestLintDeadStoreReadOnOneArm(t *testing.T) {
	b := ir.NewBuilder("onearm")
	x := b.LoadHeader("x", "ip.saddr", ir.U32)
	k := b.LoadHeader("k", "ip.proto", ir.U8)
	c := b.BinOp("c", ir.Eq, k, k)
	then, els := b.NewBlock(), b.NewBlock()
	b.Branch(c, then, els)
	b.SetBlock(then)
	b.StoreHeader("ip.daddr", x)
	b.Send()
	b.SetBlock(els)
	b.Drop()
	if ds := Lint(buildProg(b)); len(ds.ByCheck(CheckDeadStore)) != 0 {
		t.Fatalf("value read on one arm flagged as a dead store:\n%s", ds.Render("onearm"))
	}
}

// TestLintDeadStoreReadNextIteration: a loop-carried value written at the
// bottom of the body is read only by the loop head on the next
// iteration, so it is no dead store.
func TestLintDeadStoreReadNextIteration(t *testing.T) {
	b := ir.NewBuilder("carried")
	acc := b.Const("acc", ir.U32, 0)
	head, body, exit := b.NewBlock(), b.NewBlock(), b.NewBlock()
	b.Jump(head)
	b.SetBlock(head)
	c := b.BinOp("c", ir.Lt, acc, b.Const("ten", ir.U32, 10))
	b.Branch(c, body, exit)
	b.SetBlock(body)
	next := b.BinOp("next", ir.Add, acc, b.Const("one", ir.U32, 1))
	body.Instrs = append(body.Instrs, ir.Instr{Kind: ir.Convert, Dst: []ir.Reg{acc}, Args: []ir.Reg{next}, Typ: ir.U32})
	b.Jump(head)
	b.SetBlock(exit)
	b.Send()
	if ds := Lint(buildProg(b)); len(ds.ByCheck(CheckDeadStore)) != 0 {
		t.Fatalf("value read on the next iteration flagged as a dead store:\n%s", ds.Render("carried"))
	}
}

func TestLintUnreachableBlock(t *testing.T) {
	b := ir.NewBuilder("unreach")
	orphan := b.NewBlock()
	b.Send()
	b.SetBlock(orphan)
	x := b.LoadHeader("x", "ip.saddr", ir.U32)
	b.StoreHeader("ip.daddr", x)
	b.Drop()
	ds := Lint(buildProg(b))
	if len(ds.ByCheck(CheckUnreachableBlock)) != 1 {
		t.Fatalf("orphan block not flagged:\n%s", ds.Render("unreach"))
	}
}

func TestLintUnusedGlobal(t *testing.T) {
	g := &ir.Global{Name: "stale", Kind: ir.KindMap,
		KeyTypes: []ir.Type{ir.U16}, ValTypes: []ir.Type{ir.U32}, MaxEntries: 64}
	b := ir.NewBuilder("unused")
	b.Send()
	ds := Lint(buildProg(b, g))
	if len(ds.ByCheck(CheckUnusedGlobal)) != 1 {
		t.Fatalf("unused global not flagged:\n%s", ds.Render("unused"))
	}
}

func TestLintUncheckedMapMiss(t *testing.T) {
	g := &ir.Global{Name: "m", Kind: ir.KindMap,
		KeyTypes: []ir.Type{ir.U16}, ValTypes: []ir.Type{ir.U32}, MaxEntries: 64}
	b := ir.NewBuilder("miss")
	k := b.LoadHeader("k", "l4.sport", ir.U16)
	_, vals := b.MapFind("m", g, k)
	b.StoreHeader("ip.daddr", vals[0]) // found flag never tested
	b.Send()
	ds := Lint(buildProg(b, g))
	if len(ds.ByCheck(CheckUncheckedMapMiss)) != 1 {
		t.Fatalf("unchecked miss not flagged:\n%s", ds.Render("miss"))
	}
}

func TestLintWidthTruncation(t *testing.T) {
	b := ir.NewBuilder("trunc")
	x := b.LoadHeader("x", "ip.saddr", ir.U32)
	b.StoreHeader("l4.sport", x) // 32-bit value into a 16-bit field
	b.Send()
	ds := Lint(buildProg(b))
	got := ds.ByCheck(CheckIntervalTruncation)
	if len(got) != 1 {
		t.Fatalf("truncating store not flagged:\n%s", ds.Render("trunc"))
	}
	if len(got[0].Notes) == 0 {
		t.Fatalf("truncation diagnostic has no derivation notes: %+v", got[0])
	}
}

// TestLintWidthTruncationMaskedValueClean pins the precision win over
// the old lint/width-truncation type heuristic: a u32 register provably
// masked below the field maximum is not a truncation.
func TestLintWidthTruncationMaskedValueClean(t *testing.T) {
	b := ir.NewBuilder("masked")
	x := b.LoadHeader("x", "ip.saddr", ir.U32)
	m := b.Const("m", ir.U32, 0xFF)
	lo := b.BinOp("lo", ir.And, x, m)
	b.StoreHeader("ip.tos", lo) // wide register, narrow proven range
	b.Send()
	ds := Lint(buildProg(b))
	if got := ds.ByCheck(CheckIntervalTruncation); len(got) != 0 {
		t.Fatalf("masked store flagged:\n%s", ds.Render("masked"))
	}
}

// TestLintWidthTruncationUnreachableClean: a truncating store on a
// statically infeasible path is not reported.
func TestLintWidthTruncationUnreachableClean(t *testing.T) {
	b := ir.NewBuilder("deadpath")
	then := b.NewBlock()
	els := b.NewBlock()
	one := b.Const("one", ir.U32, 1)
	two := b.Const("two", ir.U32, 2)
	cond := b.BinOp("cond", ir.Gt, one, two)
	wide := b.LoadHeader("wide", "ip.saddr", ir.U32)
	b.Branch(cond, then, els)
	b.SetBlock(then)
	b.StoreHeader("ip.tos", wide)
	b.Send()
	b.SetBlock(els)
	b.Send()
	ds := Lint(buildProg(b))
	if got := ds.ByCheck(CheckIntervalTruncation); len(got) != 0 {
		t.Fatalf("store on infeasible path flagged:\n%s", ds.Render("deadpath"))
	}
}

// TestLintAffinityCertificateInfo: Lint surfaces the per-map affinity
// verdict as an info-severity diagnostic.
func TestLintAffinityCertificateInfo(t *testing.T) {
	g := &ir.Global{Name: "m", Kind: ir.KindMap, KeyTypes: []ir.Type{ir.U8}, ValTypes: []ir.Type{ir.U32}, MaxEntries: 64}
	b := ir.NewBuilder("cert")
	k := b.LoadHeader("k", "ip.ttl", ir.U8)
	v := b.LoadHeader("v", "ip.saddr", ir.U32)
	b.MapInsert(g, []ir.Reg{k}, []ir.Reg{v})
	b.Send()
	ds := Lint(buildProg(b, g))
	got := ds.ByCheck(CheckAffinityCertificate)
	if len(got) != 1 || got[0].Severity != Info {
		t.Fatalf("want one affinity/certificate info, got:\n%s", ds.Render("cert"))
	}
	if !strings.Contains(got[0].Message, "cross-flow") {
		t.Fatalf("certificate verdict missing from message: %s", got[0].Message)
	}
}

// lintFixtureSource deliberately trips several lint checks at known
// source lines; the JSON golden file pins both the findings and the
// report schema.
const lintFixtureSource = `
middlebox fixture {
    map<u16 -> u32> table(max = 256);
    map<u16 -> u32> ghost(max = 16);

    proc process(pkt p) {
        u32 wasted = p.ip.saddr;
        let r = table.find(p.l4.sport);
        p.ip.daddr = r.v0;
        send(p);
    }
}
`

func TestDiagnosticsJSONGolden(t *testing.T) {
	prog, err := lang.Compile(lintFixtureSource)
	if err != nil {
		t.Fatal(err)
	}
	ds := Lint(prog)
	if len(ds) == 0 {
		t.Fatal("fixture produced no diagnostics")
	}
	got, err := ds.JSON("fixture")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "lint_fixture.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if string(got) != string(want) {
		t.Errorf("JSON report drifted from golden file:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestVerifyNilResult pins the degenerate-input behavior.
func TestVerifyNilResult(t *testing.T) {
	ds := Verify(nil)
	if !ds.HasErrors() || ds[0].Check != CheckCFGShape {
		t.Fatalf("nil result should fail cfg-shape, got:\n%s", ds.Render("nil"))
	}
}
