package gallium_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gallium"
	"gallium/internal/analysis"
	"gallium/internal/engine"
	"gallium/internal/middleboxes"
	"gallium/internal/obs"
	"gallium/internal/packet"
)

func TestCompileProducesAllArtifacts(t *testing.T) {
	art, err := gallium.Compile(middleboxes.MiniLBSource, gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if art.Name != "minilb" {
		t.Errorf("Name = %q, want minilb", art.Name)
	}
	if art.Prog == nil || art.Res == nil || art.P4 == nil || art.Server == nil {
		t.Fatalf("incomplete artifacts: %+v", art)
	}
	if art.Source != middleboxes.MiniLBSource {
		t.Error("Source not preserved")
	}
	if art.P4.LinesOfCode() == 0 || art.Server.LinesOfCode() == 0 {
		t.Error("generated programs are empty")
	}
}

// The pointer fields distinguish "unset" from an explicit zero: the zero
// Options value must compile fine, while Int(0) must reach the partitioner
// and be rejected there.
func TestOptionsPointerPresence(t *testing.T) {
	if _, err := gallium.Compile(middleboxes.MiniLBSource, gallium.Options{}); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	_, err := gallium.Compile(middleboxes.MiniLBSource, gallium.Options{PipelineDepth: gallium.Int(0)})
	if err == nil || !strings.Contains(err.Error(), "pipeline depth") {
		t.Fatalf("explicit depth 0 not rejected: %v", err)
	}
	// A tight transfer budget must also flow through: with 1 byte the
	// partitioner cannot ship intermediate values, so less offloads.
	def, err := gallium.Compile(middleboxes.MazuNATSource, gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := gallium.Compile(middleboxes.MazuNATSource, gallium.Options{TransferBytes: gallium.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Res.Report.NumPre+tight.Res.Report.NumPost >= def.Res.Report.NumPre+def.Res.Report.NumPost {
		t.Errorf("1-byte transfer budget did not reduce offloading: tight=%d default=%d",
			tight.Res.Report.NumPre+tight.Res.Report.NumPost,
			def.Res.Report.NumPre+def.Res.Report.NumPost)
	}
}

func TestCompileBuiltinAndTarget(t *testing.T) {
	if _, err := gallium.CompileBuiltin("firewall", gallium.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := gallium.CompileBuiltin("nosuchbox", gallium.Options{}); err == nil {
		t.Fatal("unknown builtin accepted")
	}

	// CompileTarget: a .mc file on disk...
	dir := t.TempDir()
	path := filepath.Join(dir, "box.mc")
	if err := os.WriteFile(path, []byte(middleboxes.MiniLBSource), 0o644); err != nil {
		t.Fatal(err)
	}
	art, err := gallium.CompileTarget(path, gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if art.Name != "minilb" {
		t.Errorf("file target name = %q", art.Name)
	}
	// ...a builtin by name...
	if _, err := gallium.CompileTarget("proxy", gallium.Options{}); err != nil {
		t.Fatal(err)
	}
	// ...and anything else is a clear error.
	if _, err := gallium.CompileTarget("bogus", gallium.Options{}); err == nil {
		t.Fatal("bogus target accepted")
	}
}

// TestBuiltinsListsEveryMiddlebox: Builtins names each middlebox Lookup
// accepts exactly once, and nothing else, and each of them compiles.
func TestBuiltinsListsEveryMiddlebox(t *testing.T) {
	names := gallium.Builtins()
	have := make(map[string]bool, len(names))
	for _, n := range names {
		if have[n] {
			t.Errorf("Builtins() lists %q twice", n)
		}
		have[n] = true
	}
	every := []string{"minilb", "ipgateway", "ddosdetector", "mazunat", "l4lb", "firewall", "proxy",
		"trojandetector", "tunlb", "synproxy", "mssclamp", "firewall6"}
	for _, want := range every {
		if _, err := middleboxes.Lookup(want); err != nil {
			t.Errorf("Lookup(%q): %v", want, err)
		}
		if !have[want] {
			t.Errorf("Builtins() missing %q (got %v)", want, names)
		}
	}
	if len(names) != len(every) {
		t.Errorf("Builtins() lists %d names, want the %d Lookup accepts: %v", len(names), len(every), names)
	}
	for _, n := range names {
		if _, err := gallium.CompileBuiltin(n, gallium.Options{}); err != nil {
			t.Errorf("builtin %s does not compile: %v", n, err)
		}
	}
}

func TestParseMode(t *testing.T) {
	if m, err := gallium.ParseMode("offloaded"); err != nil || m != gallium.Offloaded {
		t.Errorf("offloaded: %v %v", m, err)
	}
	if m, err := gallium.ParseMode("software"); err != nil || m != gallium.Software {
		t.Errorf("software: %v %v", m, err)
	}
	m, err := gallium.ParseMode("hybrid")
	if err == nil {
		t.Error("bad mode accepted")
	}
	// The error must come with the zero Mode, never a real deployment: a
	// caller ignoring the error would otherwise silently run Offloaded.
	if m == gallium.Offloaded || m == gallium.Software {
		t.Errorf("ParseMode error returned live mode %v, want zero Mode", m)
	}
	if !strings.Contains(err.Error(), "offloaded") || !strings.Contains(err.Error(), "software") {
		t.Errorf("error %q does not name the valid modes", err)
	}
}

func TestModeString(t *testing.T) {
	if got := gallium.Offloaded.String(); got != "offloaded" {
		t.Errorf("Offloaded.String() = %q", got)
	}
	if got := gallium.Software.String(); got != "software" {
		t.Errorf("Software.String() = %q", got)
	}
	if got := gallium.Mode(0).String(); got != "mode(0)" {
		t.Errorf("zero Mode String() = %q", got)
	}
}

// End-to-end through the facade: compile, build an instrumented testbed,
// push traffic, and check the Snapshot carries the promised metrics.
func TestTestbedMetricsEndToEnd(t *testing.T) {
	art, err := gallium.CompileBuiltin("mazunat", gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	flows := []packet.FiveTuple{{
		SrcIP: packet.MakeIPv4Addr(10, 0, 1, 1), DstIP: packet.MakeIPv4Addr(20, 0, 0, 1),
		SrcPort: 3333, DstPort: 80, Proto: packet.IPProtocolTCP,
	}}
	reg := obs.NewRegistry()
	reg.EnableTracing(3)
	tb, err := art.NewTestbed(gallium.TestbedConfig{}, gallium.WithMode(gallium.Offloaded), gallium.WithWorkers(1),
		gallium.WithScenario(), gallium.WithFlows(flows), gallium.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	tup := flows[0]
	tNs := int64(0)
	for i := 0; i < 50; i++ {
		p := packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort, packet.TCPOptions{})
		if _, err := tb.Inject(tNs, p); err != nil {
			t.Fatal(err)
		}
		tNs += 200_000
	}

	snap := reg.Snapshot()
	if got := snap.Counters["engine.packets"]; got != 50 {
		t.Errorf("engine.packets = %d, want 50", got)
	}
	if snap.Counters["engine.delivered"] == 0 {
		t.Error("nothing delivered")
	}
	if snap.Counters["switch.fastpath"] == 0 {
		t.Error("established flow never took the fast path")
	}
	found := false
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "switch.table.") && strings.HasSuffix(name, ".hits") && v > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no per-table hit counter recorded")
	}
	lat, ok := snap.Histograms["engine.latency_ns"]
	if !ok || lat.Count == 0 {
		t.Fatalf("latency histogram missing or empty: %+v", lat)
	}
	if lat.P50 <= 0 || lat.P95 < lat.P50 || lat.P99 < lat.P95 {
		t.Errorf("quantiles out of order: p50=%v p95=%v p99=%v", lat.P50, lat.P95, lat.P99)
	}
	if n := len(reg.Tracer().Traces()); n != 3 {
		t.Errorf("trace count = %d, want capacity 3", n)
	}
	if js, err := snap.JSON(); err != nil || len(js) == 0 {
		t.Errorf("snapshot JSON: %v", err)
	}

	// The same config with Metrics nil must still work (the zero-cost path).
	tb2, err := art.NewTestbed(gallium.TestbedConfig{}, gallium.WithMode(gallium.Offloaded), gallium.WithScenario(), gallium.WithFlows(flows))
	if err != nil {
		t.Fatal(err)
	}
	p := packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort, packet.TCPOptions{})
	if _, err := tb2.Inject(0, p); err != nil {
		t.Fatal(err)
	}
}

// TestScenarioSetupSeedsState: a timing-free testbed seeded with the
// scenario serves a new connection's first SYN on the server, and its
// write-back lets the next packet of the connection stay on the switch.
func TestScenarioSetupSeedsState(t *testing.T) {
	art, err := gallium.CompileBuiltin("l4lb", gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := art.NewTestbed(gallium.TestbedConfig{}, gallium.WithCostModel(engine.InstantModel()), gallium.WithScenario())
	if err != nil {
		t.Fatal(err)
	}
	for i, flags := range []uint8{packet.TCPFlagSYN, packet.TCPFlagACK} {
		p := packet.BuildTCP(packet.MakeIPv4Addr(172, 16, 0, 1), packet.MakeIPv4Addr(10, 0, 2, 2), 5000, 80,
			packet.TCPOptions{Flags: flags})
		d, err := tb.Inject(0, p)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Delivered || d.FastPath != (i == 1) {
			t.Errorf("packet %d: %+v, want delivered, fast path only once the SYN's write-back is visible", i, d)
		}
	}
}

// TestCompileVerifyCleanBuiltins runs every built-in middlebox through the
// full pipeline with the static-analysis layer gating artifact emission:
// the lint and the partition verifier must both sign off.
func TestCompileVerifyCleanBuiltins(t *testing.T) {
	for _, name := range gallium.Builtins() {
		t.Run(name, func(t *testing.T) {
			art, err := gallium.CompileBuiltin(name, gallium.Options{Verify: true})
			if err != nil {
				t.Fatalf("verified compile failed: %v", err)
			}
			if art.P4 == nil || art.Server == nil {
				t.Fatal("verification gated artifact emission on a clean program")
			}
			if art.Diagnostics.HasErrors() {
				t.Fatalf("error diagnostics survived a successful compile:\n%s",
					art.Diagnostics.Render(name))
			}
		})
	}
}

// TestCompileVerifyCleanExamples does the same for the .mc sources under
// examples/mc via the CLI's target convention.
func TestCompileVerifyCleanExamples(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("examples", "mc", "*.mc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example sources found")
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			art, err := gallium.CompileTarget(path, gallium.Options{Verify: true})
			if err != nil {
				t.Fatalf("verified compile failed: %v", err)
			}
			if art.P4 == nil {
				t.Fatal("no artifacts emitted")
			}
		})
	}
}

func TestCompileWithoutVerifySkipsAnalysis(t *testing.T) {
	art, err := gallium.Compile(middleboxes.MiniLBSource, gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if art.Diagnostics != nil {
		t.Errorf("analysis ran without Verify: %v", art.Diagnostics)
	}
}

// TestVerifyErrorMessage pins the error surface callers (and galliumc)
// rely on: the count and the rendered findings with their check IDs.
func TestVerifyErrorMessage(t *testing.T) {
	e := &gallium.VerifyError{
		Name: "mb",
		Diagnostics: analysis.Diagnostics{
			{Check: analysis.CheckCoverage, Severity: analysis.Error, Message: "statement lost", Stmt: -1},
		},
	}
	msg := e.Error()
	for _, want := range []string{"mb", "1 error(s)", analysis.CheckCoverage, "statement lost"} {
		if !strings.Contains(msg, want) {
			t.Errorf("VerifyError message %q missing %q", msg, want)
		}
	}
}
