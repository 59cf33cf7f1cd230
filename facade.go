// Package gallium is the single entry point to the Gallium toolchain: it
// compiles a MiniClick middlebox, partitions it across a programmable
// switch and a middlebox server (the paper's §4 pipeline), generates the
// deployable P4 and server programs, and runs the result.
//
// The facade replaces hand-wiring lang.Compile → partition.Partition →
// p4.Generate/servergen.Generate in every caller:
//
//	art, err := gallium.Compile(src, gallium.Options{})
//	tb, err := art.NewTestbed(gallium.TestbedConfig{}, gallium.WithMode(gallium.Offloaded))
//
// Compiled artifacts run three ways, from lowest-level to highest:
// NewTestbed for the sequential virtual-time simulator (Inject,
// Reconfigure — the differential-test oracle; under engine.InstantModel
// it moves packets with no timing at all), Run for a one-shot batch
// through the concurrent engine, and Open for a long-lived Session with
// live reconfiguration (Feed, Reconfigure, Stats, Serve). All three take
// the same Options, reconfigure with the same typed operations and
// report the same Report. Chain composes
// several compiled middleboxes into one pipeline served by a single
// engine pass.
package gallium

import (
	"fmt"
	"os"
	"strings"

	"gallium/internal/analysis"
	"gallium/internal/ir"
	"gallium/internal/lang"
	"gallium/internal/middleboxes"
	"gallium/internal/p4"
	"gallium/internal/partition"
	"gallium/internal/servergen"
)

// Options tunes the partitioner. The zero value means "paper defaults"
// throughout; the pointer fields distinguish "not set" from an explicit
// zero, so Options{PipelineDepth: gallium.Int(0)} is a real (and
// rejected-by-the-partitioner) request rather than a silent default.
type Options struct {
	// PipelineDepth bounds the longest offloaded dependency chain
	// (Constraint 2). Nil uses the default.
	PipelineDepth *int
	// TransferBytes bounds the synthesized switch↔server header
	// (Constraint 5). Nil uses the paper's 20 bytes.
	TransferBytes *int
	// SwitchMemoryBytes bounds offloaded state (Constraint 1).
	SwitchMemoryBytes *int
	// MetadataBytes bounds per-packet scratchpad state (Constraint 4).
	MetadataBytes *int
	// WeightedObjective enables the §7 weighted offloading objective.
	WeightedObjective bool
	// DisaggregatedRMT relaxes label rules 3/4 for dRMT targets.
	DisaggregatedRMT bool
	// NoRematerialization ablates rematerialization (DESIGN.md).
	NoRematerialization bool
	// CacheEntries runs the named map tables in §7 cache mode with the
	// given switch-resident entry counts.
	CacheEntries map[string]int
	// Verify runs the static-analysis layer (internal/analysis) over the
	// input program and the partitioner output before generating
	// artifacts. Error-severity diagnostics abort the compile with a
	// *VerifyError; surviving warnings land in Artifacts.Diagnostics.
	Verify bool
}

// Int returns a pointer to v, for the Options override fields.
func Int(v int) *int { return &v }

// Constraints resolves the options against the partitioner defaults.
func (o Options) Constraints() partition.Constraints {
	cons := partition.DefaultConstraints()
	if o.PipelineDepth != nil {
		cons.PipelineDepth = *o.PipelineDepth
	}
	if o.TransferBytes != nil {
		cons.TransferBytes = *o.TransferBytes
	}
	if o.SwitchMemoryBytes != nil {
		cons.SwitchMemoryBytes = *o.SwitchMemoryBytes
	}
	if o.MetadataBytes != nil {
		cons.MetadataBytes = *o.MetadataBytes
	}
	cons.WeightedObjective = o.WeightedObjective
	cons.DisaggregatedRMT = o.DisaggregatedRMT
	cons.NoRematerialization = o.NoRematerialization
	if len(o.CacheEntries) > 0 {
		cons.CacheEntries = o.CacheEntries
	}
	return cons
}

// Artifacts is everything Compile produces for one middlebox: the IR, the
// three-way partition, and the two deployable programs.
type Artifacts struct {
	// Name is the middlebox name (from the IR program).
	Name string
	// Source is the MiniClick input.
	Source string
	// Prog is the compiled IR.
	Prog *ir.Program
	// Res is the partitioner output: pre/server/post functions, transfer
	// formats, offloaded globals, and the resource report.
	Res *partition.Result
	// P4 is the generated switch program.
	P4 *p4.Program
	// Server is the generated DPDK-style server program.
	Server *servergen.Program
	// Diagnostics holds the analysis report when Options.Verify was set
	// (warnings and infos only — errors abort Compile).
	Diagnostics analysis.Diagnostics
}

// VerifyError aborts Compile when Options.Verify finds error-severity
// diagnostics: the lint rejected the input program, or the partition
// verifier refused to sign off on the partitioner's output. Artifact
// generation never runs in either case.
type VerifyError struct {
	// Name is the middlebox the diagnostics refer to.
	Name string
	// Diagnostics is the full report, errors first.
	Diagnostics analysis.Diagnostics
}

// Error summarizes the report; VerifyError.Diagnostics has the findings.
func (e *VerifyError) Error() string {
	return fmt.Sprintf("%s: verification failed with %d error(s)\n%s",
		e.Name, e.Diagnostics.CountAtLeast(analysis.Error),
		strings.TrimRight(e.Diagnostics.Render(e.Name), "\n"))
}

// Compile runs the full pipeline over MiniClick source: parse and lower to
// IR, partition under the (possibly overridden) resource constraints, and
// generate both deployable artifacts.
func Compile(src string, opts Options) (*Artifacts, error) {
	prog, err := lang.Compile(src)
	if err != nil {
		return nil, err
	}
	res, err := partition.Partition(prog, opts.Constraints())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", prog.Name, err)
	}
	var diags analysis.Diagnostics
	if opts.Verify {
		diags = append(analysis.Lint(prog), analysis.Verify(res)...)
		diags.Sort()
		if diags.HasErrors() {
			return nil, &VerifyError{Name: prog.Name, Diagnostics: diags}
		}
	}
	p4prog, err := p4.Generate(res)
	if err != nil {
		return nil, fmt.Errorf("%s: p4: %w", prog.Name, err)
	}
	srv := servergen.Generate(res)
	return &Artifacts{
		Name:        prog.Name,
		Source:      src,
		Prog:        prog,
		Res:         res,
		P4:          p4prog,
		Server:      srv,
		Diagnostics: diags,
	}, nil
}

// CompileBuiltin compiles one of the built-in evaluation middleboxes by
// name (see Builtins).
func CompileBuiltin(name string, opts Options) (*Artifacts, error) {
	spec, err := middleboxes.Lookup(name)
	if err != nil {
		return nil, err
	}
	return Compile(spec.Source, opts)
}

// CompileTarget compiles a .mc source file (by path) or a built-in
// middlebox (by name) — the CLI's argument convention.
func CompileTarget(target string, opts Options) (*Artifacts, error) {
	if strings.HasSuffix(target, ".mc") {
		data, err := os.ReadFile(target)
		if err != nil {
			return nil, err
		}
		return Compile(string(data), opts)
	}
	if _, err := middleboxes.Lookup(target); err != nil {
		return nil, fmt.Errorf("%q is neither a .mc file nor a built-in middlebox", target)
	}
	return CompileBuiltin(target, opts)
}

// Builtins returns the names CompileBuiltin accepts: the paper five, the
// scenario-diversity set (tunlb, synproxy, mssclamp, firewall6), minilb,
// ipgateway and ddosdetector.
func Builtins() []string {
	var names []string
	for _, s := range middleboxes.Builtins() {
		names = append(names, s.Name)
	}
	return names
}
