// Package partition implements Gallium's core contribution (§4.2): it
// splits a middlebox IR program into a pre-processing partition, a
// non-offloaded partition, and a post-processing partition such that
//
//   - the dependency structure of the input is preserved (functional
//     equivalence),
//   - the pre/post partitions only use what P4 can express, and
//   - the switch's resource constraints (memory, pipeline depth,
//     one-access-per-table, per-packet metadata, transfer budget) hold.
//
// The algorithm is the paper's label-removing scheme: every statement
// starts with the label set {pre, non_off, post} (or {non_off} when P4
// cannot express it), labels are removed to a fixpoint under rules (1)-(5)
// of §4.2.1, then resource constraints peel further labels (§4.2.2), and
// finally statements are assigned: pre ∈ L → pre-processing, else post ∈ L
// → post-processing, else non-offloaded.
package partition

import (
	"fmt"

	"gallium/internal/analysis/dataflow"
	"gallium/internal/deps"
	"gallium/internal/ir"
	"gallium/internal/packet"
)

// ID identifies a partition. The numeric order is execution order.
type ID int

// Partitions in pipeline order.
const (
	Pre ID = iota
	NonOff
	Post
)

// String implements fmt.Stringer.
func (p ID) String() string {
	switch p {
	case Pre:
		return "pre"
	case NonOff:
		return "non_off"
	case Post:
		return "post"
	}
	return fmt.Sprintf("partition(%d)", int(p))
}

// LabelSet is a bitmask of candidate partitions for one statement.
type LabelSet uint8

// Labels.
const (
	LPre LabelSet = 1 << iota
	LNonOff
	LPost

	LAll = LPre | LNonOff | LPost
)

// Has reports whether l contains lbl.
func (l LabelSet) Has(lbl LabelSet) bool { return l&lbl != 0 }

// String implements fmt.Stringer.
func (l LabelSet) String() string {
	s := "{"
	if l.Has(LPre) {
		s += "pre,"
	}
	if l.Has(LNonOff) {
		s += "non,"
	}
	if l.Has(LPost) {
		s += "post,"
	}
	if len(s) > 1 {
		s = s[:len(s)-1]
	}
	return s + "}"
}

// Constraints models the programmable switch's resources (§2.2, §4.2.2).
type Constraints struct {
	// SwitchMemoryBytes bounds total offloaded global state (Constraint 1).
	// Today's switches have a few tens of MBs.
	SwitchMemoryBytes int
	// PipelineDepth bounds the longest dependency chain in offloaded code
	// (Constraint 2); physical switches have ~10-20 match-action stages.
	PipelineDepth int
	// MetadataBytes bounds per-packet scratchpad state (Constraint 4).
	MetadataBytes int
	// TransferBytes bounds the synthesized header carrying state between
	// switch and server (Constraint 5); the paper fixes 20 bytes.
	TransferBytes int

	// WeightedObjective enables the cost model sketched in §7
	// ("Cost model of offloading"): instead of maximizing the *number* of
	// offloaded statements, the constraint-3 placement search maximizes
	// their summed weight, where a table lookup is worth far more than an
	// integer ALU operation. The paper notes the unweighted objective can
	// prefer offloading an addition over a lookup; this fixes that.
	WeightedObjective bool

	// DisaggregatedRMT relaxes label rules 3/4 (one access per global on
	// the switch), as the paper's footnote 2 permits for dRMT targets
	// where match-action memory is disaggregated from the pipeline.
	DisaggregatedRMT bool

	// NoRematerialization disables re-loading unmodified header fields on
	// the consumer side of a partition boundary, transferring them in the
	// synthesized header instead. Exists to ablate the rematerialization
	// design choice (DESIGN.md): without it, transfer budgets inflate and
	// Constraint 5 pushes more code to the server.
	NoRematerialization bool

	// CacheEntries implements §7's "Reducing memory usage of programmable
	// switches": the named maps keep only this many entries on the switch
	// (a cache of the server's authoritative table). A packet whose
	// lookup misses the cache is punted to the server, which runs the
	// full middlebox; entries fill on demand and evict FIFO. Constraint 1
	// then charges only the cache's size.
	CacheEntries map[string]int
}

// CacheFor returns the cache capacity for a global, or 0 when it is fully
// resident.
func (c Constraints) CacheFor(name string) int {
	return c.CacheEntries[name]
}

// EffectiveSizeBytes is a global's switch memory footprint under the
// cache configuration.
func (c Constraints) EffectiveSizeBytes(g *ir.Global) int {
	if g.Kind == ir.KindMap {
		if cap := c.CacheFor(g.Name); cap > 0 && cap < g.MaxEntries {
			capped := *g
			capped.MaxEntries = cap
			return capped.SizeBytes()
		}
	}
	return g.SizeBytes()
}

// DefaultConstraints returns the values used throughout the evaluation,
// matching the paper's Tofino-era assumptions.
func DefaultConstraints() Constraints {
	return Constraints{
		SwitchMemoryBytes: 16 << 20, // 16 MiB of match-action/register memory
		// The paper bounds the offloaded dependency chain by an
		// empirically chosen conservative value (§4.2.2 fn. 3). Physical
		// stages number 10-20, but each stage executes several dependent
		// primitives (match + action + ALU), and our IR counts every
		// statement in the chain, so the equivalent statement-level bound
		// is larger.
		PipelineDepth: 32,
		MetadataBytes: 64,
		TransferBytes: packet.MaxTransferBytes,
	}
}

// TransferVar is one synthesized header field: a register value moving
// across a partition boundary.
type TransferVar struct {
	Name string
	Reg  ir.Reg
	Bits int
	// Slot is the variable's 1-based index into the flat per-packet
	// transfer scratchpad ([]uint64). Transfer names are register-keyed,
	// so a register crossing both boundaries shares one slot between
	// TransferA and TransferB.
	Slot int
}

// XferCodec compiles vars' layout in their header format f once, for a
// scratchpad of slots words (Result.NumXferSlots). A variable f lacks, or
// one without a compiled slot (unreachable for compiler-produced Results),
// is an error; the codec returned with it fails every call, touching no
// packet, so a runtime whose constructor cannot fail reports it on the
// first packet that carries the header.
func XferCodec(vars []TransferVar, f *packet.HeaderFormat, slots int) (*packet.Codec, error) {
	binds := make([]packet.Bind, len(vars))
	for i, v := range vars {
		binds[i] = packet.Bind{Field: v.Name, Slot: v.Slot - 1}
	}
	return packet.NewCodec(f, binds, slots)
}

// Result is the partitioner's output: per-statement assignment, the three
// executable partition functions, the synthesized transfer formats, and
// accounting for the resource report.
type Result struct {
	Prog *ir.Program
	// Cons records the constraint set the result was produced under
	// (the runtimes read the cache configuration from it).
	Cons   Constraints
	Graph  *deps.Graph
	Labels []LabelSet
	Assign []ID

	// PreFn and PostFn run on the switch; SrvFn runs on the server.
	PreFn, SrvFn, PostFn *ir.Function

	// TransferA is the pre→server header content; TransferB the
	// server→post content.
	TransferA, TransferB []TransferVar
	// FormatA and FormatB are the wire formats (Figure 5).
	FormatA, FormatB *packet.HeaderFormat
	// XferSlots maps each transfer-variable name to its 1-based
	// scratchpad slot; NumXferSlots is the scratchpad length the runtimes
	// size their per-packet []uint64 with.
	XferSlots    map[string]int
	NumXferSlots int

	// OffloadedGlobals lists globals resident on the switch, and
	// SwitchAccess maps each to the single statement ID whose access runs
	// there (Constraint 3).
	OffloadedGlobals []string
	SwitchAccess     map[string]int

	// Affinity is the flow-affinity certificate derived from the input
	// program: per-map key-provenance verdicts plus data-path scalar
	// writes. difftest cross-checks it against the generator's declared
	// ShardSafe bit, Session picks exact vs. relaxed multi-worker state
	// merging with it, and the verifier re-derives it to catch
	// affinity-breaking transformations (affinity/* checks).
	Affinity *dataflow.Affinity

	// Report carries resource accounting.
	Report Report
}

// Report summarizes what the partitioner produced.
type Report struct {
	NumStmts                int
	NumPre, NumSrv, NumPost int
	SwitchMemoryBytes       int
	MaxMetadataBits         int
	TransferABytes          int
	TransferBBytes          int
	DepthPre, DepthPost     int
}

// OffloadFraction is the fraction of statements assigned to the switch.
func (r Report) OffloadFraction() float64 {
	if r.NumStmts == 0 {
		return 0
	}
	return float64(r.NumPre+r.NumPost) / float64(r.NumStmts)
}

// Partition runs the full pipeline on p.
func Partition(p *ir.Program, c Constraints) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("partition: invalid input: %w", err)
	}
	g := deps.Build(p)
	res := &Result{Prog: p, Graph: g, Cons: c}

	// §4.2.1: expressiveness-driven labels to fixpoint.
	labels := initialLabels(p, g)
	applyRulesFixpoint(g, labels, c)

	// §4.2.2: resource constraints.
	if err := enforceDepth(g, labels, c); err != nil {
		return nil, err
	}
	if err := enforceMemory(p, g, labels, c); err != nil {
		return nil, err
	}
	switchAccess := enforceSingleAccess(p, g, labels, c)
	if err := enforceMetaAndTransfer(p, g, labels, c, switchAccess); err != nil {
		return nil, err
	}

	res.Labels = labels
	res.Assign = assign(labels)

	// Defensive invariant: if a terminator executes on the server (only
	// possible for loop-bound code), no post-assigned statement may
	// precede it on a path — the packet would leave before the post pass.
	for _, t := range p.Fn.Stmts() {
		if (t.Kind != ir.Send && t.Kind != ir.Drop) || res.Assign[t.ID] != NonOff {
			continue
		}
		for _, s := range p.Fn.Stmts() {
			if res.Assign[s.ID] == Post && g.CanHappenAfter(s.ID, t.ID) {
				return nil, fmt.Errorf("partition: internal error: post statement %d precedes server terminator %d", s.ID, t.ID)
			}
		}
	}

	// Recompute the per-global switch access against the final assignment
	// (moving statements during constraints 4/5 may have stripped the
	// chosen access).
	res.SwitchAccess = map[string]int{}
	for id, a := range res.Assign {
		if a == NonOff {
			continue
		}
		s := p.Fn.Stmt(id)
		if gn := deps.GlobalAccessed(s); gn != "" {
			if prev, dup := res.SwitchAccess[gn]; dup && prev != id {
				if !c.DisaggregatedRMT {
					return nil, fmt.Errorf("partition: global %q offloaded at two statements (%d, %d)", gn, prev, id)
				}
				continue // dRMT target: several accesses allowed; record the first
			}
			res.SwitchAccess[gn] = id
		}
	}
	for gn := range res.SwitchAccess {
		res.OffloadedGlobals = append(res.OffloadedGlobals, gn)
	}
	sortStrings(res.OffloadedGlobals)

	if err := buildSplit(res); err != nil {
		return nil, err
	}
	res.Affinity = dataflow.AnalyzeAffinity(p)
	fillReport(res, c)
	return res, nil
}

// assign maps final label sets to partitions: pre if possible, else post,
// else the server (§4.2.2 end; the pre-preference matches Figure 3/4).
func assign(labels []LabelSet) []ID {
	out := make([]ID, len(labels))
	for i, l := range labels {
		switch {
		case l.Has(LPre):
			out[i] = Pre
		case l.Has(LPost):
			out[i] = Post
		default:
			out[i] = NonOff
		}
	}
	return out
}

func fillReport(res *Result, c Constraints) {
	r := &res.Report
	r.NumStmts = res.Prog.Fn.NumStmts
	for _, a := range res.Assign {
		switch a {
		case Pre:
			r.NumPre++
		case NonOff:
			r.NumSrv++
		case Post:
			r.NumPost++
		}
	}
	for _, gn := range res.OffloadedGlobals {
		r.SwitchMemoryBytes += c.EffectiveSizeBytes(res.Prog.Global(gn))
	}
	r.MaxMetadataBits = maxMetaBits(res.PreFn, res.PostFn)
	r.TransferABytes = res.FormatA.DataLen()
	r.TransferBBytes = res.FormatB.DataLen()
	r.DepthPre = partitionDepth(res.Graph, res.Assign, Pre)
	r.DepthPost = partitionDepth(res.Graph, res.Assign, Post)
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
