package analysis

import (
	"fmt"

	"gallium/internal/analysis/dataflow"
	"gallium/internal/cfg"
	"gallium/internal/deps"
	"gallium/internal/ir"
	"gallium/internal/packet"
	"gallium/internal/partition"
)

// Verify is the partition verifier: a translation validator that checks
// a partitioner Result against the input program *without trusting the
// partitioner's own bookkeeping* (labels, assignment vector, resource
// report). Everything is re-derived from the emitted partition functions,
// the synthesized wire formats, and a fresh dependence graph:
//
//   - coverage & CFG shape: every input statement executes in exactly one
//     partition, and each partition preserves the input CFG with a valid
//     pre → server → post terminator-ownership pipeline;
//   - cross-partition dataflow: every value a partition consumes is
//     defined locally, carried in the transfer header, or rematerialized
//     from an unclobbered packet field; every hand-off path populates the
//     declared wire format;
//   - state discipline: switch partitions never write global state
//     (server-owned writes and write-back bypasses are reported under
//     separate IDs), reads never move across a server write to the same
//     global (stale-read window, DESIGN.md §4.3.3), and each global is
//     consulted at most once per switch pass;
//   - fast path: a packet the switch completes has no pending server-side
//     effects on any path reaching that terminator;
//   - resources: stage depth, switch memory, per-packet metadata, and
//     transfer budgets re-checked from scratch.
//
// All verifier diagnostics are error severity.
func Verify(res *partition.Result) Diagnostics {
	v := newVerifier(res)
	if v == nil {
		return Diagnostics{{
			Check: CheckCFGShape, Severity: Error, Stmt: -1,
			Message: "result is missing a program or partition function",
		}}
	}
	v.checkCFGShape()
	v.checkCoverage()
	v.checkSwitchInstrs()
	v.checkSingleAccess()
	v.checkCarries()
	v.checkHandoffs()
	v.checkStaleReads()
	v.checkRematClobber()
	v.checkFastPath()
	v.checkResources()
	v.checkExpirySafety()
	v.checkAffinity()
	v.ds.Sort()
	return v.ds
}

// vpart is one partition function in pipeline order.
type vpart struct {
	id partition.ID
	fn *ir.Function
}

type verifier struct {
	res   *partition.Result
	prog  *ir.Program
	cons  partition.Constraints
	parts []vpart // pre, srv, post

	graph *deps.Graph // rebuilt from the input program, not res.Graph
	reach [][]bool    // input-CFG block reachability

	// stmtPart maps input statement IDs to the partition that executes
	// them (content-matched; terminators resolved via ownership).
	stmtPart map[int]partition.ID
	// termOwner maps a block ID to the partition owning its Send/Drop
	// terminator, -1 when the block ends in Jump/Branch or the ownership
	// pattern is malformed.
	termOwner map[int]partition.ID

	ds Diagnostics
}

func newVerifier(res *partition.Result) *verifier {
	if res == nil || res.Prog == nil || res.Prog.Fn == nil ||
		res.PreFn == nil || res.SrvFn == nil || res.PostFn == nil {
		return nil
	}
	v := &verifier{
		res:  res,
		prog: res.Prog,
		cons: res.Cons,
		parts: []vpart{
			{partition.Pre, res.PreFn},
			{partition.NonOff, res.SrvFn},
			{partition.Post, res.PostFn},
		},
	}
	v.graph = deps.Build(v.prog)
	v.reach = cfg.New(v.prog.Fn).Reachable()
	v.deriveOwnership()
	v.deriveStmtPartitions()
	return v
}

func (v *verifier) errf(fn string, s *ir.Instr, check, format string, args ...any) {
	v.ds = append(v.ds, diag(check, fn, s, format, args...))
}

// entryReachable reports whether the input CFG can reach block b.
func (v *verifier) entryReachable(b int) bool { return b == 0 || v.reach[0][b] }

// synthesized reports whether the kind only appears in partitioner output
// (transfer-header plumbing), never in the input program.
func synthesized(k ir.Kind) bool { return k == ir.XferLoad || k == ir.XferStore }

// fingerprint identifies an instruction by content. Registers are shared
// across partition functions, so a copied statement fingerprints
// identically to its original; Line is excluded (synthesized
// rematerialization copies carry no position).
func fingerprint(in *ir.Instr) string {
	return fmt.Sprintf("%d|%v|%v|%d|%d|%q|%d", in.Kind, in.Dst, in.Args, in.Op, in.Imm, in.Obj, in.Typ)
}

// describe renders an instruction for messages.
func describe(in *ir.Instr) string {
	s := in.Kind.String()
	if in.Obj != "" {
		s += " " + in.Obj
	}
	if in.Line > 0 {
		s += fmt.Sprintf(" (line %d)", in.Line)
	}
	return s
}

// deriveOwnership resolves which partition owns each input Send/Drop
// terminator from the emitted terminator sequence: ToNext* Owner Drop*.
// Malformed sequences are reported by checkCFGShape; here they just
// leave the owner unset.
func (v *verifier) deriveOwnership() {
	v.termOwner = map[int]partition.ID{}
	for _, ob := range v.prog.Fn.Blocks {
		if ob.Term.Kind != ir.Send && ob.Term.Kind != ir.Drop {
			continue
		}
		for _, p := range v.parts {
			if ob.ID >= len(p.fn.Blocks) {
				break
			}
			k := p.fn.Blocks[ob.ID].Term.Kind
			if k == ir.ToNext {
				continue
			}
			if k == ob.Term.Kind {
				v.termOwner[ob.ID] = p.id
			}
			break
		}
	}
}

// deriveStmtPartitions content-matches every emitted non-synthesized
// instruction back to an input statement, in pipeline order, consuming
// each input statement at most once. Rematerialized header loads match
// an already-consumed original and are ignored.
func (v *verifier) deriveStmtPartitions() {
	v.stmtPart = map[int]partition.ID{}
	pending := map[string][]*ir.Instr{}
	for _, b := range v.prog.Fn.Blocks {
		for i := range b.Instrs {
			fp := fingerprint(&b.Instrs[i])
			pending[fp] = append(pending[fp], &b.Instrs[i])
		}
	}
	for _, p := range v.parts {
		for _, b := range p.fn.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if synthesized(in.Kind) {
					continue
				}
				fp := fingerprint(in)
				if q := pending[fp]; len(q) > 0 {
					v.stmtPart[q[0].ID] = p.id
					pending[fp] = q[1:]
				}
			}
		}
	}
	for b, owner := range v.termOwner {
		v.stmtPart[v.prog.Fn.Blocks[b].Term.ID] = owner
	}
}

// checkCFGShape asserts every partition function replicates the input
// CFG (same blocks, identical Jump/Branch structure) and that each
// Send/Drop block's terminator-ownership sequence across the pipeline is
// ToNext* Owner Drop*: earlier partitions hand the packet on, exactly one
// partition owns the exit, later partitions treat the path as departed.
func (v *verifier) checkCFGShape() {
	orig := v.prog.Fn
	for _, p := range v.parts {
		if len(p.fn.Blocks) != len(orig.Blocks) {
			v.errf(p.fn.Name, nil, CheckCFGShape,
				"partition has %d blocks, input has %d", len(p.fn.Blocks), len(orig.Blocks))
			return
		}
		for i, b := range p.fn.Blocks {
			if b.ID != i {
				v.errf(p.fn.Name, nil, CheckCFGShape, "block at index %d has ID %d", i, b.ID)
				return
			}
		}
	}
	for _, ob := range orig.Blocks {
		ot := &ob.Term
		switch ot.Kind {
		case ir.Jump, ir.Branch:
			for _, p := range v.parts {
				t := &p.fn.Blocks[ob.ID].Term
				if t.Kind != ot.Kind || t.Then != ot.Then || t.Else != ot.Else {
					v.errf(p.fn.Name, t, CheckCFGShape,
						"block %d terminator diverges from input: %s → %d/%d, input %s → %d/%d",
						ob.ID, t.Kind, t.Then, t.Else, ot.Kind, ot.Then, ot.Else)
					continue
				}
				if ot.Kind == ir.Branch && (len(t.Args) != 1 || t.Args[0] != ot.Args[0]) {
					v.errf(p.fn.Name, t, CheckCFGShape,
						"block %d branch condition diverges from input", ob.ID)
				}
			}
		case ir.Send, ir.Drop:
			// Ownership sequence: ToNext* Owner Drop*.
			seq := [3]ir.Kind{}
			for i, p := range v.parts {
				seq[i] = p.fn.Blocks[ob.ID].Term.Kind
			}
			if !validOwnership(seq, ot.Kind) {
				v.errf(orig.Name, ot, CheckCFGShape,
					"block %d (%s in input) has invalid terminator ownership across partitions: pre=%s server=%s post=%s",
					ob.ID, ot.Kind, seq[0], seq[1], seq[2])
			}
		}
	}
}

// validOwnership checks a per-block terminator sequence against the
// pipeline pattern ToNext* Owner Drop*, where Owner matches the input
// terminator kind.
func validOwnership(seq [3]ir.Kind, want ir.Kind) bool {
	i := 0
	for i < 3 && seq[i] == ir.ToNext {
		i++
	}
	if i == 3 || seq[i] != want {
		return false // nobody owns the exit
	}
	for i++; i < 3; i++ {
		if seq[i] != ir.Drop {
			return false
		}
	}
	return true
}

// checkCoverage asserts the emitted partitions execute every input
// statement exactly once. Pure header loads are the one sanctioned
// exception: rematerialization may re-execute them in a later partition.
func (v *verifier) checkCoverage() {
	expected := map[string][]*ir.Instr{}
	for _, b := range v.prog.Fn.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			fp := fingerprint(in)
			expected[fp] = append(expected[fp], in)
		}
	}
	actual := map[string]int{}
	sample := map[string]*ir.Instr{}
	where := map[string]string{}
	for _, p := range v.parts {
		for _, b := range p.fn.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if synthesized(in.Kind) {
					continue
				}
				fp := fingerprint(in)
				actual[fp]++
				sample[fp] = in
				where[fp] = p.fn.Name
			}
		}
	}
	for fp, origs := range expected {
		got := actual[fp]
		switch {
		case got < len(origs):
			v.errf(v.prog.Fn.Name, origs[0], CheckCoverage,
				"input statement %s executes in no partition (%d of %d copies lost)",
				describe(origs[0]), len(origs)-got, len(origs))
		case got > len(origs) && origs[0].Kind != ir.LoadHeader:
			v.errf(where[fp], origs[0], CheckCoverage,
				"input statement %s executes %d times across partitions (want %d)",
				describe(origs[0]), got, len(origs))
		}
	}
	for fp, got := range actual {
		if _, ok := expected[fp]; !ok && got > 0 {
			v.errf(where[fp], sample[fp], CheckCoverage,
				"partition contains statement %s that is not in the input program", describe(sample[fp]))
		}
	}
}

// checkSwitchInstrs walks the two switch partitions and flags global
// writes (server-owned state vs. write-back bypass) and instructions P4
// cannot express. Re-derives P4 expressibility locally rather than
// calling into the partitioner.
func (v *verifier) checkSwitchInstrs() {
	resident := v.switchResidentGlobals()
	for _, p := range v.parts {
		if p.id == partition.NonOff {
			continue
		}
		for _, b := range p.fn.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if deps.IsGlobalWrite(in) {
					if resident[in.Obj] {
						v.errf(p.fn.Name, in, CheckWritebackBypass,
							"%s writes switch-resident global %q on the offloaded path, bypassing the write-back protocol (only the server may update replicated state)",
							in.Kind, in.Obj)
					} else {
						v.errf(p.fn.Name, in, CheckOffloadedWrite,
							"%s writes server-owned global %q from the switch", in.Kind, in.Obj)
					}
					continue
				}
				if !p4Expressible(v.prog, in) {
					v.errf(p.fn.Name, in, CheckExpressiveness,
						"%s is not expressible on the switch", describe(in))
				}
			}
		}
	}
}

// switchResidentGlobals re-derives the set of globals living on the
// switch: every global a switch-partition instruction accesses.
func (v *verifier) switchResidentGlobals() map[string]bool {
	resident := map[string]bool{}
	for _, p := range v.parts {
		if p.id == partition.NonOff {
			continue
		}
		for _, b := range p.fn.Blocks {
			for i := range b.Instrs {
				if in := &b.Instrs[i]; !deps.IsGlobalWrite(in) {
					if gn := deps.GlobalAccessed(in); gn != "" {
						resident[gn] = true
					}
				}
			}
		}
	}
	return resident
}

// p4Expressible re-derives §4.2.1's expressiveness conditions,
// independently of the partitioner's copy: switch-ALU operations only,
// header (never payload) access, and data-structure reads with a size
// annotation. Transfer-header plumbing is expressible (the switch parses
// and deparses the synthesized header).
func p4Expressible(p *ir.Program, in *ir.Instr) bool {
	switch in.Kind {
	case ir.Const, ir.Not, ir.Convert, ir.LoadHeader, ir.StoreHeader,
		ir.GlobalLoad, ir.XferLoad, ir.XferStore:
		return true
	case ir.BinOp:
		return in.Op.P4Supported()
	case ir.PayloadMatch, ir.Hash:
		return false
	case ir.MapFind, ir.VecGet, ir.VecLen, ir.LpmFind:
		g := p.Global(in.Obj)
		return g != nil && g.MaxEntries > 0
	case ir.MapInsert, ir.MapRemove, ir.GlobalStore:
		return false
	case ir.Jump, ir.Branch, ir.Send, ir.Drop, ir.ToNext:
		return true
	}
	return false
}

// checkSingleAccess re-counts per-global accesses in each switch pass:
// the match-action pipeline consults each table at most once per
// traversal (lifted for disaggregated-RMT targets).
func (v *verifier) checkSingleAccess() {
	if v.cons.DisaggregatedRMT {
		return
	}
	for _, p := range v.parts {
		if p.id == partition.NonOff {
			continue
		}
		count := map[string]int{}
		var first = map[string]*ir.Instr{}
		for _, b := range p.fn.Blocks {
			for i := range b.Instrs {
				if gn := deps.GlobalAccessed(&b.Instrs[i]); gn != "" {
					count[gn]++
					if first[gn] == nil {
						first[gn] = &b.Instrs[i]
					}
				}
			}
		}
		for gn, n := range count {
			if n > 1 {
				v.errf(p.fn.Name, first[gn], CheckSingleAccess,
					"global %q is accessed %d times in one switch pass (limit 1)", gn, n)
			}
		}
	}
}

// incomingFormat returns the wire format a partition receives, nil for
// the pre partition (nothing precedes it).
func (v *verifier) incomingFormat(id partition.ID) *packet.HeaderFormat {
	switch id {
	case partition.NonOff:
		return v.res.FormatA
	case partition.Post:
		return v.res.FormatB
	}
	return nil
}

// outgoingFormat returns the wire format a partition emits at hand-off,
// nil for the post partition (nothing follows it).
func (v *verifier) outgoingFormat(id partition.ID) *packet.HeaderFormat {
	switch id {
	case partition.Pre:
		return v.res.FormatA
	case partition.NonOff:
		return v.res.FormatB
	}
	return nil
}

// partReachable reports whether any packet can ever enter the partition:
// the server only sees packets the pre pass hands off, and the post pass
// only sees packets the server hands off. A partition with no incoming
// hand-off holds nothing but replicated dead code (e.g. a program whose
// observable work all offloads, leaving every Send/Drop on the switch),
// so consumer-side dataflow obligations are vacuous there.
func (v *verifier) partReachable(id partition.ID) bool {
	hasHandoff := func(f *ir.Function) bool {
		for _, b := range f.Blocks {
			if b.Term.Kind == ir.ToNext {
				return true
			}
		}
		return false
	}
	switch id {
	case partition.NonOff:
		return hasHandoff(v.res.PreFn)
	case partition.Post:
		return hasHandoff(v.res.PreFn) && hasHandoff(v.res.SrvFn)
	}
	return true
}

// checkCarries re-derives cross-partition dataflow on the consumer side.
// Two obligations: (a) every XferLoad names a field of the incoming wire
// format at the right width; (b) every register a partition actually
// consumes is definitely assigned inside that partition — by its own
// code, by a transfer-header load, or by a rematerializing header load.
// An undefined read means a value was dropped at a partition boundary.
func (v *verifier) checkCarries() {
	for _, p := range v.parts {
		if !v.partReachable(p.id) {
			continue
		}
		format := v.incomingFormat(p.id)
		for _, b := range p.fn.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Kind != ir.XferLoad {
					continue
				}
				if format == nil {
					v.errf(p.fn.Name, in, CheckMetadataCarry,
						"partition loads transfer variable %q but receives no transfer header", in.Obj)
					continue
				}
				_, bits, ok := format.FieldOffset(in.Obj)
				if !ok {
					v.errf(p.fn.Name, in, CheckMetadataCarry,
						"transfer variable %q is loaded but absent from the incoming wire format %s", in.Obj, format)
					continue
				}
				if len(in.Dst) == 1 && p.fn.RegType(in.Dst[0]).Bits() != bits {
					v.errf(p.fn.Name, in, CheckMetadataCarry,
						"transfer variable %q carries %d bits but loads into a %d-bit register",
						in.Obj, bits, p.fn.RegType(in.Dst[0]).Bits())
				}
			}
		}

		// Definite assignment inside the partition. Two sanctioned
		// exceptions: (a) XferStore reads — hand-off capture stores every
		// transfer variable on every exit path, including paths where the
		// producing statement did not execute; consumers on such paths
		// never read the value, so the capture of an undefined register
		// is dead. (b) a replicated Branch whose condition lives in
		// another partition — benign only while nothing this partition
		// owns is control-dependent on it (the arms are interchangeable
		// here), which is verified below.
		cds := cfg.New(p.fn).ControlDeps()
		controlledEffect := v.controlledEffects(p.fn, cds)
		for _, u := range maybeUninitUses(p.fn) {
			if u.stmt.Kind == ir.XferStore {
				continue
			}
			if u.term && u.stmt.Kind == ir.Branch {
				if eff := controlledEffect[u.blk]; eff != nil {
					v.errf(p.fn.Name, u.stmt, CheckMetadataCarry,
						"branch condition %s (r%d) is not available in this partition but controls owned work (%s)",
						p.fn.RegName(u.reg), u.reg, describe(eff))
				}
				continue
			}
			v.errf(p.fn.Name, u.stmt, CheckMetadataCarry,
				"register %s (r%d) consumed by %s is neither defined in this partition, carried in the transfer header, nor rematerialized",
				p.fn.RegName(u.reg), u.reg, describe(u.stmt))
		}
	}
}

// controlledEffects maps each branch block to one partition-owned effect
// (instruction or Send terminator) control-dependent on it, nil when the
// branch controls nothing this partition executes.
func (v *verifier) controlledEffects(fn *ir.Function, cds [][]int) map[int]*ir.Instr {
	out := map[int]*ir.Instr{}
	for _, b := range fn.Blocks {
		for _, br := range cds[b.ID] {
			if out[br] != nil {
				continue
			}
			for i := range b.Instrs {
				if !synthesized(b.Instrs[i].Kind) {
					out[br] = &b.Instrs[i]
					break
				}
			}
			if out[br] == nil && b.Term.Kind == ir.Send {
				out[br] = &b.Term
			}
		}
	}
	return out
}

// checkHandoffs verifies the producer side of every partition boundary:
// each ToNext path stores exactly the fields of the outgoing wire format
// at the declared widths.
func (v *verifier) checkHandoffs() {
	for _, p := range v.parts {
		format := v.outgoingFormat(p.id)
		for _, b := range p.fn.Blocks {
			stored := map[string]*ir.Instr{}
			for i := range b.Instrs {
				if in := &b.Instrs[i]; in.Kind == ir.XferStore {
					stored[in.Obj] = in
				}
			}
			if b.Term.Kind == ir.ToNext {
				if format == nil {
					if len(stored) > 0 || p.id == partition.Post {
						v.errf(p.fn.Name, &b.Term, CheckHandoffStore,
							"block %d hands the packet on but the partition has no outgoing wire format", b.ID)
					}
					continue
				}
				for _, f := range format.Fields {
					in, ok := stored[f.Name]
					if !ok {
						v.errf(p.fn.Name, &b.Term, CheckHandoffStore,
							"hand-off at block %d does not store transfer variable %q declared in wire format %s",
							b.ID, f.Name, format)
						continue
					}
					if len(in.Args) == 1 && p.fn.RegType(in.Args[0]).Bits() != f.Bits {
						v.errf(p.fn.Name, in, CheckHandoffStore,
							"transfer variable %q stores a %d-bit register into a %d-bit field",
							f.Name, p.fn.RegType(in.Args[0]).Bits(), f.Bits)
					}
				}
			}
			for name, in := range stored {
				if format == nil {
					continue // already reported on the ToNext terminator
				}
				if _, _, ok := format.FieldOffset(name); !ok {
					v.errf(p.fn.Name, in, CheckHandoffStore,
						"transfer variable %q is stored but absent from the outgoing wire format %s", name, format)
				}
			}
		}
	}
}

// checkStaleReads re-derives §4.3.3's stale-read-window invariant from
// the fresh dependence graph: an offloaded read of a global must not be
// separated from a server-side write to the same global in a way that
// makes the packet observe state from the wrong side of its own update.
// Two windows exist:
//
//   - a pre-pass read R that the input orders *after* a server write W
//     executes on the switch before the server runs — R reads the
//     pre-update table;
//   - a post-pass read R that the input orders *before* a server write W
//     executes after output commit made W visible — R reads the
//     post-update table.
func (v *verifier) checkStaleReads() {
	type acc struct {
		s    *ir.Instr
		part partition.ID
	}
	var reads, writes []acc
	for _, s := range v.prog.Fn.Stmts() {
		gn := deps.GlobalAccessed(s)
		if gn == "" {
			continue
		}
		p, ok := v.stmtPart[s.ID]
		if !ok {
			continue
		}
		if deps.IsGlobalWrite(s) {
			writes = append(writes, acc{s, p})
		} else {
			reads = append(reads, acc{s, p})
		}
	}
	for _, w := range writes {
		if w.part != partition.NonOff {
			continue // switch-side writes are reported by checkSwitchInstrs
		}
		for _, r := range reads {
			if r.s.Obj != w.s.Obj {
				continue
			}
			switch r.part {
			case partition.Pre:
				if v.graph.CanHappenAfter(w.s.ID, r.s.ID) {
					v.errf(v.prog.Fn.Name, r.s, CheckStaleReadWindow,
						"pre-pass read of %q (s%d) follows a server write (s%d) in the input: the switch reads the table before the server updates it",
						r.s.Obj, r.s.ID, w.s.ID)
				}
			case partition.Post:
				if v.graph.CanHappenAfter(r.s.ID, w.s.ID) {
					v.errf(v.prog.Fn.Name, r.s, CheckStaleReadWindow,
						"post-pass read of %q (s%d) precedes a server write (s%d) in the input: the switch reads the table after write-back made the update visible",
						r.s.Obj, r.s.ID, w.s.ID)
				}
			}
		}
	}
}

// checkRematClobber validates rematerialization: a consumer partition
// that re-reads a header field instead of receiving the register must
// observe the value the original load saw. If an earlier partition can
// store to the field after the original load and still hand the packet
// on to the consumer, the re-read is clobbered.
func (v *verifier) checkRematClobber() {
	for pi, p := range v.parts {
		if p.id == partition.Pre {
			continue
		}
		for _, b := range p.fn.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Kind != ir.LoadHeader {
					continue
				}
				// The original load this re-read stands for: the unique
				// input load with the same destination and field.
				orig := v.findOrigLoad(in)
				if orig == nil {
					continue
				}
				for _, s := range v.prog.Fn.Stmts() {
					if s.Kind != ir.StoreHeader || s.Obj != in.Obj {
						continue
					}
					sp, ok := v.stmtPart[s.ID]
					if !ok || int(sp) >= pi {
						continue // store runs at or after this partition
					}
					if !v.graph.CanHappenAfter(orig.ID, s.ID) {
						continue // store precedes the load; re-read is current
					}
					// Does any path continue past the store to this
					// partition?
					for _, t := range v.prog.Fn.Stmts() {
						if t.Kind != ir.Send && t.Kind != ir.Drop {
							continue
						}
						to, ok := v.stmtPart[t.ID]
						if !ok || int(to) < pi {
							continue
						}
						if s.ID == t.ID || v.graph.CanHappenAfter(s.ID, t.ID) {
							v.errf(p.fn.Name, in, CheckMetadataCarry,
								"rematerialized read of header field %q can observe an earlier-partition store (s%d) that the input orders after the original load (s%d)",
								in.Obj, s.ID, orig.ID)
							break
						}
					}
				}
			}
		}
	}
}

// findOrigLoad locates the unique input LoadHeader with the same
// destination register and field, or nil.
func (v *verifier) findOrigLoad(in *ir.Instr) *ir.Instr {
	var found *ir.Instr
	for _, s := range v.prog.Fn.Stmts() {
		if s.Kind == ir.LoadHeader && s.Obj == in.Obj &&
			len(s.Dst) == 1 && len(in.Dst) == 1 && s.Dst[0] == in.Dst[0] {
			if found != nil {
				return nil // ambiguous
			}
			found = s
		}
	}
	return found
}

// checkFastPath asserts the paper's fast-path definition from scratch: a
// terminator the pre partition owns means the server never touches the
// packet, so no path reaching it may carry pending server-side effects.
// For an owned Send, any server global write or header store upstream is
// lost; for an owned Drop, only global writes matter (the discarded
// packet's headers do not).
func (v *verifier) checkFastPath() {
	pre := v.parts[0].fn
	for _, b := range pre.Blocks {
		tk := b.Term.Kind
		if tk != ir.Send && tk != ir.Drop {
			continue
		}
		if !v.entryReachable(b.ID) {
			continue
		}
		for _, p := range v.parts[1:] {
			for _, sb := range p.fn.Blocks {
				if !v.entryReachable(sb.ID) {
					continue
				}
				onPath := sb.ID == b.ID || v.reach[sb.ID][b.ID]
				if !onPath {
					continue
				}
				for i := range sb.Instrs {
					in := &sb.Instrs[i]
					lost := deps.IsGlobalWrite(in) || (tk == ir.Send && in.Kind == ir.StoreHeader)
					if lost {
						v.errf(pre.Name, &b.Term, CheckFastPathWriteLoss,
							"switch-owned %s at block %d skips the server, losing %s in %s (block %d)",
							tk, b.ID, describe(in), p.fn.Name, sb.ID)
					}
				}
			}
		}
	}
}

// checkExpirySafety guards the flow-state lifecycle: once expiry is
// armed, any entry of a dynamic map (one the server inserts into) can
// vanish between two packets of the same flow. A switch-partition
// lookup into such a map must therefore test the found flag before
// consuming the values. An untested lookup was tolerable before the
// lifecycle existed — a seeded entry never disappeared mid-run — but
// under expiry the miss path is reachable for every flow, and it
// silently reads zero values where the live entry used to be, keeping
// the packet on the fast path instead of detouring to the server to
// re-establish the session. A found flag exported through the transfer
// header (XferStore) counts as tested: the server-side continuation
// observes it.
func (v *verifier) checkExpirySafety() {
	dynamic := map[string]bool{}
	for _, s := range v.prog.Fn.Stmts() {
		if s.Kind == ir.MapInsert {
			dynamic[s.Obj] = true
		}
	}
	if len(dynamic) == 0 {
		return
	}
	for _, p := range v.parts {
		if p.id == partition.NonOff {
			continue
		}
		used := dataflow.UsedRegs(p.fn)
		for _, b := range p.fn.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Kind != ir.MapFind || !dynamic[in.Obj] || len(in.Dst) < 2 {
					continue
				}
				found := in.Dst[0]
				valueUsed := false
				for _, r := range in.Dst[1:] {
					if used[r] {
						valueUsed = true
						break
					}
				}
				if valueUsed && !used[found] {
					v.errf(p.fn.Name, in, CheckExpirySafe,
						"offloaded lookup of dynamic map %q consumes values without testing the found flag %s (r%d): once expiry is armed the entry can vanish between packets, and the untested miss reads zeroes on the fast path instead of detouring to the server",
						in.Obj, p.fn.RegName(found), found)
				}
			}
		}
	}
}

// checkResources re-derives §4.2.2's resource constraints from the
// emitted partitions: dependency-chain depth per switch pass, resident
// global memory, peak live metadata bits, and wire-format sizes.
func (v *verifier) checkResources() {
	for _, p := range v.parts {
		if p.id == partition.NonOff {
			continue
		}
		if v.cons.PipelineDepth > 0 {
			if d := chainDepth(v.prog, p.fn); d > v.cons.PipelineDepth {
				v.errf(p.fn.Name, nil, CheckStageBudget,
					"longest dependency chain is %d statements, pipeline depth budget is %d", d, v.cons.PipelineDepth)
			}
		}
		if v.cons.MetadataBytes > 0 {
			if bits := dataflow.MaxLiveBits(p.fn); bits > v.cons.MetadataBytes*8 {
				v.errf(p.fn.Name, nil, CheckMetadataBudget,
					"peak live registers need %d bits of per-packet metadata, budget is %d", bits, v.cons.MetadataBytes*8)
			}
		}
	}
	if v.cons.SwitchMemoryBytes > 0 {
		total := 0
		resident := map[string]bool{}
		for _, p := range v.parts {
			if p.id == partition.NonOff {
				continue
			}
			for _, b := range p.fn.Blocks {
				for i := range b.Instrs {
					if gn := deps.GlobalAccessed(&b.Instrs[i]); gn != "" && !resident[gn] {
						resident[gn] = true
						if g := v.prog.Global(gn); g != nil {
							total += v.cons.EffectiveSizeBytes(g)
						}
					}
				}
			}
		}
		if total > v.cons.SwitchMemoryBytes {
			v.errf(v.prog.Fn.Name, nil, CheckSwitchMemory,
				"switch-resident globals need %d bytes, switch memory budget is %d", total, v.cons.SwitchMemoryBytes)
		}
	}
	if v.cons.TransferBytes > 0 {
		for _, f := range []struct {
			name   string
			format *packet.HeaderFormat
		}{{"pre→server", v.res.FormatA}, {"server→post", v.res.FormatB}} {
			if f.format != nil && f.format.DataLen() > v.cons.TransferBytes {
				v.errf(v.prog.Fn.Name, nil, CheckTransferBudget,
					"%s transfer header is %d bytes, budget is %d", f.name, f.format.DataLen(), v.cons.TransferBytes)
			}
		}
	}
}

// chainDepth rebuilds a dependence graph over one partition function and
// returns its longest acyclic dependency chain in statements.
func chainDepth(p *ir.Program, fn *ir.Function) int {
	tmp := &ir.Program{Name: p.Name, Globals: p.Globals, Fn: fn}
	g := deps.Build(tmp)
	star := g.DependsOnStar()
	dist := make([]int, g.N)
	for i := range dist {
		dist[i] = 1
	}
	max := 0
	for changed := true; changed; {
		changed = false
		for s := 0; s < g.N; s++ {
			if star[s][s] {
				continue
			}
			for _, e := range g.Out[s] {
				if star[e.To][e.To] {
					continue
				}
				if d := dist[s] + 1; d > dist[e.To] && d <= g.N {
					dist[e.To] = d
					changed = true
				}
			}
		}
	}
	for s := 0; s < g.N; s++ {
		if dist[s] > max {
			max = dist[s]
		}
	}
	return max
}
