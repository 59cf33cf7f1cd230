package partition

import (
	"fmt"
	"sort"
	"strings"

	"gallium/internal/analysis/dataflow"
	"gallium/internal/deps"
	"gallium/internal/ir"
	"gallium/internal/packet"
)

// computeSplit materializes the three partition functions for a given
// statement assignment and synthesizes the transfer sets (§4.3).
//
// Every partition function keeps the input program's full CFG shape —
// branches are replicated across partitions, exactly as Figure 4 of the
// paper shows the MiniLB `if` in all three CFGs — but contains only its
// own statements. Terminators resolve per owner:
//
//   - owned by this partition: kept (a Send owned by pre IS the fast
//     path: the switch emits the packet without visiting the server);
//   - owned by a later partition: ToNext (hand the packet on), with
//     XferStores capturing the boundary-crossing registers;
//   - owned by an earlier partition: the path is unreachable here (the
//     packet already left the pipeline), marked Drop.
//
// Registers are shared across the partition functions (same numbering as
// the input), so a value computed in pre and consumed in post needs no
// renaming: the consumer partition XferLoads the register at entry from
// the synthesized header.
type splitOut struct {
	pre, srv, post *ir.Function
	ta, tb         []TransferVar
	// slots is the compiled transfer-scratchpad layout: variable name →
	// 1-based slot index shared across both boundaries.
	slots map[string]int
}

func computeSplit(p *ir.Program, g *deps.Graph, assignv []ID, cons Constraints) (*splitOut, error) {
	fn := p.Fn

	// Which partitions define each register?
	defParts := make(map[ir.Reg]map[ID]bool)
	defStmts := make(map[ir.Reg][]*ir.Instr)
	for _, s := range fn.Stmts() {
		for _, r := range s.Dst {
			if defParts[r] == nil {
				defParts[r] = map[ID]bool{}
			}
			defParts[r][assignv[s.ID]] = true
			defStmts[r] = append(defStmts[r], s)
		}
	}

	// rematable reports whether partition part can recompute register r by
	// re-reading its packet header field at entry instead of receiving it
	// in the synthesized header. This mirrors the paper's transfers, which
	// carry only true temporaries (Figure 5): the packet itself already
	// delivers its header fields. Safe when r has a single defining
	// LoadHeader and no earlier-partition store to the same field can sit
	// between that load and a handoff that continues to part (i.e. on
	// every path that reaches part, the field still holds the loaded
	// value).
	rematable := func(r ir.Reg, part ID) (*ir.Instr, bool) {
		if cons.NoRematerialization {
			return nil, false
		}
		ds := defStmts[r]
		if len(ds) != 1 || ds[0].Kind != ir.LoadHeader {
			return nil, false
		}
		d := ds[0]
		for _, s := range fn.Stmts() {
			if s.Kind != ir.StoreHeader || s.Obj != d.Obj || ID(assignv[s.ID]) >= part {
				continue
			}
			if !g.CanHappenAfter(d.ID, s.ID) {
				continue
			}
			// Does any handoff that continues to part follow the store?
			for _, t := range fn.Stmts() {
				if t.Kind != ir.Send && t.Kind != ir.Drop {
					continue
				}
				if ID(assignv[t.ID]) >= part && (s.ID == t.ID || g.CanHappenAfter(s.ID, t.ID)) {
					return nil, false
				}
			}
		}
		return d, true
	}

	build := func(part ID) *ir.Function {
		out := &ir.Function{
			Name: fn.Name + "." + part.String(),
			Regs: append([]ir.RegInfo(nil), fn.Regs...),
		}
		for _, b := range fn.Blocks {
			nb := &ir.Block{ID: b.ID}
			for i := range b.Instrs {
				if assignv[b.Instrs[i].ID] == part {
					nb.Instrs = append(nb.Instrs, b.Instrs[i])
				}
			}
			switch b.Term.Kind {
			case ir.Jump, ir.Branch:
				nb.Term = b.Term
			case ir.Send, ir.Drop:
				owner := assignv[b.Term.ID]
				switch {
				case owner == part:
					nb.Term = b.Term
				case owner > part:
					nb.Term = ir.Instr{Kind: ir.ToNext, Then: -1, Else: -1}
				default:
					// Path finished in an earlier partition.
					nb.Term = ir.Instr{Kind: ir.Drop, Then: -1, Else: -1}
				}
			default:
				nb.Term = b.Term
			}
			out.Blocks = append(out.Blocks, nb)
		}
		return out
	}

	pre := build(Pre)
	srv := build(NonOff)
	post := build(Post)

	// Transfer sets (§4.3.2): a register crosses a boundary when a later
	// partition uses it and an earlier partition defines it — unless the
	// consumer can rematerialize it from the packet headers. Values that
	// pre computes and only post consumes pass through the server.
	definedIn := func(r ir.Reg, ps ...ID) bool {
		for _, p := range ps {
			if defParts[r][p] {
				return true
			}
		}
		return false
	}
	// A stage is reachable only when some earlier stage hands packets to
	// it; an unreachable stage needs no transfers (e.g. a fully offloaded
	// firewall never sends anything to the server).
	hasHandoff := func(f *ir.Function) bool {
		for _, b := range f.Blocks {
			if b.Term.Kind == ir.ToNext {
				return true
			}
		}
		return false
	}
	srvReachable := hasHandoff(pre)
	postReachable := srvReachable && hasHandoff(srv)

	postUses := dataflow.UsedRegs(post)
	srvUses := dataflow.UsedRegs(srv)
	if !srvReachable {
		srvUses = nil
	}
	if !postReachable {
		postUses = nil
	}

	rematLoads := map[ID][]*ir.Instr{}
	rematRegs := map[ID][]ir.Reg{}
	addRemat := func(part ID, r ir.Reg, d *ir.Instr) {
		rematLoads[part] = append(rematLoads[part], d)
		rematRegs[part] = append(rematRegs[part], r)
	}

	// Walk the used registers in register order: the order determines
	// the rematerialization prologues, and with it the emitted P4/server
	// text — codegen must be deterministic for a given input.
	inPost := map[ir.Reg]bool{}
	for i, used := range postUses {
		r := ir.Reg(i)
		if !used || !definedIn(r, Pre, NonOff) {
			continue
		}
		if d, ok := rematable(r, Post); ok {
			addRemat(Post, r, d)
		} else {
			inPost[r] = true
		}
	}
	inSrv := map[ir.Reg]bool{}
	for i, used := range srvUses {
		r := ir.Reg(i)
		if !used || !definedIn(r, Pre) {
			continue
		}
		if d, ok := rematable(r, NonOff); ok {
			addRemat(NonOff, r, d)
		} else {
			inSrv[r] = true
		}
	}
	for _, r := range sortedRegs(inPost) {
		if !definedIn(r, Pre) || inSrv[r] {
			continue
		}
		// Pass-through pre → (srv) → post: the server either receives it
		// in header A or rematerializes it before storing into header B.
		if d, ok := rematable(r, NonOff); ok {
			if !rematContains(rematRegs[NonOff], r) {
				addRemat(NonOff, r, d)
			}
		} else {
			inSrv[r] = true
		}
	}

	ta := transferVars(fn, inSrv)
	tb := transferVars(fn, inPost)

	// Prologue: the receiving partition first rematerializes header-borne
	// registers, then loads incoming transfer fields, all into the
	// original registers, before any of its own code.
	addPrologue := func(f *ir.Function, part ID, vars []TransferVar) {
		var loads []ir.Instr
		for i, d := range rematLoads[part] {
			loads = append(loads, ir.Instr{Kind: ir.LoadHeader, Dst: []ir.Reg{rematRegs[part][i]}, Obj: d.Obj, Typ: d.Typ})
		}
		for _, v := range vars {
			loads = append(loads, ir.Instr{Kind: ir.XferLoad, Dst: []ir.Reg{v.Reg}, Obj: v.Name, Typ: fn.RegType(v.Reg)})
		}
		if len(loads) == 0 {
			return
		}
		f.Blocks[0].Instrs = append(loads, f.Blocks[0].Instrs...)
	}
	// Handoff stores: every path that leaves a partition via ToNext
	// captures the current values of the boundary registers.
	addHandoff := func(f *ir.Function, vars []TransferVar) {
		for _, b := range f.Blocks {
			if b.Term.Kind != ir.ToNext {
				continue
			}
			for _, v := range vars {
				b.Instrs = append(b.Instrs, ir.Instr{Kind: ir.XferStore, Args: []ir.Reg{v.Reg}, Obj: v.Name})
			}
		}
	}
	addHandoff(pre, ta)
	addPrologue(srv, NonOff, ta)
	addHandoff(srv, tb)
	addPrologue(post, Post, tb)

	// Compile the transfer scratchpad layout: every distinct variable name
	// gets a fixed slot, and every synthesized XferLoad/XferStore carries
	// it, so the runtimes index a flat []uint64 instead of hashing names
	// per packet. Names are register-keyed, so a register crossing both
	// boundaries (pre→srv and srv→post) shares one slot.
	slots := map[string]int{}
	assignSlots := func(vars []TransferVar) {
		for i := range vars {
			s, ok := slots[vars[i].Name]
			if !ok {
				s = len(slots) + 1
				slots[vars[i].Name] = s
			}
			vars[i].Slot = s
		}
	}
	assignSlots(ta)
	assignSlots(tb)
	for _, f := range []*ir.Function{pre, srv, post} {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				switch b.Instrs[i].Kind {
				case ir.XferLoad, ir.XferStore:
					b.Instrs[i].Slot = slots[b.Instrs[i].Obj]
				}
			}
		}
	}

	pre.Finalize()
	srv.Finalize()
	post.Finalize()
	for _, f := range []*ir.Function{pre, srv, post} {
		if err := p.ValidateFn(f); err != nil {
			return nil, fmt.Errorf("partition: generated %s invalid: %w", f.Name, err)
		}
	}
	return &splitOut{pre: pre, srv: srv, post: post, ta: ta, tb: tb, slots: slots}, nil
}

func rematContains(regs []ir.Reg, r ir.Reg) bool {
	for _, x := range regs {
		if x == r {
			return true
		}
	}
	return false
}

// transferVars orders a register set deterministically and names the
// resulting header fields.
func sortedRegs(set map[ir.Reg]bool) []ir.Reg {
	regs := make([]ir.Reg, 0, len(set))
	for r := range set {
		regs = append(regs, r)
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i] < regs[j] })
	return regs
}

func transferVars(fn *ir.Function, set map[ir.Reg]bool) []TransferVar {
	regs := sortedRegs(set)
	vars := make([]TransferVar, len(regs))
	for i, r := range regs {
		vars[i] = TransferVar{
			Name: fmt.Sprintf("%s_r%d", sanitizeName(fn.RegName(r)), r),
			Reg:  r,
			Bits: fn.RegType(r).Bits(),
		}
	}
	return vars
}

func sanitizeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		}
		return '_'
	}, s)
}

// buildSplit finalizes the Result: partition functions, transfer sets,
// and the two synthesized header formats (Figure 5).
func buildSplit(res *Result) error {
	split, err := computeSplit(res.Prog, res.Graph, res.Assign, res.Cons)
	if err != nil {
		return err
	}
	res.PreFn, res.SrvFn, res.PostFn = split.pre, split.srv, split.post
	res.TransferA, res.TransferB = split.ta, split.tb
	res.XferSlots = split.slots
	res.NumXferSlots = len(split.slots)
	res.FormatA, err = headerFormat(split.ta)
	if err != nil {
		return fmt.Errorf("partition: pre→server header: %w", err)
	}
	res.FormatB, err = headerFormat(split.tb)
	if err != nil {
		return fmt.Errorf("partition: server→post header: %w", err)
	}
	return nil
}

func headerFormat(vars []TransferVar) (*packet.HeaderFormat, error) {
	fields := make([]packet.HeaderField, len(vars))
	for i, v := range vars {
		fields[i] = packet.HeaderField{Name: v.Name, Bits: v.Bits}
	}
	return packet.NewHeaderFormat(fields)
}
