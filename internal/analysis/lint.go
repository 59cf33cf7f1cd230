package analysis

import (
	"fmt"

	"gallium/internal/analysis/dataflow"
	"gallium/internal/cfg"
	"gallium/internal/deps"
	"gallium/internal/ir"
)

// diag builds one diagnostic anchored at a statement (nil for
// program-level findings).
func diag(check, fn string, s *ir.Instr, format string, args ...any) Diagnostic {
	d := Diagnostic{
		Check:    check,
		Severity: checkSeverity(check),
		Message:  fmt.Sprintf(format, args...),
		Fn:       fn,
		Stmt:     -1,
	}
	if s != nil {
		d.Stmt = s.ID
		d.Line = s.Line
	}
	return d
}

// Lint runs the middlebox dataflow diagnostics over an input program:
// use-before-def, dead stores, unreachable blocks, unused globals,
// unchecked map misses, interval-proven header-width truncation, and the
// informational flow-affinity certificate. The program must be finalized
// (statement IDs assigned); it is not mutated.
func Lint(p *ir.Program) Diagnostics {
	var ds Diagnostics
	fn := p.Fn
	if fn == nil || len(fn.Blocks) == 0 {
		return ds
	}

	// lint/use-before-def — a register read on some entry path with no
	// prior write.
	for _, u := range maybeUninitUses(fn) {
		ds = append(ds, diag(CheckUseBeforeDef, fn.Name, u.stmt,
			"register %s (r%d) may be read before it is written", fn.RegName(u.reg), u.reg))
	}

	// lint/unreachable-block — blocks no entry path reaches. Empty blocks
	// (synthesized joins) are skipped; only lost code is worth a warning.
	graph := cfg.New(fn)
	reach := graph.Reachable()
	for _, b := range fn.Blocks {
		if b.ID != 0 && !reach[0][b.ID] && len(b.Instrs) > 0 {
			ds = append(ds, diag(CheckUnreachableBlock, fn.Name, &b.Instrs[0],
				"block %d (%d statements) is unreachable from entry", b.ID, len(b.Instrs)))
		}
	}

	// lint/dead-store — a pure definition whose results are never read.
	// Side-effecting kinds are exempt: the instruction is kept for its
	// effect regardless of its register results.
	live := dataflow.Liveness(fn)
	for _, b := range fn.Blocks {
		if live.Out[b.ID] == nil || b.ID != 0 && !reach[0][b.ID] {
			continue
		}
		dataflow.WalkLive(b, live.Out[b.ID], func(j int, after []bool) {
			if j < 0 {
				return
			}
			s := &b.Instrs[j]
			if !isPureDef(s.Kind) || len(s.Dst) == 0 {
				return
			}
			for _, r := range s.Dst {
				if after[r] {
					return
				}
			}
			ds = append(ds, diag(CheckDeadStore, fn.Name, s,
				"result of %s into %s (r%d) is never read", s.Kind, fn.RegName(s.Dst[0]), s.Dst[0]))
		})
	}

	// lint/unused-global — declared state no statement touches.
	accessed := map[string]bool{}
	for _, s := range fn.Stmts() {
		if gn := deps.GlobalAccessed(s); gn != "" {
			accessed[gn] = true
		}
	}
	for _, g := range p.Globals {
		if !accessed[g.Name] {
			ds = append(ds, diag(CheckUnusedGlobal, fn.Name, nil,
				"%s %q is declared but never accessed", g.Kind, g.Name))
		}
	}

	// lint/unchecked-map-miss — lookup values consumed while the found
	// flag is never tested: the miss path silently reads zeroes.
	usedRegs := dataflow.UsedRegs(fn)
	for _, s := range fn.Stmts() {
		if (s.Kind != ir.MapFind && s.Kind != ir.LpmFind) || len(s.Dst) < 2 {
			continue
		}
		found := s.Dst[0]
		valueUsed := false
		for _, v := range s.Dst[1:] {
			if usedRegs[v] {
				valueUsed = true
				break
			}
		}
		if valueUsed && !usedRegs[found] {
			ds = append(ds, diag(CheckUncheckedMapMiss, fn.Name, s,
				"%s values are used but the found flag %s (r%d) is never tested; a reachable miss reads zero values",
				s.Obj, fn.RegName(found), found))
		}
	}

	// interval/width-truncation — a reachable header store whose proven
	// value range exceeds the field width. The interval analysis replaces
	// the old register-type heuristic: a u32 register provably masked to
	// 8 bits no longer warns, while a genuinely wide value still does.
	iv := dataflow.AnalyzeIntervals(p)
	for _, tr := range iv.Truncations {
		d := diag(CheckIntervalTruncation, fn.Name, fn.Stmt(tr.Stmt),
			"storing %s (range %s) into %d-bit field %s can truncate",
			fn.RegName(fn.Stmt(tr.Stmt).Args[0]), tr.Val, tr.FieldBits, tr.Field)
		d.Notes = tr.Why
		ds = append(ds, d)
	}

	// affinity/certificate — the machine-checked flow-affinity verdict
	// for each map, plus any data-path scalar writes. Informational: the
	// certificate itself lives in partition.Result; these surface it in
	// -vet output and the JSON report.
	aff := dataflow.AnalyzeAffinity(p)
	for _, name := range aff.MapNames() {
		m := aff.Maps[name]
		d := diag(CheckAffinityCertificate, fn.Name, nil,
			"map %q flow-affinity: %s (%d access site(s))", name, m.Verdict, len(m.Sites))
		for _, site := range m.Sites {
			if site.Verdict == m.Verdict {
				d.Stmt = site.Stmt
				d.Line = site.Line
				d.Notes = site.Why
				break
			}
		}
		ds = append(ds, d)
	}
	for _, name := range aff.WrittenGlobals() {
		site := aff.GlobalWrites[name][0]
		d := diag(CheckAffinityCertificate, fn.Name, fn.Stmt(site.Stmt),
			"global %q is written on the data path: state aggregates across flows (multi-worker merges are relaxed)", name)
		d.Notes = site.Why
		ds = append(ds, d)
	}

	ds.Sort()
	return ds
}

// isPureDef reports whether the kind's only observable effect is writing
// its destination registers.
func isPureDef(k ir.Kind) bool {
	switch k {
	case ir.Const, ir.BinOp, ir.Not, ir.Convert, ir.LoadHeader, ir.Hash,
		ir.VecGet, ir.VecLen, ir.GlobalLoad:
		return true
	}
	return false
}
