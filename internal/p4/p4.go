// Package p4 generates the deployable switch program from a partitioned
// middlebox (§4.3.1): the pre- and post-processing partitions become a
// single P4 program — header definitions (including the synthesized
// Gallium headers), a parser, match-action tables for offloaded maps,
// registers for offloaded scalars/vector metadata, and an ingress control
// that dispatches on the packet's ingress port (server-facing port runs
// the post pipeline, everything else runs pre).
//
// The switch simulator executes the partition functions directly; the
// rendered P4-16-style source is the deployable artifact (and the unit
// Table 1 counts).
package p4

import (
	"sort"
	"strings"

	"gallium/internal/ir"
	"gallium/internal/partition"
)

// Table is one match-action table on the switch, realizing an offloaded
// map (exact match on the key tuple) or vector (exact match on the index).
type Table struct {
	Name string
	// Global is the middlebox state this table realizes.
	Global *ir.Global
	// KeyBits are the match key widths; ValBits the action-data widths.
	KeyBits []int
	ValBits []int
	// Lpm marks a longest-prefix-match table (§7 extension).
	Lpm bool
	// Stmt is the statement ID of the single offloaded access.
	Stmt int
}

// Entries returns the annotated capacity.
func (t *Table) Entries() int { return t.Global.MaxEntries }

// Register is switch register state realizing an offloaded scalar global
// or a vector's length word.
type Register struct {
	Name   string
	Global *ir.Global
	Bits   int
	// Length marks a vector-length register (vs the scalar value itself).
	Length bool
}

// Program is the generated switch program.
type Program struct {
	Middlebox string
	Tables    []Table
	Registers []Register
	// Pre and Post are the executable pipeline partitions.
	Pre, Post *ir.Function
	// Source is the rendered P4-16-style program text.
	Source string
	// Resources summarizes what the program consumes.
	Resources Resources
}

// Resources is the switch-side resource accounting.
type Resources struct {
	MemoryBytes   int
	MetadataBits  int
	PipelineDepth int
	TransferABits int
	TransferBBits int
}

// Generate builds the switch program from a partition result.
func Generate(res *partition.Result) (*Program, error) {
	p := &Program{
		Middlebox: res.Prog.Name,
		Pre:       res.PreFn,
		Post:      res.PostFn,
	}
	names := append([]string(nil), res.OffloadedGlobals...)
	sort.Strings(names)
	for _, gn := range names {
		g := res.Prog.Global(gn)
		stmt := res.SwitchAccess[gn]
		switch g.Kind {
		case ir.KindMap:
			t := Table{Name: "tbl_" + gn, Global: g, Stmt: stmt}
			for _, kt := range g.KeyTypes {
				t.KeyBits = append(t.KeyBits, kt.Bits())
			}
			for _, vt := range g.ValTypes {
				t.ValBits = append(t.ValBits, vt.Bits())
			}
			p.Tables = append(p.Tables, t)
		case ir.KindVec:
			// A vector offloads as an index-keyed table plus a length
			// register; which one is needed depends on the access.
			access := res.Prog.Fn.Stmt(stmt)
			if access.Kind == ir.VecGet {
				p.Tables = append(p.Tables, Table{
					Name: "tbl_" + gn, Global: g, Stmt: stmt,
					KeyBits: []int{32}, ValBits: []int{g.ValTypes[0].Bits()},
				})
			} else {
				p.Registers = append(p.Registers, Register{
					Name: "reg_" + gn + "_len", Global: g, Bits: 32, Length: true,
				})
			}
		case ir.KindScalar:
			p.Registers = append(p.Registers, Register{
				Name: "reg_" + gn, Global: g, Bits: g.ValTypes[0].Bits(),
			})
		case ir.KindLPM:
			t := Table{Name: "tbl_" + gn, Global: g, Stmt: stmt, KeyBits: []int{32}, Lpm: true}
			for _, vt := range g.ValTypes {
				t.ValBits = append(t.ValBits, vt.Bits())
			}
			p.Tables = append(p.Tables, t)
		}
	}
	p.Resources = Resources{
		MemoryBytes:   res.Report.SwitchMemoryBytes,
		MetadataBits:  res.Report.MaxMetadataBits,
		PipelineDepth: max(res.Report.DepthPre, res.Report.DepthPost),
		TransferABits: res.FormatA.DataLen() * 8,
		TransferBBits: res.FormatB.DataLen() * 8,
	}
	p.Source = render(res, p)
	return p, nil
}

// LinesOfCode counts non-blank lines of the rendered program (the unit of
// the paper's Table 1).
func (p *Program) LinesOfCode() int {
	n := 0
	for _, line := range strings.Split(p.Source, "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}

// TableFor returns the table realizing the named global, if any.
func (p *Program) TableFor(global string) (*Table, bool) {
	for i := range p.Tables {
		if p.Tables[i].Global.Name == global {
			return &p.Tables[i], true
		}
	}
	return nil, false
}

// RegisterFor returns the register realizing the named global, if any.
func (p *Program) RegisterFor(global string) (*Register, bool) {
	for i := range p.Registers {
		if p.Registers[i].Global.Name == global {
			return &p.Registers[i], true
		}
	}
	return nil, false
}
