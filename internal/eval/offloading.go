package eval

import (
	"fmt"
	"sort"
	"strings"

	"gallium"
	"gallium/internal/ir"
	"gallium/internal/partition"
)

// OffloadReport reproduces §6.2 ("What's offloaded?") as a structured
// report: for each middlebox, which state landed on the switch and in what
// P4 realization, how the statements split, and which operations force
// packets to the server.

// StateRealization describes one offloaded global.
type StateRealization struct {
	Name string
	Kind ir.GlobalKind
	// Realization is the P4 construct ("exact-match table", "register",
	// "lpm table", "indexed table").
	Realization string
	SizeBytes   int
}

// SlowPathCause is one server-side operation class keeping packets off the
// fast path.
type SlowPathCause struct {
	What  string
	Count int
}

// OffloadSummary is the per-middlebox §6.2 row.
type OffloadSummary struct {
	Middlebox      string
	Pre, Srv, Post int
	OffloadPct     float64
	SwitchState    []StateRealization
	ServerState    []string
	SlowPathCauses []SlowPathCause
	TransferABytes int
	TransferBBytes int
}

// Offloading builds the §6.2 report for the five evaluation middleboxes.
func Offloading() ([]OffloadSummary, error) {
	compiled, err := CompileAll()
	if err != nil {
		return nil, err
	}
	var out []OffloadSummary
	for _, c := range compiled {
		out = append(out, summarize(c))
	}
	return out, nil
}

func summarize(c *gallium.Artifacts) OffloadSummary {
	res := c.Res
	s := OffloadSummary{
		Middlebox:      c.Name,
		Pre:            res.Report.NumPre,
		Srv:            res.Report.NumSrv,
		Post:           res.Report.NumPost,
		OffloadPct:     100 * res.Report.OffloadFraction(),
		TransferABytes: res.FormatA.DataLen(),
		TransferBBytes: res.FormatB.DataLen(),
	}
	offloaded := map[string]bool{}
	for _, gn := range res.OffloadedGlobals {
		offloaded[gn] = true
		g := res.Prog.Global(gn)
		real := "exact-match table"
		switch {
		case g.Kind == ir.KindScalar:
			real = "register"
		case g.Kind == ir.KindLPM:
			real = "lpm table"
		case g.Kind == ir.KindVec:
			access := res.Prog.Fn.Stmt(res.SwitchAccess[gn])
			if access.Kind == ir.VecGet {
				real = "indexed table"
			} else {
				real = "length register"
			}
		}
		s.SwitchState = append(s.SwitchState, StateRealization{
			Name: gn, Kind: g.Kind, Realization: real,
			SizeBytes: res.Cons.EffectiveSizeBytes(g),
		})
	}
	for _, g := range res.Prog.Globals {
		if !offloaded[g.Name] {
			s.ServerState = append(s.ServerState, g.Name)
		}
	}

	causes := map[string]int{}
	for id, a := range res.Assign {
		if a != partition.NonOff {
			continue
		}
		switch st := res.Prog.Fn.Stmt(id); st.Kind {
		case ir.MapInsert, ir.MapRemove, ir.GlobalStore:
			causes["state updates (server-only writes, §4.3.3)"]++
		case ir.PayloadMatch:
			causes["deep packet inspection (payload access, §2.2)"]++
		case ir.Hash:
			causes["hash computation (no P4 primitive used, §7)"]++
		case ir.BinOp:
			if !st.Op.P4Supported() {
				causes[fmt.Sprintf("unsupported ALU op (%s)", st.Op)]++
			}
		}
	}
	for what, n := range causes {
		s.SlowPathCauses = append(s.SlowPathCauses, SlowPathCause{What: what, Count: n})
	}
	sort.Slice(s.SlowPathCauses, func(i, j int) bool { return s.SlowPathCauses[i].What < s.SlowPathCauses[j].What })
	return s
}

// FormatOffloading renders the §6.2 narrative.
func FormatOffloading(rows []OffloadSummary) string {
	var b strings.Builder
	b.WriteString("What's offloaded (§6.2)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %s: %d pre + %d server + %d post statements (%.0f%% offloaded)\n",
			r.Middlebox, r.Pre, r.Srv, r.Post, r.OffloadPct)
		for _, st := range r.SwitchState {
			fmt.Fprintf(&b, "    switch: %s %q -> %s (%d bytes)\n", st.Kind, st.Name, st.Realization, st.SizeBytes)
		}
		if len(r.ServerState) > 0 {
			fmt.Fprintf(&b, "    server-resident state: %s\n", strings.Join(r.ServerState, ", "))
		}
		for _, cz := range r.SlowPathCauses {
			fmt.Fprintf(&b, "    slow path: %d× %s\n", cz.Count, cz.What)
		}
		if r.Srv == 0 {
			fmt.Fprintf(&b, "    all packet processing happens in the programmable switch\n")
		}
		fmt.Fprintf(&b, "    transfer headers: %dB pre→server, %dB server→post\n", r.TransferABytes, r.TransferBBytes)
	}
	return b.String()
}
