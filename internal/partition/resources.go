package partition

import (
	"fmt"
	"slices"

	"gallium/internal/analysis/dataflow"
	"gallium/internal/deps"
	"gallium/internal/ir"
)

// enforceDepth implements Constraint 2 (§4.2.2): the longest dependency
// chain in offloaded code cannot exceed the switch's pipeline depth.
// Following the paper, it computes each statement's dependency distance
// from the program's entry and exit and strips "pre" labels beyond depth k
// from the entry and "post" labels beyond depth k from the exit.
func enforceDepth(g *deps.Graph, labels []LabelSet, c Constraints) error {
	k := c.PipelineDepth
	if k <= 0 {
		return fmt.Errorf("partition: pipeline depth must be positive")
	}
	into, from := chainLengths(g, func(int) bool { return true })
	for s := range g.N {
		if into[s] > k {
			labels[s] &^= LPre
		}
		if from[s] > k {
			labels[s] &^= LPost
		}
	}
	applyRulesFixpoint(g, labels, c)
	return nil
}

// partitionDepth reports the longest dependency chain among statements
// assigned to partition p (for the resource report).
func partitionDepth(g *deps.Graph, assignv []ID, p ID) int {
	into, _ := chainLengths(g, func(s int) bool { return assignv[s] == p })
	return slices.Max(append(into, 0))
}

// chainLengths measures the longest dependence chains through the
// statements keep accepts, over the acyclic part of g: into[s] counts the
// statements on the longest chain ending at s, from[s] those on the
// longest chain starting at s. Statements keep rejects, and those on a
// dependence cycle, are on no chain and get 0 in both.
func chainLengths(g *deps.Graph, keep func(s int) bool) (into, from []int) {
	star := g.DependsOnStar()
	on := func(s int) bool { return keep(s) && !star[s][s] }
	into, from = make([]int, g.N), make([]int, g.N)
	for s := range g.N {
		if on(s) {
			into[s], from[s] = 1, 1
		}
	}
	for changed := true; changed; {
		changed = false
		for s := range g.N {
			if !on(s) {
				continue
			}
			for _, e := range g.Out[s] {
				if !on(e.To) {
					continue
				}
				if d := into[s] + 1; d > into[e.To] {
					into[e.To] = d
					changed = true
				}
				if d := from[e.To] + 1; d > from[s] {
					from[s] = d
					changed = true
				}
			}
		}
	}
	return into, from
}

// switchMemory sums the sizes of globals that would live on the switch
// given the current labels: a global is switch-resident when any of its
// accesses still carries an offload label.
func switchMemory(g *deps.Graph, labels []LabelSet, c Constraints) int {
	resident := map[string]bool{}
	for _, s := range g.Fn.Stmts() {
		if gn := deps.GlobalAccessed(s); gn != "" && (labels[s.ID].Has(LPre) || labels[s.ID].Has(LPost)) {
			resident[gn] = true
		}
	}
	total := 0
	for gn := range resident {
		total += c.EffectiveSizeBytes(g.Prog.Global(gn))
	}
	return total
}

// enforceMemory implements Constraint 1: while offloaded state exceeds
// switch memory, remove "pre" labels in reverse source order, then "post"
// labels in source order (§4.2.2), re-running the label fixpoint after
// each removal.
func enforceMemory(p *ir.Program, g *deps.Graph, labels []LabelSet, c Constraints) error {
	if switchMemory(g, labels, c) <= c.SwitchMemoryBytes {
		return nil
	}
	stmts := g.Fn.Stmts()
	// Reverse order: strip pre labels from statements that pin a global to
	// the switch.
	for i := len(stmts) - 1; i >= 0; i-- {
		s := stmts[i]
		if deps.GlobalAccessed(s) == "" || !labels[s.ID].Has(LPre) {
			continue
		}
		labels[s.ID] &^= LPre
		applyRulesFixpoint(g, labels, c)
		if switchMemory(g, labels, c) <= c.SwitchMemoryBytes {
			return nil
		}
	}
	// Forward order: strip post labels.
	for _, s := range stmts {
		if deps.GlobalAccessed(s) == "" || !labels[s.ID].Has(LPost) {
			continue
		}
		labels[s.ID] &^= LPost
		applyRulesFixpoint(g, labels, c)
		if switchMemory(g, labels, c) <= c.SwitchMemoryBytes {
			return nil
		}
	}
	if switchMemory(g, labels, c) > c.SwitchMemoryBytes {
		return fmt.Errorf("partition: cannot satisfy switch memory constraint (%d > %d bytes)",
			switchMemory(g, labels, c), c.SwitchMemoryBytes)
	}
	return nil
}

// enforceSingleAccess implements Constraint 3: each offloaded global may
// be accessed once during packet processing. For every global with
// multiple offload-labeled accesses, it exhaustively tries keeping each
// single access on the switch, scores the resulting label state by the
// number of offloadable statements, and commits the best (§4.2.2).
func enforceSingleAccess(p *ir.Program, g *deps.Graph, labels []LabelSet, c Constraints) map[string]int {
	chosen := map[string]int{}
	if c.DisaggregatedRMT {
		// dRMT memory is reachable from every stage (§4.2.1 fn. 2): any
		// number of accesses may stay on the switch.
		return chosen
	}
	for _, gl := range p.Globals {
		accesses := []int{}
		for _, s := range g.Fn.Stmts() {
			if deps.GlobalAccessed(s) == gl.Name && (labels[s.ID].Has(LPre) || labels[s.ID].Has(LPost)) {
				accesses = append(accesses, s.ID)
			}
		}
		if len(accesses) == 0 {
			continue
		}
		if len(accesses) == 1 {
			chosen[gl.Name] = accesses[0]
			continue
		}
		bestScore := -1
		var bestLabels []LabelSet
		bestKeep := -1
		for _, keep := range accesses {
			trial := append([]LabelSet(nil), labels...)
			for _, a := range accesses {
				if a != keep {
					removeOffload(trial, a)
				}
			}
			applyRulesFixpoint(g, trial, c)
			if score := objective(g, trial, c); score > bestScore {
				bestScore, bestLabels, bestKeep = score, trial, keep
			}
		}
		copy(labels, bestLabels)
		if labels[bestKeep].Has(LPre) || labels[bestKeep].Has(LPost) {
			chosen[gl.Name] = bestKeep
		}
	}
	return chosen
}

// enforceMetaAndTransfer implements Constraints 4 and 5: build a trial
// split, measure per-packet metadata (max live register bits, i.e.
// scratchpad after slot reuse) and the two transfer header sizes, and
// greedily move offloaded statements to the server — pre statements from
// the boundary backwards, post statements from the boundary forwards, in
// the fixed topological order given by statement IDs (§4.2.2's greedy
// linear scan) — until both constraints hold.
func enforceMetaAndTransfer(p *ir.Program, g *deps.Graph, labels []LabelSet, c Constraints, _ map[string]int) error {
	for iter := 0; ; iter++ {
		if iter > g.N+1 {
			return fmt.Errorf("partition: metadata/transfer enforcement did not converge")
		}
		assignv := assign(labels)
		split, err := computeSplit(p, g, assignv, c)
		if err != nil {
			return err
		}
		metaBits := maxMetaBits(split.pre, split.post)
		taBytes := transferBytes(split.ta)
		tbBytes := transferBytes(split.tb)
		preOK := taBytes <= c.TransferBytes
		postOK := tbBytes <= c.TransferBytes
		metaOK := metaBits <= c.MetadataBytes*8
		if preOK && postOK && metaOK {
			return nil
		}
		moved := false
		if !preOK || !metaOK {
			// Latest pre-assigned statement in topological (ID) order.
			for id := g.N - 1; id >= 0; id-- {
				if assignv[id] == Pre && movable(g, id) {
					removeOffload(labels, id)
					applyRulesFixpoint(g, labels, c)
					moved = true
					break
				}
			}
		}
		if !moved && (!postOK || !metaOK) {
			// Earliest post-assigned statement.
			for id := 0; id < g.N; id++ {
				if assignv[id] == Post && movable(g, id) {
					removeOffload(labels, id)
					applyRulesFixpoint(g, labels, c)
					moved = true
					break
				}
			}
		}
		if !moved {
			// Nothing left to move on the violating side; try the other.
			for id := g.N - 1; id >= 0 && !moved; id-- {
				if assignv[id] != NonOff && movable(g, id) {
					removeOffload(labels, id)
					applyRulesFixpoint(g, labels, c)
					moved = true
				}
			}
			if !moved {
				return fmt.Errorf("partition: constraints 4/5 unsatisfiable (meta %d bits, transfers %d/%d bytes)",
					metaBits, taBytes, tbBytes)
			}
		}
	}
}

// movable reports whether a statement can be reassigned to the server.
// Terminators stay put: branches are replicated structurally in every
// partition, and send/drop ownership is what defines the fast path, so
// moving them never shrinks metadata or transfers.
func movable(g *deps.Graph, id int) bool {
	return !g.Fn.Stmt(id).Kind.IsTerminator()
}

func transferBytes(vars []TransferVar) int {
	bits := 0
	for _, v := range vars {
		bits += v.Bits
	}
	return (bits + 7) / 8
}

// maxMetaBits is the scratchpad requirement of the switch program: the
// worse of the two switch partitions' peak live-register widths.
func maxMetaBits(pre, post *ir.Function) int {
	return max(dataflow.MaxLiveBits(pre), dataflow.MaxLiveBits(post))
}
