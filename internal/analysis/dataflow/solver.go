// Package dataflow is a reusable forward/backward dataflow engine over
// the Gallium IR and its CFG: a worklist solver parameterized by a
// lattice (Problem), producing per-block in/out states that client
// passes replay per instruction to build source-line-aware diagnostics.
//
// Three production clients live here. AnalyzeAffinity runs a
// taint/provenance lattice over the ingress five-tuple and emits the
// per-map flow-affinity certificate stored in partition.Result — the
// machine-checked version of difftest's declared ShardSafe bit.
// AnalyzeIntervals runs a value-range lattice that proves header writes
// fit their P4 field widths, flagging only reachable truncations
// (interval/width-truncation, the sound replacement for the old
// lint/width-truncation heuristic). Liveness is the backward register
// liveness behind the switch partitions' metadata budget (MaxLiveBits,
// §4.2.2 constraint 4) and the dead-store lint (WalkLive).
package dataflow

import (
	"gallium/internal/cfg"
	"gallium/internal/ir"
)

// Direction orients a Problem: Forward propagates facts from the entry
// block along control-flow edges; Backward propagates from the exit
// blocks (Send/Drop/ToNext terminators) against them.
type Direction int

const (
	Forward Direction = iota
	Backward
)

// Problem is one dataflow analysis: a lattice of states S plus the
// transfer function of a whole block. The solver never inspects S — a
// state is whatever the client wants (bitset, taint vector, interval
// map) as long as the lattice operations below are consistent.
//
// Bottom is the "unreached" state: the solver seeds every interior
// block with it and skips Transfer while a block's input is still
// bottom, so clients may treat the Transfer input as a real state.
// Join must be an upper bound (monotone with Transfer, or the solver
// may not terminate without widening).
type Problem[S any] interface {
	Direction() Direction
	// Boundary is the state at the program boundary: the entry block's
	// input (Forward) or every exit block's input (Backward).
	Boundary() S
	// Bottom is the unreached state; IsBottom recognizes it.
	Bottom() S
	IsBottom(s S) bool
	// Join combines states meeting at a control-flow merge. Neither
	// argument is bottom.
	Join(a, b S) S
	// Transfer pushes a non-bottom state through a whole block: over its
	// instructions in order for Forward problems, in reverse for
	// Backward ones.
	Transfer(b *ir.Block, in S) S
	// Equal decides fixpoint: true when two states carry the same facts.
	Equal(a, b S) bool
}

// EdgeRefiner is an optional Problem extension for path-sensitive
// forward analyses: FlowEdge sees the out-state of `from` on its way to
// block `to` and may sharpen it using the branch condition (interval
// analysis narrows ranges on comparison edges). Returning bottom marks
// the edge infeasible.
type EdgeRefiner[S any] interface {
	FlowEdge(from *ir.Block, to int, out S) S
}

// Widener is an optional Problem extension for lattices with unbounded
// ascending chains: after widenAfter joins at the same block, the
// solver routes the block's input through Widen(prev, next), which must
// jump far enough up the lattice to terminate (intervals widen to the
// full type range).
type Widener[S any] interface {
	Widen(prev, next S) S
}

// widenAfter is how many times a block's input may change before the
// solver starts widening. Three updates let short chains (a loop-free
// diamond joining twice, one loop back-edge) settle precisely.
const widenAfter = 3

// Result holds the solved fixpoint: the state at each block's entry
// (In) and exit (Out), indexed by block ID. Blocks the propagation never
// reaches keep bottom in both: for a forward problem those the entry
// does not reach, for a backward one those that reach no exit. Clients
// replay Transfer's per-instruction steps from In[b] to attribute facts
// to statements and source lines.
type Result[S any] struct {
	In, Out []S
}

// Solve runs the worklist algorithm to fixpoint over fn and returns the
// per-block states. The function must be finalized (block IDs assigned).
func Solve[S any](fn *ir.Function, p Problem[S]) *Result[S] {
	g := cfg.New(fn)
	n := len(fn.Blocks)
	res := &Result[S]{In: make([]S, n), Out: make([]S, n)}
	for i := 0; i < n; i++ {
		res.In[i] = p.Bottom()
		res.Out[i] = p.Bottom()
	}
	if n == 0 {
		return res
	}
	fwd := p.Direction() == Forward
	refiner, _ := p.(EdgeRefiner[S])
	widener, _ := p.(Widener[S])

	// Seed the worklist in a propagation-friendly order: reverse
	// postorder for forward problems, postorder for backward ones.
	order := postorder(g)
	if fwd {
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}
	queued := make([]bool, n)
	updates := make([]int, n)
	queue := make([]int, 0, n)
	for _, b := range order {
		queue = append(queue, b)
		queued[b] = true
	}
	if !fwd {
		// A backward problem starts at every exit, whether the entry
		// reaches it or not.
		for b := range n {
			if !queued[b] {
				queue = append(queue, b)
				queued[b] = true
			}
		}
	}

	// same reports "no new information": two bottoms are identical even
	// though Equal is only defined on real states. Without the bottom
	// case, a cycle of infeasible blocks (an edge refiner proved the
	// loop entry dead) would requeue itself forever.
	same := func(a, b S) bool {
		ab, bb := p.IsBottom(a), p.IsBottom(b)
		if ab || bb {
			return ab && bb
		}
		return p.Equal(a, b)
	}

	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		queued[b] = false
		blk := fn.Blocks[b]

		// Gather this block's input: joined edge states, plus the
		// boundary state at the program boundary.
		in := p.Bottom()
		if fwd && b == 0 || !fwd && isExit(g, blk) {
			in = p.Boundary()
		}
		edges := g.Preds[b]
		if !fwd {
			edges = g.Succs[b]
		}
		for _, e := range edges {
			var s S
			if fwd {
				s = res.Out[e]
				if refiner != nil && !p.IsBottom(s) {
					s = refiner.FlowEdge(fn.Blocks[e], b, s)
				}
			} else {
				s = res.In[e]
			}
			if p.IsBottom(s) {
				continue
			}
			if p.IsBottom(in) {
				in = s
			} else {
				in = p.Join(in, s)
			}
		}

		// prev/next naming: In[b] is the entry state and Out[b] the exit
		// state in program order, so a backward problem's "input" lands
		// in Out and its transfer result in In.
		prev := res.In[b]
		if !fwd {
			prev = res.Out[b]
		}
		if same(prev, in) {
			continue
		}
		if widener != nil && !p.IsBottom(prev) && !p.IsBottom(in) {
			updates[b]++
			if updates[b] >= widenAfter {
				in = widener.Widen(prev, in)
				if p.Equal(prev, in) {
					continue
				}
			}
		}
		var out S
		if p.IsBottom(in) {
			out = p.Bottom()
		} else {
			out = p.Transfer(blk, in)
		}
		var prevOut S
		if fwd {
			prevOut = res.Out[b]
			res.In[b], res.Out[b] = in, out
		} else {
			prevOut = res.In[b]
			res.Out[b], res.In[b] = in, out
		}
		if same(prevOut, out) {
			continue
		}
		next := g.Succs[b]
		if !fwd {
			next = g.Preds[b]
		}
		for _, s := range next {
			if !queued[s] {
				queue = append(queue, s)
				queued[s] = true
			}
		}
	}
	return res
}

// isExit reports whether blk ends the packet's traversal of this
// function: Send, Drop, or ToNext terminators, plus any block the CFG
// gives no successors (defensive — finalized IR always terminates).
func isExit(g *cfg.Graph, blk *ir.Block) bool {
	if len(g.Succs[blk.ID]) == 0 {
		return true
	}
	switch blk.Term.Kind {
	case ir.Send, ir.Drop, ir.ToNext:
		return true
	}
	return false
}

// postorder returns the IDs of blocks reachable from the entry in DFS
// postorder.
func postorder(g *cfg.Graph) []int {
	n := len(g.Fn.Blocks)
	seen := make([]bool, n)
	order := make([]int, 0, n)
	var walk func(int)
	walk = func(b int) {
		seen[b] = true
		for _, s := range g.Succs[b] {
			if !seen[s] {
				walk(s)
			}
		}
		order = append(order, b)
	}
	if n > 0 {
		walk(0)
	}
	return order
}
