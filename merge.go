package gallium

import (
	"fmt"

	"gallium/internal/analysis/dataflow"
	"gallium/internal/ir"
)

// FlowAffinity is the flow-affinity certificate the partitioner derives
// for every compiled program: a machine-checked, per-map answer to "is
// cross-packet state partitioned by ingress flow?". See
// internal/analysis/dataflow for the underlying taint analysis.
type FlowAffinity = dataflow.Affinity

// Affinity returns the artifacts' flow-affinity certificate, or nil when
// no partition result is attached.
func (a *Artifacts) Affinity() *FlowAffinity {
	if a.Res == nil {
		return nil
	}
	return a.Res.Affinity
}

// MergeShardStates combines per-worker final states into one view, with
// the merge policy selected by the flow-affinity certificate.
//
// When the certificate is Exact — every map key a pure flow identity, no
// scalar global written — concurrent shards partition state exactly, so
// the merge is the disjoint union of map entries with scalars required
// identical across shards. Any violation falsifies the certificate; it
// is returned as a non-empty conflict with a nil merged state, and
// callers should treat it like a failed differential run.
//
// Otherwise the merge is relaxed: map entries union with later shards
// winning key collisions, and scalars, vectors, and LPM tables keep
// shard 0's values. That is a diagnostic view — cross-flow state
// legitimately interleaves under concurrency and has no sequential
// equivalent to reconstruct.
//
// exact reports which policy ran. A nil or empty states slice returns a
// nil merged state.
func (a *Artifacts) MergeShardStates(states []*ir.State) (merged *ir.State, exact bool, conflict string) {
	if len(states) == 0 {
		return nil, false, ""
	}
	cert := a.Affinity()
	exact = cert != nil && cert.Exact()
	merged = states[0].Clone()
	for si, st := range states[1:] {
		for gi, tb := range st.Tables {
			if tb == nil {
				continue
			}
			mt := merged.Tables[gi]
			tb.Range(func(e int32) bool {
				k, v := tb.Key(e), tb.Vals(e)
				if me := mt.Find(&k); me >= 0 && exact {
					conflict = fmt.Sprintf(
						"map %s: key %v present on multiple shards (%v vs %v) despite an exact certificate",
						tb.Name(), k, mt.Vals(me), v)
					return false
				}
				_, _ = mt.Put(&k, v) // shards share the declaration: it fits
				return true
			})
			if conflict != "" {
				return nil, true, conflict
			}
		}
		if !exact {
			continue
		}
		for name, v := range st.Globals {
			if mv := merged.Globals[name]; mv != v {
				return nil, true, fmt.Sprintf(
					"global %s: shard 0 has %d, shard %d has %d despite an exact certificate",
					name, mv, si+1, v)
			}
		}
	}
	return merged, exact, ""
}
