package gallium_test

import (
	"context"
	"strings"
	"testing"

	gallium "gallium"
	"gallium/internal/analysis"
	"gallium/internal/ir"
)

// finalStates runs the workload on workers shards and returns each
// shard's final state, cloned in the WithState hook's settle visit (the
// seed visit comes first, so the settle clone is the one kept).
func finalStates(t *testing.T, art *gallium.Artifacts, wl gallium.Workload, workers int) []*ir.State {
	t.Helper()
	states := make([]*ir.State, workers)
	_, err := art.Run(context.Background(), wl, gallium.WithWorkers(workers),
		gallium.WithState(func(shard int, st *ir.State) { states[shard] = st.Clone() }))
	if err != nil {
		t.Fatal(err)
	}
	return states
}

// TestMergedStateExactCertificate: a program whose maps are keyed by the
// full ingress 5-tuple carries an Exact flow-affinity certificate, so
// MergeShardStates must run the disjoint-union policy over a run's shard
// states and reproduce every shard's entries in one state with no
// conflicts.
func TestMergedStateExactCertificate(t *testing.T) {
	art, err := gallium.Compile(analysis.FlowMapHostSource, gallium.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	cert := art.Affinity()
	if cert == nil || !cert.Exact() {
		t.Fatalf("flowmap certificate is not exact: %v", cert.Summary())
	}

	states := finalStates(t, art, iperfWorkload(8), 4)
	shardEntries := 0
	for _, st := range states {
		shardEntries += st.Table("flows").Len()
	}
	merged, exact, conflict := art.MergeShardStates(states)
	if !exact {
		t.Error("exact certificate did not select the exact merge policy")
	}
	if conflict != "" {
		t.Fatalf("exact merge reported a conflict: %s", conflict)
	}
	if merged == nil {
		t.Fatal("exact merge returned a nil state without a conflict")
	}
	if shardEntries == 0 {
		t.Fatal("workload left no flow entries; the merge was vacuous")
	}
	if got := merged.Table("flows").Len(); got != shardEntries {
		t.Errorf("merged flows has %d entries, shards hold %d", got, shardEntries)
	}
}

// TestMergedStateRelaxedWithoutCertificate: a program that writes a
// scalar global on the data path is cross-flow, so the merge of a run's
// shard states must fall back to the relaxed policy and never claim
// exactness.
func TestMergedStateRelaxedWithoutCertificate(t *testing.T) {
	art, err := gallium.Compile(analysis.ServerGlobalHostSource, gallium.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if cert := art.Affinity(); cert == nil || cert.Exact() {
		t.Fatalf("srvcounter certificate should be cross-flow: %v", cert)
	}

	m, e, c := art.MergeShardStates(finalStates(t, art, iperfWorkload(4), 2))
	if e {
		t.Error("cross-flow program merged under the exact policy")
	}
	if c != "" {
		t.Errorf("relaxed merge reported a conflict: %s", c)
	}
	if m == nil {
		t.Error("relaxed merge returned a nil state")
	}
}

// TestMergeShardStatesConflict: shard states that share a map key
// falsify an exact certificate; the merge must refuse and say why.
func TestMergeShardStatesConflict(t *testing.T) {
	art, err := gallium.Compile(analysis.FlowMapHostSource, gallium.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	a, b := ir.NewState(art.Prog), ir.NewState(art.Prog)
	k := ir.MakeMapKey(1, 2, 3, 4, 6)
	a.MapInsert("flows", k, []uint64{100})
	b.MapInsert("flows", k, []uint64{200})
	merged, exact, conflict := art.MergeShardStates([]*ir.State{a, b})
	if !exact {
		t.Error("exact certificate did not select the exact merge policy")
	}
	if conflict == "" || !strings.Contains(conflict, "flows") {
		t.Fatalf("duplicate key not reported as a conflict: %q", conflict)
	}
	if merged != nil {
		t.Error("conflicting merge returned a state")
	}
}
