package gallium_test

import (
	"context"
	"strings"
	"testing"

	gallium "gallium"
	"gallium/internal/analysis"
	"gallium/internal/ir"
)

// TestMergedStateExactCertificate: a program whose maps are keyed by the
// full ingress 5-tuple carries an Exact flow-affinity certificate, so
// WithMergedState must run the disjoint-union policy and reproduce every
// shard's entries in one state with no conflicts.
func TestMergedStateExactCertificate(t *testing.T) {
	art, err := gallium.Compile(analysis.FlowMapHostSource, gallium.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	cert := art.Affinity()
	if cert == nil || !cert.Exact() {
		t.Fatalf("flowmap certificate is not exact: %v", cert.Summary())
	}

	var merged *ir.State
	var exact bool
	var conflict string
	shardEntries := 0
	_, err = art.Run(context.Background(), iperfWorkload(8),
		gallium.WithWorkers(4),
		gallium.WithState(func(shard int, st *ir.State) {
			// Seed-phase visits see empty maps and contribute nothing;
			// the settle visits count each shard's final entries.
			shardEntries += st.Table("flows").Len()
		}),
		gallium.WithMergedState(func(m *ir.State, e bool, c string) {
			merged, exact, conflict = m, e, c
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !exact {
		t.Error("exact certificate did not select the exact merge policy")
	}
	if conflict != "" {
		t.Fatalf("exact merge reported a conflict: %s", conflict)
	}
	if merged == nil {
		t.Fatal("WithMergedState hook received a nil state without a conflict")
	}
	if shardEntries == 0 {
		t.Fatal("workload left no flow entries; the merge was vacuous")
	}
	if got := merged.Table("flows").Len(); got != shardEntries {
		t.Errorf("merged flows has %d entries, shards hold %d", got, shardEntries)
	}
}

// TestMergedStateRelaxedWithoutCertificate: a program that writes a
// scalar global on the data path is cross-flow, so the merge must fall
// back to the relaxed policy and never claim exactness.
func TestMergedStateRelaxedWithoutCertificate(t *testing.T) {
	art, err := gallium.Compile(analysis.ServerGlobalHostSource, gallium.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if cert := art.Affinity(); cert == nil || cert.Exact() {
		t.Fatalf("srvcounter certificate should be cross-flow: %v", cert)
	}

	called := false
	_, err = art.Run(context.Background(), iperfWorkload(4),
		gallium.WithWorkers(2),
		gallium.WithMergedState(func(m *ir.State, e bool, c string) {
			called = true
			if e {
				t.Error("cross-flow program merged under the exact policy")
			}
			if c != "" {
				t.Errorf("relaxed merge reported a conflict: %s", c)
			}
			if m == nil {
				t.Error("relaxed merge returned a nil state")
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("WithMergedState hook never ran")
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
