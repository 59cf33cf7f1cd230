package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// The smoke test runs every workload briefly: it checks the plumbing
// (schema, correctness accounting, determinism of inputs and counts,
// independence of the heap reading), not the numbers.
const smokeSeconds = 0.3

type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func smoke(t *testing.T, workload string, seed int64) *result {
	t.Helper()
	res, err := runUntraced(workload, seed, smokeSeconds, 1)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
		t.Errorf("%s: attempted %d, failed %d, correct %v", workload, res.Attempted, res.Failed, res.Correct)
	}
	return res
}

func TestSmoke(t *testing.T) {
	contract := readBenchmarkFile(t)
	// churn runs first, alone in a fresh process, and again after the
	// others: same seed, so the same inputs, counts and live heap.
	alone := smoke(t, "churn", 7)
	runs := map[string]*result{}
	for _, w := range workloadNames {
		runs[w] = smoke(t, w, 7)
	}
	for w, res := range runs {
		if len(res.Metrics) != len(contract.EndToEnd) {
			t.Errorf("%s: %d metrics, BENCHMARK.json names %d", w, len(res.Metrics), len(contract.EndToEnd))
		}
		for _, m := range contract.EndToEnd {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value <= 0 {
				t.Errorf("%s: metric %s = %+v (present %v), want a positive finite value in %s", w, m.Name, got, ok, m.Unit)
			}
		}
	}

	after := runs["churn"]
	if a, b := alone.Metrics["live_heap_mb"].Value, after.Metrics["live_heap_mb"].Value; math.Abs(a-b) > 0.05*a {
		t.Errorf("churn live_heap_mb: %.2f alone, %.2f after the other workloads", a, b)
	}
	again := map[string]*result{"churn": alone, "steady": smoke(t, "steady", 7), "mix": smoke(t, "mix", 7)}
	for w, second := range again {
		first := runs[w]
		if first.InputDigest != second.InputDigest {
			t.Errorf("%s: one seed gave inputs %s and %s", w, first.InputDigest, second.InputDigest)
		}
		for name, v := range first.Counts {
			if second.Counts[name] != v {
				t.Errorf("%s: count %s = %v, then %v with the same seed", w, name, v, second.Counts[name])
			}
		}
	}
	// Another seed gives other inputs; on churn, where flow lengths are
	// drawn from the seed, other counts too. (On steady and mix every
	// seed's established flows stay on the fast path: 100%, 0, 0.)
	other := smoke(t, "churn", 8)
	if other.InputDigest == alone.InputDigest {
		t.Errorf("churn: seeds 7 and 8 gave the same inputs")
	}
	same := true
	for name, v := range alone.Counts {
		same = same && other.Counts[name] == v
	}
	if same {
		t.Errorf("churn: seeds 7 and 8 gave the same counts %v", alone.Counts)
	}
}

func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced run's layer probes take ~20 s")
	}
	contract := readBenchmarkFile(t)
	dir := t.TempDir()
	res, err := runTraced("churn", 7, smokeSeconds, dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Errorf("traced churn: failed %d of %d", res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(contract.PerLayer) {
		t.Errorf("traced run printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(contract.PerLayer))
	}
	for _, m := range contract.PerLayer {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("per-layer metric %s = %+v (present %v), want a finite value in %s", m.Name, got, ok, m.Unit)
		}
	}
	var doc struct {
		Budget []layerRow
		Spans  []json.RawMessage
	}
	data, err := os.ReadFile(dir + "/trace.churn.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) == 0 || len(doc.Budget) == 0 {
		t.Fatalf("trace file holds %d spans, %d budget rows", len(doc.Spans), len(doc.Budget))
	}
	// The budget sums to the engine's raw ns/packet by construction.
	var sum float64
	for _, r := range doc.Budget {
		sum += r.NsPerPkt
	}
	if raw := res.Metrics["engine.ns_per_pkt_raw"].Value; math.Abs(sum-raw) > 1e-6*raw {
		t.Errorf("layer budget sums to %.1f, engine.ns_per_pkt_raw is %.1f", sum, raw)
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(vals), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}
