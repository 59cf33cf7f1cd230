package gallium_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gallium"
	"gallium/internal/middleboxes"
)

var update = flag.Bool("update", false, "rewrite golden files with current compiler output")

// TestGoldenArtifacts pins the emitted P4 and server programs for every
// harnessed middlebox byte-for-byte — the paper five plus the
// scenario-diversity set (tunlb, synproxy, mssclamp, firewall6) — and
// the partitioner's resource report, whose chain depths and live
// metadata width the other tests only check against budgets.
// Codegen churn is invisible in unit tests and expensive to review after
// the fact; this makes every output change show up as a reviewable diff.
// Run `go test -run Golden -update .` after an intentional change.
func TestGoldenArtifacts(t *testing.T) {
	t.Parallel()
	for _, spec := range middleboxes.Extended() {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			art, err := gallium.Compile(spec.Source, gallium.Options{})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			compareGolden(t, filepath.Join("testdata", "golden", spec.Name+".p4"), art.P4.Source)
			compareGolden(t, filepath.Join("testdata", "golden", spec.Name+".server"), art.Server.Source)
			compareGolden(t, filepath.Join("testdata", "golden", spec.Name+".report"), fmt.Sprintf("%+v\n", art.Res.Report))
		})
	}
}

func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run Golden -update .`): %v", err)
	}
	if string(want) != got {
		t.Errorf("%s differs from golden output; diff the file against the compiler output,\n"+
			"and run `go test -run Golden -update .` if the change is intentional", path)
		line := 1
		for i := 0; i < len(got) && i < len(want); i++ {
			if want[i] != got[i] {
				t.Logf("first difference at %s:%d", path, line)
				break
			}
			if want[i] == '\n' {
				line++
			}
		}
	}
}
