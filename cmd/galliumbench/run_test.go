package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestRunUnknownExperiment checks that a mistyped -exp fails and that the
// error lists every experiment the table holds, plus "all".
func TestRunUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, "fig10", true)
	if err == nil {
		t.Fatal("unknown experiment ran")
	}
	for _, e := range experiments {
		if !strings.Contains(err.Error(), e.name) {
			t.Errorf("error %q does not name %q", err, e.name)
		}
	}
	if !strings.Contains(err.Error(), "all") {
		t.Errorf("error %q does not name \"all\"", err)
	}
	if out.Len() != 0 {
		t.Errorf("unknown experiment printed:\n%s", out.String())
	}
}

// TestQuickGolden runs each deterministic experiment alone at -quick and
// requires its output to match testdata/quick/<exp>.golden byte for byte,
// so a refactor of internal/eval that moves any printed number fails here.
// scale and flows time the host and stay out. A golden is regenerated
// with `go run ./cmd/galliumbench -exp <exp> -quick >
// cmd/galliumbench/testdata/quick/<exp>.golden`, and every changed line
// must be explained where the change is recorded.
func TestQuickGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other targets may fuse multiply-adds and move a last digit.
		t.Skipf("goldens are pinned on amd64, not %s", runtime.GOARCH)
	}
	for _, exp := range []string{"table1", "offloading", "fig7", "table2", "table3", "fig8", "fig9", "loadsweep", "ablation", "headline"} {
		t.Run(exp, func(t *testing.T) {
			t.Parallel()
			var out bytes.Buffer
			if err := run(&out, exp, true); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "quick", exp+".golden")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := out.String(); got != string(want) {
				t.Errorf("-exp %s -quick drifted from %s:\n--- got ---\n%s--- want ---\n%s", exp, path, got, want)
			}
		})
	}
}
