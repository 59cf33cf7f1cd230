package main

import (
	"bytes"
	"errors"
	"flag"
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
	err := run([]string{"-exp", "fig10", "-quick"}, &out)
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

// TestRefusedFlags checks that a flag galliumbench does not know fails as
// a usage error that names it, before anything runs, and that -h asks for
// help rather than failing.
func TestRefusedFlags(t *testing.T) {
	var out bytes.Buffer
	var usage usageError
	err := run([]string{"-cpuprofile", "cpu.out"}, &out)
	if !errors.As(err, &usage) || !strings.Contains(err.Error(), "-cpuprofile") {
		t.Errorf("galliumbench -cpuprofile: error %v, want a usage error naming the flag", err)
	}
	if err := run([]string{"-h"}, &out); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("galliumbench -h: error %v, want flag.ErrHelp", err)
	}
	if out.Len() != 0 {
		t.Errorf("a refused command line printed:\n%s", out.String())
	}
}

// TestQuickGolden runs each experiment alone at -quick and requires its
// output to match testdata/quick/<exp>.golden byte for byte, so a refactor
// of internal/eval that moves any printed number fails here, and so does
// an experiment added without a golden. A golden is regenerated
// with `go run ./cmd/galliumbench -exp <exp> -quick >
// cmd/galliumbench/testdata/quick/<exp>.golden`, and every changed line
// must be explained where the change is recorded.
func TestQuickGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other targets may fuse multiply-adds and move a last digit.
		t.Skipf("goldens are pinned on amd64, not %s", runtime.GOARCH)
	}
	for _, e := range experiments {
		exp := e.name
		t.Run(exp, func(t *testing.T) {
			t.Parallel()
			var out bytes.Buffer
			if err := run([]string{"-exp", exp, "-quick"}, &out); err != nil {
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
