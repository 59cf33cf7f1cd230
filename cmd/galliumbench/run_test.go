package main

import (
	"bytes"
	"strings"
	"testing"

	"gallium/internal/eval"
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

// TestRunTable3 checks that one named experiment runs alone and prints
// its table.
func TestRunTable3(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "table3", true); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if want := eval.FormatTable3(eval.Table3()) + "\n"; got != want {
		t.Fatalf("-exp table3 printed:\n%s\nwant:\n%s", got, want)
	}
	if !strings.HasPrefix(got, "Table 3:") {
		t.Fatalf("-exp table3 did not print Table 3:\n%s", got)
	}
}
