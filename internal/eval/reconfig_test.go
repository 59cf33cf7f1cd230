package eval

import (
	"strings"
	"testing"
)

// TestReconfigEvalQuickZeroLoss runs the quick reconfiguration ladder
// end to end: every middlebox row must account for all injected packets
// (the zero-loss invariant the control plane promises) and record that
// its reconfigurations actually applied.
func TestReconfigEvalQuickZeroLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("live sessions under sustained traffic; runs in full mode and CI")
	}
	rows, err := ReconfigEval(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no reconfig rows")
	}
	for _, r := range rows {
		if !r.Accounted() {
			t.Errorf("%s/%s lost packets: injected=%d delivered=%d mb=%d q=%d",
				r.Middlebox, r.Op, r.Injected, r.Delivered, r.MBDrops, r.QueueDrops)
		}
		if r.Reconfigs == 0 {
			t.Errorf("%s/%s applied no reconfigurations", r.Middlebox, r.Op)
		}
	}

	out := FormatReconfig(rows)
	for _, want := range []string{"middlebox", rows[0].Middlebox, rows[0].Op} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatReconfig missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "LOSS!") {
		t.Errorf("clean rows rendered the loss marker:\n%s", out)
	}
	// An unaccounted row must carry the loss marker.
	bad := rows[0]
	bad.Delivered--
	if got := FormatReconfig([]ReconfigRow{bad}); !strings.Contains(got, "LOSS!") {
		t.Errorf("unaccounted row missing LOSS! marker:\n%s", got)
	}
}

// TestCheckScaleGate pins the matrix gate: threshold selection by core
// count, the loud skip below 4 cores, and the regression error.
func TestCheckScaleGate(t *testing.T) {
	rep := func(numCPU int, rungs map[int][2]float64) *ScaleReport {
		r := &ScaleReport{NumCPU: numCPU}
		for procs, pps := range rungs {
			for i, w := range scaleWorkerCounts {
				p := ScalePoint{Workers: w, GoMaxProcs: procs, Packets: 1000, Delivered: 1000, WallNs: 1e6, PPS: pps[0]}
				if i == len(scaleWorkerCounts)-1 {
					p.PPS = pps[1]
				}
				r.Points = append(r.Points, p)
			}
		}
		return r
	}
	cases := []struct {
		name     string
		rep      *ScaleReport
		wantSkip bool
		wantErr  string
	}{
		{"one-core-loud-skip", rep(1, map[int][2]float64{1: {1e6, 1e6}}), true, ""},
		{"mid-host-pass", rep(4, map[int][2]float64{4: {1e6, 1.6e6}}), false, ""},
		{"mid-host-regression", rep(4, map[int][2]float64{4: {1e6, 1.2e6}}), false, "scaling regression"},
		{"big-host-pass", rep(8, map[int][2]float64{8: {1e6, 3.2e6}}), false, ""},
		{"big-host-regression", rep(8, map[int][2]float64{8: {1e6, 2e6}}), false, "scaling regression"},
	}
	for _, c := range cases {
		skip, err := CheckScaleGate(c.rep)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: error %v, want containing %q", c.name, err, c.wantErr)
		}
		if c.wantSkip != (skip != "") {
			t.Errorf("%s: skip = %q, want skip %v", c.name, skip, c.wantSkip)
		}
	}
}
