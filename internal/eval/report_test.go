package eval

import (
	"strings"
	"testing"

	"gallium/internal/packet"
)

// goodFlowsReport builds a synthetic but invariant-satisfying flow-soak
// report: more flows offered than capacity, occupancy bounded at every
// barrier, both lifecycle mechanisms exercised, the retuned second half
// drained, and a heap well under the soak budget.
func goodFlowsReport() *FlowsReport {
	rep := &FlowsReport{
		Middlebox: "l4lb", Workers: 8,
		TotalFlows: 150_000, Capacity: 8_192,
		UDPTimeoutNs:        20_000_000,
		RetuneAtFlows:       75_000,
		RetunedUDPTimeoutNs: 2_000_000,
	}
	for k := 1; k <= 8; k++ {
		p := FlowPoint{
			FlowsOffered:   k * 150_000 / 8,
			Occupancy:      8_000,
			Peak:           9_000,
			Expired:        uint64(k) * 5_000,
			Evicted:        uint64(k) * 10_000,
			HeapAllocBytes: 64 << 20,
		}
		if k > 4 { // post-retune: expiry drains the table
			p.Occupancy = 1_000
		}
		rep.Points = append(rep.Points, p)
	}
	return rep
}

// TestFlowsArtifactRoundTrip covers the flow-soak report's checks:
// validate and format a good report, plus every invariant ValidateFlows
// is supposed to catch when a soak breaks it.
func TestFlowsArtifactRoundTrip(t *testing.T) {
	rep := goodFlowsReport()
	if err := ValidateFlows(rep); err != nil {
		t.Fatalf("good report rejected: %v", err)
	}
	out := FormatFlows(rep)
	if !strings.Contains(out, "l4lb") || !strings.Contains(out, "retune") {
		t.Fatalf("FormatFlows output missing expected content:\n%s", out)
	}

	breakIt := []struct {
		name string
		mut  func(r *FlowsReport)
		want string
	}{
		{"no points", func(r *FlowsReport) { r.Points = nil }, "no points"},
		{"nothing to bound", func(r *FlowsReport) { r.TotalFlows = r.Capacity }, "nothing to bound"},
		{"over capacity", func(r *FlowsReport) { r.Points[2].Occupancy = uint64(r.Capacity) + 1 }, "exceeds capacity"},
		{"peak blowout", func(r *FlowsReport) { r.Points[2].Peak = 1 << 30 }, "sweep slack"},
		{"counter regression", func(r *FlowsReport) { r.Points[3].Expired = 0 }, "backwards"},
		{"no expiry", func(r *FlowsReport) {
			for i := range r.Points {
				r.Points[i].Expired = 0
			}
		}, "never expired"},
		{"no eviction", func(r *FlowsReport) {
			for i := range r.Points {
				r.Points[i].Evicted = 0
			}
		}, "never evicted"},
		{"undrained backlog", func(r *FlowsReport) {
			r.Points[len(r.Points)-1].Occupancy = uint64(r.Capacity)
		}, "never drained"},
		{"heap blowout", func(r *FlowsReport) { r.Points[1].HeapAllocBytes = 1 << 40 }, "soak budget"},
	}
	for _, c := range breakIt {
		t.Run(c.name, func(t *testing.T) {
			r := goodFlowsReport()
			c.mut(r)
			err := ValidateFlows(r)
			if err == nil {
				t.Fatal("broken report validated")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// goodScaleReport builds a synthetic scale matrix: two GOMAXPROCS rungs,
// the full worker ladder per rung, identical packet counts all delivered,
// linear-ish speedup on the wide rung.
func goodScaleReport() *ScaleReport {
	rep := &ScaleReport{Middlebox: "mazunat", NumCPU: 8}
	for _, procs := range []int{4, 8} {
		for _, workers := range []int{1, 2, 4, 8} {
			pps := 1e6 * float64(workers) // ideal scaling
			rep.Points = append(rep.Points, ScalePoint{
				Workers: workers, GoMaxProcs: procs,
				Packets: 200_000, Delivered: 200_000, WallNs: int64(200_000 / pps * 1e9),
				PPS:        pps,
				BatchSizes: make([]float64, workers),
			})
		}
	}
	return rep
}

// TestScaleArtifactRoundTrip covers the scale matrix's checks: format a
// good matrix, catch a degenerate, lossy or incomparable cell on any host, plus
// the host-dependent gate (pass, regression, and loud-skip legs).
func TestScaleArtifactRoundTrip(t *testing.T) {
	out := FormatScale(goodScaleReport())
	if !strings.Contains(out, "GOMAXPROCS=8") || !strings.Contains(out, "mazunat") {
		t.Fatalf("FormatScale output missing expected content:\n%s", out)
	}

	breakIt := []struct {
		name string
		mut  func(r *ScaleReport)
		want string
	}{
		{"degenerate cell", func(r *ScaleReport) { r.Points[3].PPS = 0 }, "degenerate"},
		{"uneven packets", func(r *ScaleReport) { r.Points[6].Packets, r.Points[6].Delivered = 1, 1 }, "not comparable"},
		{"lost packet", func(r *ScaleReport) { r.Points[5].Delivered-- }, "lost packets"},
	}
	for _, c := range breakIt {
		t.Run(c.name, func(t *testing.T) {
			r := goodScaleReport()
			c.mut(r)
			// Below 4 cores the speedup gate skips; these checks must not.
			r.NumCPU = 2
			for i := range r.Points {
				r.Points[i].GoMaxProcs = 2
			}
			_, err := CheckScaleGate(r)
			if err == nil {
				t.Fatal("broken matrix passed")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}

	t.Run("gate", func(t *testing.T) {
		if skip, err := CheckScaleGate(goodScaleReport()); err != nil || skip != "" {
			t.Fatalf("ideal scaling failed the gate: skip=%q err=%v", skip, err)
		}
		flat := goodScaleReport()
		for i := range flat.Points {
			flat.Points[i].PPS = 1e6 // no scaling at all
		}
		if _, err := CheckScaleGate(flat); err == nil {
			t.Error("flat scaling passed the gate")
		}
		tiny := goodScaleReport()
		tiny.NumCPU = 2
		for i := range tiny.Points {
			tiny.Points[i].GoMaxProcs = 2
		}
		skip, err := CheckScaleGate(tiny)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(skip, "SKIPPED") {
			t.Errorf("2-core host did not loud-skip: %q", skip)
		}
	})
}

// TestScaleProcLadder pins the rung-selection rules.
func TestScaleProcLadder(t *testing.T) {
	cases := []struct {
		cpus int
		want []int
	}{
		{0, []int{1}},
		{1, []int{1}},
		{2, []int{1, 2}},
		{6, []int{1, 2, 4, 6}},
		{8, []int{1, 2, 4, 8}},
		{32, []int{1, 2, 4, 8}},
	}
	for _, c := range cases {
		got := scaleProcLadder(c.cpus)
		if len(got) != len(c.want) {
			t.Errorf("scaleProcLadder(%d) = %v, want %v", c.cpus, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("scaleProcLadder(%d) = %v, want %v", c.cpus, got, c.want)
				break
			}
		}
	}
}

// TestFlowFloodGenerator covers the soak's traffic source directly: n
// distinct flows, one packet each, evenly spaced in virtual time, and no
// up-front tuple announcement (that would cost the memory the soak is
// proving bounded).
func TestFlowFloodGenerator(t *testing.T) {
	f := &flowFlood{base: 100, n: 50, spacingNs: 1000}
	if f.Tuples() != nil {
		t.Error("flowFlood announced tuples")
	}
	seen := map[string]bool{}
	var lastTS int64 = -1
	err := f.Generate(func(ts int64, p *packet.Packet) error {
		if ts <= lastTS {
			t.Fatalf("timestamps not increasing: %d after %d", ts, lastTS)
		}
		lastTS = ts
		tup, ok := p.Tuple()
		if !ok {
			t.Fatal("flood packet has no tuple")
		}
		seen[tup.String()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 50 {
		t.Fatalf("flood produced %d distinct flows, want 50", len(seen))
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
