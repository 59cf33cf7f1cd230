package eval

import (
	"strings"
	"testing"
)

func TestTable1Shape(t *testing.T) {
	t.Parallel()
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	for _, r := range rows {
		if r.InputLoC == 0 || r.P4LoC == 0 || r.ServerLoC == 0 {
			t.Errorf("%s: zero LoC cell: %+v", r.Middlebox, r)
		}
		// Both outputs exist for every middlebox; the P4 program is the
		// larger artifact (it carries parser/header boilerplate), as in
		// the paper where generated P4 ≥ 292 lines for every middlebox.
		if r.P4LoC < 100 {
			t.Errorf("%s: P4 LoC %d suspiciously small", r.Middlebox, r.P4LoC)
		}
	}
	txt := FormatTable1(rows)
	if !strings.Contains(txt, "mazunat") || !strings.Contains(txt, "Output (P4)") {
		t.Errorf("format:\n%s", txt)
	}
}

func TestFigure7Shape(t *testing.T) {
	t.Parallel()
	points, err := Figure7(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5*4*3 {
		t.Fatalf("points = %d, want 60", len(points))
	}
	get := func(mb, cfg string, size int) float64 {
		for _, p := range points {
			if p.Middlebox == mb && p.Config == cfg && p.PktSize == size {
				return p.Gbps
			}
		}
		t.Fatalf("missing point %s/%s/%d", mb, cfg, size)
		return 0
	}
	for _, mb := range []string{"mazunat", "l4lb", "firewall", "proxy", "trojandetector"} {
		for _, size := range PacketSizes {
			off := get(mb, "Offloaded", size)
			c4 := get(mb, "Click-4c", size)
			c2 := get(mb, "Click-2c", size)
			c1 := get(mb, "Click-1c", size)
			// The paper's shape: offloaded-with-1-core beats Click-4c,
			// which beats 2c, which beats 1c (monotone in cores until the
			// generator or line rate caps them).
			if off < c4*0.99 {
				t.Errorf("%s@%dB: offloaded %.1f < click-4c %.1f", mb, size, off, c4)
			}
			if c4 < c2*0.99 || c2 < c1*0.99 {
				t.Errorf("%s@%dB: core scaling broken: 4c=%.1f 2c=%.1f 1c=%.1f", mb, size, c4, c2, c1)
			}
		}
		// Offloaded at 1500B approaches line rate.
		if off := get(mb, "Offloaded", 1500); off < 85 {
			t.Errorf("%s: offloaded @1500B = %.1f Gbps, want ≈ line rate", mb, off)
		}
		// Paper: Gallium-1c outperforms Click-4c by 20-187%; allow a wider
		// band but require a visible win somewhere.
		won := false
		for _, size := range PacketSizes {
			if get(mb, "Offloaded", size) > 1.15*get(mb, "Click-4c", size) {
				won = true
			}
		}
		if !won {
			t.Errorf("%s: offloading never wins by >15%%", mb)
		}
	}
	txt := FormatFigure7(points)
	if !strings.Contains(txt, "Offloaded") {
		t.Errorf("format:\n%s", txt)
	}
}

func TestTable2Shape(t *testing.T) {
	t.Parallel()
	rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Paper: FastClick ≈ 22-23 µs, Gallium ≈ 15-16 µs, ≈31% cut.
		if r.FastClickUs < 19 || r.FastClickUs > 27 {
			t.Errorf("%s: FastClick latency %.1f µs out of band", r.Middlebox, r.FastClickUs)
		}
		if r.GalliumUs < 13 || r.GalliumUs > 19 {
			t.Errorf("%s: Gallium latency %.1f µs out of band", r.Middlebox, r.GalliumUs)
		}
		if red := r.ReductionPct(); red < 20 || red > 45 {
			t.Errorf("%s: reduction %.1f%%, want ≈ 31%%", r.Middlebox, red)
		}
		if r.GalliumUs >= r.FastClickUs {
			t.Errorf("%s: no latency win", r.Middlebox)
		}
	}
	txt := FormatTable2(rows)
	if !strings.Contains(txt, "reduction") {
		t.Errorf("format:\n%s", txt)
	}
}

func TestTable3Shape(t *testing.T) {
	t.Parallel()
	rows := Table3()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Paper: 135.2 / 270.1 / 371.0 µs, sublinear beyond two tables.
	if rows[0].InsertUs < 110 || rows[0].InsertUs > 160 {
		t.Errorf("1 table: %.1f µs", rows[0].InsertUs)
	}
	if rows[1].InsertUs < 2*rows[0].InsertUs*0.9 {
		t.Errorf("2 tables should be ≈ 2x one table")
	}
	if rows[2].InsertUs >= 2*rows[1].InsertUs*0.9 {
		t.Errorf("4 tables should be sublinear: %.1f vs %.1f", rows[2].InsertUs, rows[1].InsertUs)
	}
	txt := FormatTable3(rows)
	if !strings.Contains(txt, "# tables") {
		t.Errorf("format:\n%s", txt)
	}
}

func TestHeadlineShape(t *testing.T) {
	t.Parallel()
	h, err := Headline(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, mb := range []string{"mazunat", "l4lb", "firewall", "proxy", "trojandetector"} {
		sav := h.CycleSavingsPct[mb]
		// Paper: 21-79% cycle savings; fully offloaded middleboxes save
		// ~100% of server cycles in steady state.
		if sav < 20 || sav > 101 {
			t.Errorf("%s: cycle savings %.1f%% out of band", mb, sav)
		}
		if red := h.LatencyReductionPct[mb]; red < 20 || red > 45 {
			t.Errorf("%s: latency cut %.1f%%", mb, red)
		}
	}
	// NAT and LB: ≈0.1% of packets hit the server under iperf traffic
	// (only connection setup); firewall and proxy: none at all.
	for _, mb := range []string{"firewall", "proxy"} {
		if h.SlowPathPct[mb] != 0 {
			t.Errorf("%s: slow path %.3f%%, want 0", mb, h.SlowPathPct[mb])
		}
	}
	for _, mb := range []string{"mazunat", "l4lb"} {
		if h.SlowPathPct[mb] > 1.0 {
			t.Errorf("%s: slow path %.3f%%, want ≈ 0.1%%", mb, h.SlowPathPct[mb])
		}
	}
	txt := FormatHeadline(h)
	if !strings.Contains(txt, "cycle savings") {
		t.Errorf("format:\n%s", txt)
	}
}

func TestFigures89Shape(t *testing.T) {
	t.Parallel()
	fig8, fig9, err := Figures89(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig8) != 5*4*2 || len(fig9) != 5*4*2 {
		t.Fatalf("points: fig8=%d fig9=%d, want 40 each", len(fig8), len(fig9))
	}
	get8 := func(mb, wl, cfg string) float64 {
		for _, p := range fig8 {
			if p.Middlebox == mb && p.Workload == wl && p.Config == cfg {
				return p.Gbps
			}
		}
		t.Fatalf("missing %s/%s/%s", mb, wl, cfg)
		return 0
	}
	for _, mb := range []string{"mazunat", "l4lb", "firewall", "proxy", "trojandetector"} {
		for _, wl := range []string{"enterprise", "datamining"} {
			off := get8(mb, wl, "Offloaded")
			c4 := get8(mb, wl, "Click-4c")
			c1 := get8(mb, wl, "Click-1c")
			if off <= c4 {
				t.Errorf("%s/%s: offloaded %.1f <= click-4c %.1f", mb, wl, off, c4)
			}
			if c4 <= c1 {
				t.Errorf("%s/%s: click-4c %.1f <= click-1c %.1f", mb, wl, c4, c1)
			}
		}
		// Paper: gains are larger on data-mining than enterprise.
		entGain := get8(mb, "enterprise", "Offloaded") / get8(mb, "enterprise", "Click-4c")
		dmGain := get8(mb, "datamining", "Offloaded") / get8(mb, "datamining", "Click-4c")
		if dmGain < entGain*0.95 {
			t.Errorf("%s: data-mining gain (%.2fx) below enterprise gain (%.2fx)", mb, dmGain, entGain)
		}
	}
	// Figure 9: FCT reduction concentrated in long flows.
	get9 := func(mb, wl, cfg string) Fig9Point {
		for _, p := range fig9 {
			if p.Middlebox == mb && p.Workload == wl && p.Config == cfg {
				return p
			}
		}
		t.Fatalf("missing %s/%s/%s", mb, wl, cfg)
		return Fig9Point{}
	}
	for _, mb := range []string{"firewall", "proxy"} {
		off := get9(mb, "datamining", "Offloaded")
		c4 := get9(mb, "datamining", "Click-4c")
		if off.Counts[2] == 0 {
			continue
		}
		longGain := c4.AvgUs[2] / off.AvgUs[2]
		shortGain := c4.AvgUs[0] / off.AvgUs[0]
		if longGain < 1.0 {
			t.Errorf("%s: long flows see no FCT win (%.2fx)", mb, longGain)
		}
		if longGain < shortGain*0.8 {
			t.Errorf("%s: FCT win not concentrated on long flows (long %.2fx, short %.2fx)", mb, longGain, shortGain)
		}
	}
	t8 := FormatFigure8(fig8)
	t9 := FormatFigure9(fig9)
	if !strings.Contains(t8, "Enterprise") || !strings.Contains(t9, "bins") {
		t.Error("format output broken")
	}
}

func TestLoadSweepShape(t *testing.T) {
	t.Parallel()
	points, err := LoadSweep("mazunat", true)
	if err != nil {
		t.Fatal(err)
	}
	get := func(cfg string, pps float64) LoadPoint {
		for _, p := range points {
			if p.Config == cfg && p.OfferedPps == pps {
				return p
			}
		}
		t.Fatalf("missing %s@%v", cfg, pps)
		return LoadPoint{}
	}
	// At low load both are fine; at high load the 4-core software box
	// saturates (drops + latency blow-up) while offloaded stays flat.
	offLow, offHigh := get("Offloaded", 1e6), get("Offloaded", 12e6)
	swLow, swHigh := get("Click-4c", 1e6), get("Click-4c", 12e6)
	if offHigh.MeanUs > offLow.MeanUs*1.5 {
		t.Errorf("offloaded latency rose under load: %.1f -> %.1f µs", offLow.MeanUs, offHigh.MeanUs)
	}
	if offHigh.QueueDrops != 0 {
		t.Errorf("offloaded dropped %d packets", offHigh.QueueDrops)
	}
	if swHigh.QueueDrops == 0 {
		t.Error("software box should saturate at 12 Mpps")
	}
	if swHigh.MeanUs < swLow.MeanUs*2 {
		t.Errorf("software latency knee missing: %.1f -> %.1f µs", swLow.MeanUs, swHigh.MeanUs)
	}
	txt := FormatLoadSweep(points)
	if !strings.Contains(txt, "Load sweep") {
		t.Error("format broken")
	}
}

func TestAblationsRun(t *testing.T) {
	t.Parallel()
	txt, err := Ablations()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"transfer budget", "pipeline depth", "rematerialization", "cost model", "switch-as-cache"} {
		if !strings.Contains(txt, want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
	// Rematerialization must show a win for at least one middlebox.
	sweeps, err := PartitionSweeps()
	if err != nil {
		t.Fatal(err)
	}
	var remat []AblationRow
	for _, s := range sweeps {
		if strings.Contains(s.Title, "rematerialization") {
			remat = s.Rows
		}
	}
	if len(remat) == 0 {
		t.Fatal("no rematerialization sweep")
	}
	better := false
	byMB := map[string][2]AblationRow{}
	for _, r := range remat {
		pair := byMB[r.Middlebox]
		if r.Setting == "remat on" {
			pair[0] = r
		} else {
			pair[1] = r
		}
		byMB[r.Middlebox] = pair
	}
	for mb, pair := range byMB {
		if pair[0].OffloadPct < pair[1].OffloadPct {
			t.Errorf("%s: remat reduced offloading?!", mb)
		}
		if pair[0].OffloadPct > pair[1].OffloadPct {
			better = true
		}
	}
	if !better {
		t.Error("rematerialization shows no benefit anywhere")
	}
}

func TestOffloadingReport(t *testing.T) {
	t.Parallel()
	rows, err := Offloading()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]OffloadSummary{}
	for _, r := range rows {
		byName[r.Middlebox] = r
	}
	// §6.2 claims, middlebox by middlebox. The port counter stays on the
	// server (its read feeds a server-side write; the split RMW would race
	// under asynchronous write-back — partition rule 7), so only the two
	// translation tables land on the switch.
	nat := byName["mazunat"]
	if len(nat.SwitchState) != 2 {
		t.Errorf("mazunat switch state = %+v", nat.SwitchState)
	}
	for _, st := range nat.SwitchState {
		if st.Realization == "register" {
			t.Errorf("mazunat's mutated counter %q offloaded as a register", st.Name)
		}
	}
	for _, mb := range []string{"firewall", "proxy"} {
		if byName[mb].Srv != 0 {
			t.Errorf("%s should fully offload", mb)
		}
	}
	trojan := byName["trojandetector"]
	foundDPI := false
	for _, cz := range trojan.SlowPathCauses {
		if strings.Contains(cz.What, "deep packet inspection") {
			foundDPI = true
		}
	}
	if !foundDPI {
		t.Error("trojan detector's DPI should be a slow-path cause")
	}
	txt := FormatOffloading(rows)
	for _, want := range []string{"What's offloaded", "register", "all packet processing happens in the programmable switch"} {
		if !strings.Contains(txt, want) {
			t.Errorf("report missing %q", want)
		}
	}
}
