package eval

import (
	"fmt"
	"math"
	"strings"

	"gallium"
	"gallium/internal/engine"
	"gallium/internal/packet"
)

// Figure 7: maximum achievable throughput, ten iperf TCP connections,
// packet sizes 100/500/1500 bytes, Gallium-on-one-core vs FastClick on
// 1/2/4 cores.

// Fig7Point is one bar of Figure 7.
type Fig7Point struct {
	Middlebox string
	Config    string
	PktSize   int
	Gbps      float64
}

// PacketSizes are the paper's Figure 7 x-axis.
var PacketSizes = []int{100, 500, 1500}

// Figure7 regenerates the throughput microbenchmark. quick shortens the
// simulated window for use in tests.
func Figure7(quick bool) ([]Fig7Point, error) {
	compiled, err := CompileAll()
	if err != nil {
		return nil, err
	}
	durNs := int64(20_000_000)
	if quick {
		durNs = 2_000_000
	}
	model := engine.DefaultModel()

	// Every (middlebox, config, size) cell is an independent simulation;
	// run them in parallel.
	type cell struct {
		c    *gallium.Artifacts
		cfg  ConfigSpec
		size int
	}
	var cells []cell
	for _, c := range compiled {
		for _, cfg := range Configurations() {
			for _, size := range PacketSizes {
				cells = append(cells, cell{c, cfg, size})
			}
		}
	}
	points := make([]Fig7Point, len(cells))
	err = fanOut(len(cells), func(i int) error {
		cl := cells[i]
		// Offered load: generator capability capped by line rate.
		pps := math.Min(model.GenMaxPps, model.LineRateBps/float64(cl.size*8))
		rep, err := replay(cl.c, cl.cfg.Mode, cl.cfg.Cores, trafficFor(cl.size, pps, durNs))
		if err != nil {
			return fmt.Errorf("%s/%s/%d: %w", cl.c.Name, cl.cfg.Label, cl.size, err)
		}
		points[i] = Fig7Point{
			Middlebox: cl.c.Name,
			Config:    cl.cfg.Label,
			PktSize:   cl.size,
			Gbps:      rep.Stats.ThroughputBps() / 1e9,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// FormatFigure7 renders the series like the paper's bar groups.
func FormatFigure7(points []Fig7Point) string {
	var b strings.Builder
	b.WriteString("Figure 7: throughput (Gbps) vs packet size, 10 iperf TCP connections\n")
	for _, mb := range middleboxOrder(points, func(p Fig7Point) string { return p.Middlebox }) {
		fmt.Fprintf(&b, "  %s:\n", mb)
		fmt.Fprintf(&b, "    %-12s %8s %8s %8s\n", "config", "100B", "500B", "1500B")
		for _, cfg := range []string{"Offloaded", "Click-4c", "Click-2c", "Click-1c"} {
			vals := map[int]float64{}
			for _, p := range points {
				if p.Middlebox == mb && p.Config == cfg {
					vals[p.PktSize] = p.Gbps
				}
			}
			fmt.Fprintf(&b, "    %-12s %8.1f %8.1f %8.1f\n", cfg, vals[100], vals[500], vals[1500])
		}
	}
	return b.String()
}

// replay opens a testbed on the compiled middlebox in the given mode with
// the given simulated server cores, seeded with the standard scenario for
// gen's flows, replays gen through Inject and returns the testbed's Report.
func replay(c *gallium.Artifacts, mode gallium.Mode, cores int, gen gallium.Workload) (*gallium.Report, error) {
	tb, err := c.NewTestbed(gallium.TestbedConfig{}, gallium.WithMode(mode), gallium.WithWorkers(cores),
		gallium.WithScenario(), gallium.WithFlows(gen.Tuples()))
	if err != nil {
		return nil, err
	}
	if err := gen.Generate(func(tNs int64, pkt *packet.Packet) error {
		_, err := tb.Inject(tNs, pkt)
		return err
	}); err != nil {
		return nil, err
	}
	return tb.Report(), nil
}

// Table 2: end-to-end latency, Nptcp-style probes.

// Table2Row is one row of Table 2.
type Table2Row struct {
	Middlebox    string
	FastClickUs  float64
	FastClickStd float64
	GalliumUs    float64
	GalliumStd   float64
}

// ReductionPct is the latency saving.
func (r Table2Row) ReductionPct() float64 {
	if r.FastClickUs == 0 {
		return 0
	}
	return 100 * (r.FastClickUs - r.GalliumUs) / r.FastClickUs
}

// Table2 regenerates the latency comparison: probe packets of established
// connections, sent far apart (no queueing), through both deployments.
func Table2() ([]Table2Row, error) {
	compiled, err := CompileAll()
	if err != nil {
		return nil, err
	}
	var rows []Table2Row
	for _, c := range compiled {
		g, gs, err := measureLatency(c, gallium.Offloaded, 1)
		if err != nil {
			return nil, err
		}
		f, fs, err := measureLatency(c, gallium.Software, 1)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{
			Middlebox:   c.Name,
			FastClickUs: f, FastClickStd: fs,
			GalliumUs: g, GalliumStd: gs,
		})
	}
	return rows, nil
}

// measureLatency warms one connection, then averages 50 probe latencies
// sent 1 ms apart.
func measureLatency(c *gallium.Artifacts, mode gallium.Mode, cores int) (meanUs, stdUs float64, err error) {
	// Small deterministic packet-size jitter models the measurement noise
	// the paper reports as standard deviations.
	_, latNs, _, err := probe(c, mode, cores, 500, 50, 1_000_000, func(i int) int { return 500 + (i%5)*16 })
	if err != nil {
		return 0, 0, err
	}
	var sum, sq float64
	for _, ns := range latNs {
		sum += float64(ns) / 1000
	}
	mean := sum / float64(len(latNs))
	for _, ns := range latNs {
		d := float64(ns)/1000 - mean
		sq += d * d
	}
	return mean, math.Sqrt(sq / float64(len(latNs))), nil
}

// FormatTable2 renders the latency table.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: end-to-end latency (µs)\n")
	fmt.Fprintf(&b, "%-16s %18s %18s %10s\n", "Middlebox", "FastClick", "Gallium", "reduction")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %12.2f ± %4.2f %12.2f ± %4.2f %9.1f%%\n",
			r.Middlebox, r.FastClickUs, r.FastClickStd, r.GalliumUs, r.GalliumStd, r.ReductionPct())
	}
	return b.String()
}

// Table 3: latency of updating offloaded tables from the server.

// Table3Row is one row of Table 3.
type Table3Row struct {
	Tables   int
	InsertUs float64
	ModifyUs float64
	DeleteUs float64
}

// Table3 regenerates the state-synchronization cost table. Insert, modify
// and delete all traverse the same write-back + flip path in this
// implementation, so their costs coincide (the paper's measured spreads
// are within its error bars).
func Table3() []Table3Row {
	m := engine.DefaultModel()
	var rows []Table3Row
	for _, n := range []int{1, 2, 4} {
		us := m.CtlBatchNs(n) / 1000
		rows = append(rows, Table3Row{Tables: n, InsertUs: us, ModifyUs: us, DeleteUs: us})
	}
	return rows
}

// FormatTable3 renders the sync-latency table.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("Table 3: latency of updating offloaded P4 tables from the server (µs)\n")
	fmt.Fprintf(&b, "%8s %10s %10s %10s\n", "# tables", "insert", "modify", "delete")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d %10.1f %10.1f %10.1f\n", r.Tables, r.InsertUs, r.ModifyUs, r.DeleteUs)
	}
	return b.String()
}

// Headline: §6.3's summary claims.

// HeadlineStats aggregates the paper's summary numbers.
type HeadlineStats struct {
	// CycleSavingsPct per middlebox: per-packet server cycles saved by
	// offloading at equal delivered throughput. (The paper's 21-79% range
	// additionally charges the DPDK server's busy-polling; see the
	// CoresSaved metric for that framing.)
	CycleSavingsPct map[string]float64
	// CoresSaved per middlebox: server cores freed at the offloaded
	// deployment's throughput — the paper's "0.03-4.39 server cores"
	// (§6.3).
	CoresSaved map[string]float64
	// LatencyReductionPct per middlebox (from Table 2).
	LatencyReductionPct map[string]float64
	// SlowPathPct per middlebox under connection-mixed traffic.
	SlowPathPct map[string]float64
}

// Headline computes the summary statistics.
func Headline(quick bool) (*HeadlineStats, error) {
	compiled, err := CompileAll()
	if err != nil {
		return nil, err
	}
	table2, err := Table2()
	if err != nil {
		return nil, err
	}
	out := &HeadlineStats{
		CycleSavingsPct:     map[string]float64{},
		CoresSaved:          map[string]float64{},
		LatencyReductionPct: map[string]float64{},
		SlowPathPct:         map[string]float64{},
	}
	model := engine.DefaultModel()
	durNs := int64(10_000_000)
	if quick {
		durNs = 2_000_000
	}
	for _, c := range compiled {
		// Drive identical long-flow-style traffic through both modes at a
		// rate both can sustain, and compare server cycles per delivered
		// packet.
		gen := trafficFor(1500, 2e6, durNs)
		offRep, err := replay(c, gallium.Offloaded, 1, gen)
		if err != nil {
			return nil, err
		}
		swRep, err := replay(c, gallium.Software, 4, gen)
		if err != nil {
			return nil, err
		}
		off, sw := offRep.Stats, swRep.Stats
		if sw.ServerCycles > 0 {
			out.CycleSavingsPct[c.Name] = 100 * (sw.ServerCycles - off.ServerCycles) / sw.ServerCycles
		}
		out.SlowPathPct[c.Name] = 100 * float64(off.SlowPath) / float64(off.Injected)

		// Cores saved: how many server cores the software version needs
		// to match the offloaded deployment's *maximum* throughput (line
		// rate for these middleboxes), minus the fractional core the
		// offloaded server actually uses.
		avgCycles := sw.ServerCycles / float64(sw.SlowPath)
		perCoreBps := model.CoreHz / avgCycles * 1500 * 8
		offMaxBps := model.LineRateBps
		coresNeeded := offMaxBps / perCoreBps
		coresUsed := off.ServerCycles / (float64(durNs) / 1e9) / model.CoreHz
		out.CoresSaved[c.Name] = coresNeeded - coresUsed
	}
	for _, r := range table2 {
		out.LatencyReductionPct[r.Middlebox] = r.ReductionPct()
	}
	return out, nil
}

// FormatHeadline renders the summary.
func FormatHeadline(h *HeadlineStats) string {
	var b strings.Builder
	b.WriteString("Headline (§6.3): savings from offloading\n")
	fmt.Fprintf(&b, "%-16s %14s %12s %14s %12s\n", "Middlebox", "cycle savings", "cores saved", "latency cut", "slow path")
	for _, mb := range []string{"mazunat", "l4lb", "firewall", "proxy", "trojandetector"} {
		fmt.Fprintf(&b, "%-16s %13.1f%% %12.2f %13.1f%% %11.2f%%\n",
			mb, h.CycleSavingsPct[mb], h.CoresSaved[mb], h.LatencyReductionPct[mb], h.SlowPathPct[mb])
	}
	return b.String()
}
