package eval

import (
	"fmt"
	"strings"

	"gallium"
	"gallium/internal/engine"
	"gallium/internal/trafficgen"
)

// Figures 8 and 9: the realistic enterprise and data-mining workloads —
// 100,000 flows drawn from the CONGA distributions, 100 worker threads
// each running one connection at a time (§6.3). Each (middlebox, config)
// pair is first characterized on the packet-level testbed (setup latency
// of a fresh connection, RTT of an established one, server cycles per
// packet); the fluid engine then runs the full workload with those
// measured parameters.

// Fig8Point is one bar of Figure 8.
type Fig8Point struct {
	Middlebox string
	Workload  string
	Config    string
	Gbps      float64
}

// Fig9Point is one line group of Figure 9: average flow completion time
// per flow-size bin (0-100K, 100K-10M, >10M bytes).
type Fig9Point struct {
	Middlebox string
	Workload  string
	Config    string
	AvgUs     [3]float64
	Counts    [3]int
}

// FlowParams characterizes one deployment for the fluid engine.
type FlowParams struct {
	SetupNs       float64
	RTTNs         float64
	BottleneckBps float64
}

// MeasureFlowParams probes the packet-level testbed: the latency of a
// fresh connection's first packet (slow path + synchronization stall under
// output commit), the latency of an established connection's packets, and
// the server cost per data packet.
func MeasureFlowParams(c *gallium.Artifacts, mode gallium.Mode, cores int) (FlowParams, error) {
	model := engine.DefaultModel()
	synNs, latNs, rep, err := probe(c, mode, cores, 100, 20, 100_000, func(int) int { return 1500 })
	if err != nil {
		return FlowParams{}, err
	}
	var warmNs float64
	for _, ns := range latNs {
		warmNs += float64(ns)
	}
	warmNs /= float64(len(latNs))
	setup := max(float64(synNs)-warmNs, 0)

	bottleneck := model.LineRateBps
	if mode == gallium.Software {
		avgCycles := rep.Stats.ServerCycles / float64(rep.Stats.SlowPath)
		bottleneck = min(bottleneck, float64(cores)*model.CoreHz/avgCycles*1500*8)
	}
	return FlowParams{SetupNs: setup, RTTNs: warmNs, BottleneckBps: bottleneck}, nil
}

// Workloads lists the Figure 8/9 workloads.
func Workloads() []trafficgen.FlowSizeDist {
	return []trafficgen.FlowSizeDist{trafficgen.Enterprise(), trafficgen.DataMining()}
}

// Figures89 regenerates Figures 8 and 9. quick reduces the flow count for
// tests (the paper uses 100,000 flows).
func Figures89(quick bool) ([]Fig8Point, []Fig9Point, error) {
	compiled, err := CompileAll()
	if err != nil {
		return nil, nil, err
	}
	nFlows := 100_000
	if quick {
		nFlows = 8_000
	}
	// Each (middlebox, config) pair characterizes and runs independently.
	type cell struct {
		c   *gallium.Artifacts
		cfg ConfigSpec
	}
	var cells []cell
	for _, c := range compiled {
		for _, cfg := range Configurations() {
			cells = append(cells, cell{c, cfg})
		}
	}
	fig8cells := make([][]Fig8Point, len(cells))
	fig9cells := make([][]Fig9Point, len(cells))
	err = fanOut(len(cells), func(i int) error {
		cl := cells[i]
		params, err := MeasureFlowParams(cl.c, cl.cfg.Mode, cl.cfg.Cores)
		if err != nil {
			return err
		}
		for _, dist := range Workloads() {
			sizes := dist.SampleFlows(nFlows, 1234)
			fc := DefaultFluidConfig()
			fc.BottleneckBps = params.BottleneckBps
			fc.SetupNs = params.SetupNs
			fc.RTTNs = params.RTTNs
			st, err := RunFluid(fc, trafficgen.SplitWorkers(sizes, fc.Workers))
			if err != nil {
				return err
			}
			fig8cells[i] = append(fig8cells[i], Fig8Point{
				Middlebox: cl.c.Name, Workload: dist.Name, Config: cl.cfg.Label,
				Gbps: st.ThroughputBps() / 1e9,
			})
			avg, counts := BinFCT(st.Records)
			var avgUs [3]float64
			for j := range avg {
				avgUs[j] = avg[j] / 1000
			}
			fig9cells[i] = append(fig9cells[i], Fig9Point{
				Middlebox: cl.c.Name, Workload: dist.Name, Config: cl.cfg.Label,
				AvgUs: avgUs, Counts: counts,
			})
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	var fig8 []Fig8Point
	var fig9 []Fig9Point
	for i := range cells {
		fig8 = append(fig8, fig8cells[i]...)
		fig9 = append(fig9, fig9cells[i]...)
	}
	return fig8, fig9, nil
}

// FormatFigure8 renders the workload throughput bars.
func FormatFigure8(points []Fig8Point) string {
	var b strings.Builder
	b.WriteString("Figure 8: throughput (Gbps) on realistic workloads (100 workers)\n")
	for _, mb := range middleboxOrder(points, func(p Fig8Point) string { return p.Middlebox }) {
		fmt.Fprintf(&b, "  %s:\n", mb)
		fmt.Fprintf(&b, "    %-12s %12s %12s\n", "config", "Enterprise", "DataMining")
		for _, cfg := range []string{"Offloaded", "Click-4c", "Click-2c", "Click-1c"} {
			var ent, dm float64
			for _, p := range points {
				if p.Middlebox == mb && p.Config == cfg {
					if p.Workload == "enterprise" {
						ent = p.Gbps
					} else {
						dm = p.Gbps
					}
				}
			}
			fmt.Fprintf(&b, "    %-12s %12.1f %12.1f\n", cfg, ent, dm)
		}
	}
	return b.String()
}

// FormatFigure9 renders the FCT-per-bin comparison.
func FormatFigure9(points []Fig9Point) string {
	var b strings.Builder
	b.WriteString("Figure 9: average flow completion time (µs) per flow-size bin\n")
	b.WriteString("  bins: [0-100K] [100K-10M] [>10M] bytes\n")
	for _, mb := range middleboxOrder(points, func(p Fig9Point) string { return p.Middlebox }) {
		fmt.Fprintf(&b, "  %s:\n", mb)
		for _, wl := range []string{"enterprise", "datamining"} {
			for _, cfg := range []string{"Offloaded", "Click-4c"} {
				for _, p := range points {
					if p.Middlebox == mb && p.Workload == wl && p.Config == cfg {
						fmt.Fprintf(&b, "    %-11s %-10s %10.0f %12.0f %14.0f\n",
							wl, cfg, p.AvgUs[0], p.AvgUs[1], p.AvgUs[2])
					}
				}
			}
		}
	}
	return b.String()
}
