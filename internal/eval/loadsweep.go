package eval

import (
	"fmt"
	"strings"

	"gallium"
)

// LoadSweep goes beyond the paper's fixed-rate bars: it sweeps the offered
// load and records delivered throughput and latency, exposing the latency
// knee where the software middlebox's server saturates — the knee the
// offloaded deployment simply does not have (its data path is the switch).

// LoadPoint is one sweep sample.
type LoadPoint struct {
	Middlebox  string
	Config     string
	OfferedPps float64
	Gbps       float64
	MeanUs     float64
	P99Us      float64
	QueueDrops int
}

// LoadSweep sweeps offered load for one middlebox across the offloaded and
// 4-core software deployments. Latency numbers come from the testbed's
// Report, the merge of its fast- and slow-path latency histograms.
func LoadSweep(name string, quick bool) ([]LoadPoint, error) {
	c, err := CompileOne(name)
	if err != nil {
		return nil, err
	}
	durNs := int64(8_000_000)
	if quick {
		durNs = 2_000_000
	}
	rates := []float64{0.5e6, 1e6, 2e6, 4e6, 6e6, 8e6, 10e6, 12e6}
	var points []LoadPoint
	for _, cfg := range []ConfigSpec{{"Offloaded", gallium.Offloaded, 1}, {"Click-4c", gallium.Software, 4}} {
		for _, pps := range rates {
			rep, err := replay(c, cfg.Mode, cfg.Cores, trafficFor(500, pps, durNs))
			if err != nil {
				return nil, err
			}
			points = append(points, LoadPoint{
				Middlebox: name, Config: cfg.Label, OfferedPps: pps,
				Gbps:       rep.Stats.ThroughputBps() / 1e9,
				MeanUs:     rep.Latency.Mean / 1000,
				P99Us:      rep.Latency.P99 / 1000,
				QueueDrops: rep.Stats.QueueDrops,
			})
		}
	}
	return points, nil
}

// FormatLoadSweep renders the sweep.
func FormatLoadSweep(points []LoadPoint) string {
	var b strings.Builder
	if len(points) == 0 {
		return ""
	}
	fmt.Fprintf(&b, "Load sweep (%s, 500B packets): latency vs offered load\n", points[0].Middlebox)
	fmt.Fprintf(&b, "  %-10s %10s %10s %12s %12s %10s\n", "config", "offered", "delivered", "mean", "p99", "drops")
	for _, p := range points {
		fmt.Fprintf(&b, "  %-10s %8.1fMpps %8.2fGbps %10.1fµs %10.1fµs %10d\n",
			p.Config, p.OfferedPps/1e6, p.Gbps, p.MeanUs, p.P99Us, p.QueueDrops)
	}
	return b.String()
}
