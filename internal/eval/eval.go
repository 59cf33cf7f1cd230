// Package eval drives the paper's evaluation (§6): Table 1 (lines of
// code), the §6.2 offloading report, Figure 7 (throughput vs packet size),
// Table 2 (latency), Table 3 (state-synchronization latency), Figures 8/9
// (realistic workloads), and the headline numbers (cycle savings, latency
// reduction, slow-path fraction). Two sweeps go beyond the paper: LoadSweep
// (latency vs offered load) and Ablations (the design choices). Two engine
// checks, EngineScale and FlowSoak, live here until they move into bench/.
package eval

import (
	"gallium"
	"gallium/internal/middleboxes"
	"gallium/internal/trafficgen"
)

// CompileAll compiles and partitions the five evaluation middleboxes.
func CompileAll() ([]*gallium.Artifacts, error) {
	var out []*gallium.Artifacts
	for _, spec := range middleboxes.All() {
		c, err := CompileOne(spec.Name)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// CompileOne compiles and partitions one middlebox by name.
func CompileOne(name string) (*gallium.Artifacts, error) {
	return gallium.CompileBuiltin(name, gallium.Options{})
}

// Configs are the paper's four deployment configurations for Figures 7/8.
type ConfigSpec struct {
	Label string
	Mode  gallium.Mode
	Cores int
}

// Configurations returns [Offloaded, Click-4c, Click-2c, Click-1c].
func Configurations() []ConfigSpec {
	return []ConfigSpec{
		{"Offloaded", gallium.Offloaded, 1},
		{"Click-4c", gallium.Software, 4},
		{"Click-2c", gallium.Software, 2},
		{"Click-1c", gallium.Software, 1},
	}
}

// trafficFor builds the iperf generator used by the microbenchmarks; NAT
// and firewall want internal sources, which the defaults provide.
func trafficFor(pktSize int, pps float64, durNs int64) trafficgen.IperfConfig {
	return trafficgen.IperfConfig{
		Conns:      10,
		PacketSize: pktSize,
		PPS:        pps,
		DurationNs: durNs,
		Seed:       7,
	}
}

// middleboxOrder returns the distinct middlebox names of points in
// first-seen order, the order the figures list them in.
func middleboxOrder[P any](points []P, name func(P) string) []string {
	var out []string
	seen := map[string]bool{}
	for _, p := range points {
		if n := name(p); !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}
