// Package eval drives the paper's evaluation (§6): Table 1 (lines of
// code), the §6.2 offloading report, Figure 7 (throughput vs packet size),
// Table 2 (latency), Table 3 (state-synchronization latency), Figures 8/9
// (realistic workloads), and the headline numbers (cycle savings, latency
// reduction, slow-path fraction). Two sweeps go beyond the paper: LoadSweep
// (latency vs offered load) and Ablations (the design choices).
package eval

import (
	"fmt"
	"runtime"
	"sync"

	"gallium"
	"gallium/internal/middleboxes"
	"gallium/internal/packet"
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

// fanOut runs f(0) … f(n-1), at most one per CPU at a time, and returns
// the error of the lowest failing index.
func fanOut(n int, f func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.NumCPU())
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = f(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// probe opens a testbed on c and measures one warm connection: a SYN of
// synSize bytes at t=0 establishes it, then n ACK probes, probe i padded
// to size(i), follow gapNs apart from 2 ms on, after any synchronization
// has settled. It returns the SYN's latency, the latencies of the probes
// that were delivered and the testbed's Report.
func probe(c *gallium.Artifacts, mode gallium.Mode, cores, synSize, n int, gapNs int64, size func(i int) int) (synNs int64, latNs []int64, rep *gallium.Report, err error) {
	gen := trafficFor(synSize, 1, 1) // only for the tuple set
	tb, err := c.NewTestbed(gallium.TestbedConfig{}, gallium.WithMode(mode), gallium.WithWorkers(cores), gallium.WithScenario(), gallium.WithFlows(gen.Tuples()))
	if err != nil {
		return 0, nil, nil, err
	}
	tup := gen.Tuples()[0]
	syn := packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort, packet.TCPOptions{Flags: packet.TCPFlagSYN})
	syn.PadTo(synSize)
	d, err := tb.Inject(0, syn)
	if err != nil {
		return 0, nil, nil, err
	}
	synNs = d.LatencyNs
	t := int64(2_000_000)
	for i := range n {
		p := packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort, packet.TCPOptions{Flags: packet.TCPFlagACK})
		p.PadTo(size(i))
		d, err := tb.Inject(t, p)
		if err != nil {
			return 0, nil, nil, err
		}
		if d.Delivered {
			latNs = append(latNs, d.LatencyNs)
		}
		t += gapNs
	}
	if len(latNs) == 0 {
		return 0, nil, nil, fmt.Errorf("%s/%v: no probes delivered", c.Name, mode)
	}
	return synNs, latNs, tb.Report(), nil
}
