// Firewall latency: the firewall compiles to a pure-switch program (every
// packet takes the fast path, §6.2), so Gallium's latency win is exactly
// the cost of the server detour. This example measures both deployments
// with Nptcp-style probes and prints the per-hop latency budget so the
// ~31% reduction (Table 2) is visible component by component.
//
// Run with: go run ./examples/firewalllatency
package main

import (
	"context"
	"fmt"
	"log"

	"gallium"
	"gallium/internal/engine"
	"gallium/internal/ir"
	"gallium/internal/middleboxes"
	"gallium/internal/packet"
	"gallium/internal/trafficgen"
)

func main() {
	art, err := gallium.CompileBuiltin("firewall", gallium.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if art.Res.Report.NumSrv != 0 {
		log.Fatalf("firewall should be fully offloaded, server has %d statements", art.Res.Report.NumSrv)
	}
	fmt.Printf("firewall partition: %d statements, all on the switch (%d tables)\n\n",
		art.Res.Report.NumStmts, len(art.Res.OffloadedGlobals))

	tup := packet.FiveTuple{
		SrcIP: packet.MakeIPv4Addr(10, 0, 0, 1), DstIP: packet.MakeIPv4Addr(8, 8, 8, 8),
		SrcPort: 4000, DstPort: 443, Proto: packet.IPProtocolTCP,
	}
	measure := func(mode gallium.Mode) float64 {
		probes := trafficgen.ProbeConfig{Tuple: tup, Count: 20, PacketSize: 500}
		rep, err := art.Run(context.Background(), probes,
			gallium.WithMode(mode),
			gallium.WithState(func(shard int, st *ir.State) { middleboxes.AllowFlow(st, tup) }),
		)
		if err != nil {
			log.Fatal(err)
		}
		if rep.Stats.Delivered != rep.Stats.Injected {
			log.Fatalf("%d of %d probes dropped", rep.Stats.Injected-rep.Stats.Delivered, rep.Stats.Injected)
		}
		return rep.Latency.Mean / 1000
	}

	gal := measure(gallium.Offloaded)
	fc := measure(gallium.Software)

	m := engine.DefaultModel()
	fmt.Println("per-hop latency budget (µs):")
	fmt.Printf("  endpoint stacks (2x)        %6.2f\n", 2*m.EndpointStackNs/1000)
	fmt.Printf("  switch pipeline (per pass)  %6.2f\n", m.SwitchPipelineNs/1000)
	fmt.Printf("  link hop (per hop)          %6.2f\n", m.LinkPropNs/1000)
	fmt.Printf("  server datapath (sw only)   %6.2f\n", m.ServerDatapathNs/1000)
	fmt.Println()
	fmt.Printf("measured: FastClick %.2f µs, Gallium %.2f µs  ->  %.1f%% lower\n",
		fc, gal, 100*(fc-gal)/fc)
	fmt.Println("(Table 2 of the paper: 22.45 µs vs 15.96 µs, ~29%)")
}
