// Cache mode: §7 of the paper sketches shrinking switch memory by keeping
// only a fraction of a table on the switch ("For any packet that the
// programmable switch does not know how to handle, the middlebox server
// handles it instead") and leaves it to future work. This repository
// implements it: cached tables hold N entries with FIFO eviction, cache
// misses punt the packet to the server's authoritative state, entries fill
// on demand (read-through), and only updates the switch might already be
// serving pay the synchronization stall.
//
// This example sweeps the MiniLB connection-cache size under skewed
// traffic and prints the memory/fast-path trade-off.
//
// Run with: go run ./examples/cachemode
package main

import (
	"fmt"
	"log"
	"math/rand"

	"gallium"
	"gallium/internal/engine"
	"gallium/internal/ir"
	"gallium/internal/middleboxes"
	"gallium/internal/packet"
)

func main() {
	fmt.Println("MiniLB connection table: 65536 entries fully resident vs §7 cache mode")
	fmt.Println("traffic: 80% from a 20-host hot set, 20% cold tail (12000 packets)")
	fmt.Println()
	fmt.Printf("%10s %14s %11s %8s %11s\n", "cache", "switch memory", "fast path", "punts", "evictions")

	for _, entries := range []int{0, 8, 32, 128, 512, 2048} {
		var opts gallium.Options
		label := "full"
		if entries > 0 {
			opts.CacheEntries = map[string]int{"conn": entries}
			label = fmt.Sprintf("%d", entries)
		}
		art, err := gallium.Compile(middleboxes.MiniLBSource, opts)
		if err != nil {
			log.Fatal(err)
		}
		res := art.Res
		tb, err := art.NewTestbed(gallium.TestbedConfig{Setup: func(st *ir.State) { middleboxes.ConfigureState("minilb", st) }},
			gallium.WithCostModel(engine.InstantModel()))
		if err != nil {
			log.Fatal(err)
		}

		rng := rand.New(rand.NewSource(9))
		const total = 12000
		fast := 0
		for i := 0; i < total; i++ {
			var src packet.IPv4Addr
			if rng.Intn(5) > 0 {
				src = packet.MakeIPv4Addr(10, 0, 0, byte(1+rng.Intn(20)))
			} else {
				src = packet.MakeIPv4Addr(10, 0, byte(1+rng.Intn(200)), byte(1+rng.Intn(250)))
			}
			p := packet.BuildTCP(src, packet.MakeIPv4Addr(9, 9, 9, 9), 1000, 80, packet.TCPOptions{})
			d, err := tb.Inject(0, p)
			if err != nil {
				log.Fatal(err)
			}
			if d.FastPath {
				fast++
			}
		}
		tb.Due(0) // the last packet's write-back still awaits its flip
		st := tb.Switch().Stats()
		fmt.Printf("%10s %13dB %10.1f%% %8d %11d\n",
			label, res.Report.SwitchMemoryBytes, 100*float64(fast)/total, st.Punts, st.Evictions)
	}
	fmt.Println()
	fmt.Println("a few hundred cached entries recover nearly the full-table fast-path")
	fmt.Println("rate at a small fraction of the switch memory — the §7 trade-off")
}
