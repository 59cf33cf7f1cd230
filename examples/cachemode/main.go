// Cache mode: §7 of the paper sketches shrinking switch memory by keeping
// only a fraction of a table on the switch ("For any packet that the
// programmable switch does not know how to handle, the middlebox server
// handles it instead") and leaves it to future work. This repository
// implements it: cached tables hold N entries with FIFO eviction, cache
// misses punt the packet to the server's authoritative state, entries fill
// on demand (read-through), and only updates the switch might already be
// serving pay the synchronization stall.
//
// This example prints eval.AblationCacheSize, the sweep galliumbench
// -exp ablation runs, over a wider range of MiniLB connection-cache sizes:
// the memory/fast-path trade-off under skewed traffic.
//
// Run with: go run ./examples/cachemode
package main

import (
	"fmt"
	"log"

	"gallium/internal/eval"
)

func main() {
	rows, err := eval.AblationCacheSize(0, 8, 32, 128, 512, 2048)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("MiniLB connection table: 65536 entries fully resident vs §7 cache mode")
	fmt.Println("traffic: 80% from a 20-host hot set, 20% cold tail (12000 packets)")
	fmt.Println()
	fmt.Printf("%10s %14s %11s %8s %11s\n", "cache", "switch memory", "fast path", "punts", "evictions")
	for _, r := range rows {
		label := "full"
		if r.Entries > 0 {
			label = fmt.Sprintf("%d", r.Entries)
		}
		fmt.Printf("%10s %13dB %10.1f%% %8d %11d\n", label, r.MemoryBytes, r.FastPathPct, r.Punts, r.Evictions)
	}
	fmt.Println()
	fmt.Println("a few hundred cached entries recover nearly the full-table fast-path")
	fmt.Println("rate at a small fraction of the switch memory — the §7 trade-off")
}
