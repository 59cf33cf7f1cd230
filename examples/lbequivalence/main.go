// LB equivalence: differential-test the compiled L4 load balancer. The
// same randomized connection mix (SYN/data/FIN, TCP and UDP) runs through
// (a) the reference interpreter on the input program and (b) the full
// offloaded deployment on a timing-free testbed — switch tables, wire-format Gallium headers,
// server partition, write-back synchronization — and every packet's fate
// and rewrite must match, ending in identical state. This is goal (1) of
// the paper (§3.1, functional equivalence) made executable.
//
// Run with: go run ./examples/lbequivalence
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
	art, err := gallium.CompileBuiltin("l4lb", gallium.Options{})
	if err != nil {
		log.Fatal(err)
	}
	ref := ir.NewState(art.Prog)

	setup := func(st *ir.State) { middleboxes.ConfigureState("l4lb", st) }
	setup(ref)
	tb, err := art.NewTestbed(gallium.TestbedConfig{Setup: setup}, gallium.WithCostModel(engine.InstantModel()))
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(2024))
	const packets = 20000
	mismatches, fast := 0, 0
	for i := 0; i < packets; i++ {
		src := packet.MakeIPv4Addr(172, 16, byte(rng.Intn(4)), byte(1+rng.Intn(40)))
		sport := uint16(5000 + rng.Intn(200))
		vip := packet.MakeIPv4Addr(10, 0, 2, 2)
		flags := packet.TCPFlagACK
		switch rng.Intn(12) {
		case 0:
			flags = packet.TCPFlagSYN
		case 1:
			flags = packet.TCPFlagFIN | packet.TCPFlagACK
		}
		var a *packet.Packet
		if rng.Intn(6) == 0 {
			a = packet.BuildUDP(src, vip, sport, 53, []byte("q"))
		} else {
			a = packet.BuildTCP(src, vip, sport, 80, packet.TCPOptions{Flags: flags})
		}
		b := a.Clone()

		rRef, err := art.Prog.Exec(&ir.Env{State: ref, Pkt: a})
		if err != nil {
			log.Fatal(err)
		}
		d, err := tb.Inject(0, b)
		if err != nil {
			log.Fatal(err)
		}
		if d.FastPath {
			fast++
		}
		action := ir.ActionDropped
		if d.Delivered {
			action = ir.ActionSent
		}
		if rRef.Action != action || a.IP.DstIP != b.IP.DstIP {
			mismatches++
			fmt.Printf("MISMATCH pkt %d: ref=%v/%v dep=%v/%v\n", i, rRef.Action, a.IP.DstIP, action, b.IP.DstIP)
		}
	}
	tb.Due(0) // the last packet's write-back still awaits its flip
	state := tb.ServerState()

	fmt.Printf("ran %d packets through reference and offloaded deployment\n", packets)
	fmt.Printf("  mismatches: %d\n", mismatches)
	fmt.Printf("  fast path:  %.1f%% (established connections bypass the server)\n", 100*float64(fast)/packets)
	fmt.Printf("  states equal at end: %v\n", ref.Equal(state))
	fmt.Printf("  connection entries: server=%d switch=%d\n",
		state.Table("conns").Len(), tableLen(tb))
	if mismatches == 0 && ref.Equal(state) {
		fmt.Println("PASS: partitioned deployment is functionally equivalent to the input middlebox")
	} else {
		fmt.Println("FAIL")
	}
}

func tableLen(tb *gallium.Testbed) int {
	t, ok := tb.Switch().Table("conns")
	if !ok {
		return -1
	}
	return t.Len()
}
