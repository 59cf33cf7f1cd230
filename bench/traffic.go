package main

import (
	"hash/fnv"
	"math/rand"

	"gallium/internal/ir"
	"gallium/internal/middleboxes"
	"gallium/internal/packet"
)

// frameBytes is the wire size every IPv4 packet is padded to: the
// smallest Ethernet frame, where per-packet cost dominates.
const frameBytes = 64

// flowTmpl holds one flow's pristine packets: first is what the warm
// pass sends (it takes the slow path where the middlebox has one),
// steady is what every timed round sends.
type flowTmpl struct {
	first, steady packet.Packet
	tuple         packet.FiveTuple
	tuple6        packet.SixTuple
}

// proxyPort is the destination port the proxy pipeline redirects.
const proxyPort = 5001

// buildFlows derives n distinct flows for the named middlebox from rng.
// Sources sit in 10/8 (the simulated internal network, so NAT and the
// firewall treat them as outbound), destinations outside it.
func buildFlows(box string, n int, rng *rand.Rand) []flowTmpl {
	out := make([]flowTmpl, 0, n)
	seen := make(map[uint64]struct{}, n)
	for len(out) < n {
		host := rng.Uint32() & 0x00FFFFFF
		sport := uint16(1024 + rng.Intn(60000))
		key := uint64(host)<<16 | uint64(sport)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		src := packet.IPv4Addr(10<<24 | host)
		dst := packet.IPv4Addr(uint32(93+rng.Intn(100))<<24 | rng.Uint32()&0x00FFFFFF)
		dport := uint16(80)
		if box == "proxy" {
			dport = proxyPort
		}
		var f flowTmpl
		f.tuple = packet.FiveTuple{SrcIP: src, DstIP: dst, SrcPort: sport, DstPort: dport, Proto: packet.IPProtocolTCP}
		ack := packet.TCPOptions{Flags: packet.TCPFlagACK, Seq: rng.Uint32(), Ack: rng.Uint32()}
		switch box {
		case "firewall6":
			f.tuple6 = packet.SixTuple{
				SrcIP:   packet.MakeIPv6Addr(0x20010DB8<<32|uint64(host), uint64(sport)),
				DstIP:   packet.MakeIPv6Addr(0x20010DB8<<32|1<<24, uint64(rng.Uint32())),
				SrcPort: sport, DstPort: dport, Proto: packet.IPProtocolTCP,
			}
			f.steady = *packet.BuildTCP6(f.tuple6.SrcIP, f.tuple6.DstIP, sport, dport, ack)
			f.first = f.steady
		case "mssclamp":
			f.steady = *packet.BuildTCP(src, dst, sport, dport,
				packet.TCPOptions{Flags: packet.TCPFlagSYN, Seq: ack.Seq, MSS: 9000})
			f.first = f.steady
		case "trojandetector":
			f.first = *packet.BuildTCP(src, dst, sport, dport, packet.TCPOptions{Flags: packet.TCPFlagSYN, Seq: ack.Seq})
			f.steady = *packet.BuildTCP(src, dst, sport, dport, ack)
		default:
			f.steady = *packet.BuildTCP(src, dst, sport, dport, ack)
			f.first = f.steady
		}
		f.first.PadTo(frameBytes)
		f.steady.PadTo(frameBytes)
		out = append(out, f)
	}
	return out
}

// seedState puts one shard of a middlebox's state into its steady
// configuration for the given flows. The session under test, the oracle
// and the walker all call it, so they start identical.
func seedState(box string, flows []flowTmpl, st *ir.State, shard, shards int) {
	middleboxes.ConfigureShard(box, shard, shards, st)
	switch box {
	case "firewall":
		for i := range flows {
			middleboxes.AllowFlow(st, flows[i].tuple)
		}
	case "firewall6":
		for i := range flows {
			middleboxes.AllowFlow6(st, flows[i].tuple6)
		}
	case "synproxy":
		for i := range flows {
			middleboxes.ProveFlow(st, flows[i].tuple)
		}
	case "proxy":
		middleboxes.RedirectPort(st, proxyPort)
	}
}

// churnGen produces never-repeating NAT flows: a SYN and two to four
// ACKs each, churnInterleave flows in flight at a time. Flow k's source
// is a function of (seed, k) alone, so the warm pass, the timed rounds
// and the oracle all see the same stream.
type churnGen struct {
	base packet.Packet // pristine 64 B TCP packet; addresses overwritten per flow
	salt uint64
	next uint64 // next unused flow index
}

const churnInterleave = 64

func newChurnGen(rng *rand.Rand) *churnGen {
	dst := packet.IPv4Addr(uint32(93+rng.Intn(100))<<24 | rng.Uint32()&0x00FFFFFF)
	base := packet.BuildTCP(packet.MakeIPv4Addr(10, 0, 0, 1), dst, 1024, 80, packet.TCPOptions{Flags: packet.TCPFlagACK})
	base.PadTo(frameBytes)
	return &churnGen{base: *base, salt: rng.Uint64()}
}

// acks reports how many ACKs follow flow k's SYN.
func (g *churnGen) acks(k uint64) int {
	x := (k + g.salt) * 0x9E3779B97F4A7C15
	return 2 + int((x>>40)%3)
}

// write makes p the step-th packet of flow k (0 is the SYN). The source
// is 10.x.y.z from the low 24 bits of the flow index and a port from the
// rest: distinct for 2^24 * 60000 flows.
func (g *churnGen) write(p *packet.Packet, k uint64, step int) {
	*p = g.base
	p.IP.SrcIP = packet.IPv4Addr(10<<24 | uint32(k&0x00FFFFFF))
	p.TCP.SrcPort = uint16(1024 + (k>>24+g.salt)%60000)
	p.TCP.Seq = uint32(k) + uint32(step)
	if step == 0 {
		p.TCP.Flags = packet.TCPFlagSYN
	}
}

// fill overwrites pkts with the packets of the next flows, interleaved,
// and returns how many packets it wrote. Flows whose packets might not
// fit are left for the next call.
func (g *churnGen) fill(pkts []*packet.Packet) int {
	n := 0
	for n+churnInterleave*5 <= len(pkts) {
		first := g.next
		g.next += churnInterleave
		for step := 0; step <= 4; step++ {
			for k := first; k < first+churnInterleave; k++ {
				if step <= g.acks(k) {
					g.write(pkts[n], k, step)
					n++
				}
			}
		}
	}
	return n
}

// digest folds packets' wire bytes into h; results carry it so two runs
// can show they were given the same inputs.
func digest(h uint64, p *packet.Packet) uint64 {
	f := fnv.New64a()
	f.Write(p.Serialize())
	return h*1099511628211 ^ f.Sum64()
}
