package packet

// Builders used by traffic generators and tests.

// TCPOptions configures BuildTCP.
type TCPOptions struct {
	Flags  uint8
	Seq    uint32
	Ack    uint32
	Window uint16
	// MSS, when nonzero, adds an MSS option to the segment.
	MSS     uint16
	Payload []byte
}

// BuildTCP constructs an Ethernet/IPv4/TCP packet for the given tuple.
func BuildTCP(src, dst IPv4Addr, sport, dport uint16, opt TCPOptions) *Packet {
	p := &Packet{HasIP: true, HasTCP: true}
	p.Eth = Ethernet{EtherType: EtherTypeIPv4}
	win := opt.Window
	if win == 0 {
		win = 65535
	}
	p.TCP = TCP{SrcPort: sport, DstPort: dport, Seq: opt.Seq, Ack: opt.Ack, Flags: opt.Flags, Window: win,
		HasMSS: opt.MSS != 0, MSS: opt.MSS}
	p.IP = IPv4{TTL: 64, Protocol: IPProtocolTCP, SrcIP: src, DstIP: dst,
		Length: uint16(IPv4HeaderLen + p.TCP.HeaderLen() + len(opt.Payload))}
	p.Payload = append([]byte(nil), opt.Payload...)
	return p
}

// BuildUDP constructs an Ethernet/IPv4/UDP packet for the given tuple.
func BuildUDP(src, dst IPv4Addr, sport, dport uint16, payload []byte) *Packet {
	p := &Packet{HasIP: true, HasUDP: true}
	p.Eth = Ethernet{EtherType: EtherTypeIPv4}
	p.IP = IPv4{TTL: 64, Protocol: IPProtocolUDP, SrcIP: src, DstIP: dst,
		Length: uint16(IPv4HeaderLen + UDPHeaderLen + len(payload))}
	p.UDP = UDP{SrcPort: sport, DstPort: dport, Length: uint16(UDPHeaderLen + len(payload))}
	p.Payload = append([]byte(nil), payload...)
	return p
}

// BuildTCP6 constructs an Ethernet/IPv6/TCP packet for the given tuple.
func BuildTCP6(src, dst IPv6Addr, sport, dport uint16, opt TCPOptions) *Packet {
	p := &Packet{HasIP6: true, HasTCP: true}
	p.Eth = Ethernet{EtherType: EtherTypeIPv6}
	p.IP6 = IPv6{HopLimit: 64, NextHeader: IPProtocolTCP, SrcIP: src, DstIP: dst}
	win := opt.Window
	if win == 0 {
		win = 65535
	}
	p.TCP = TCP{SrcPort: sport, DstPort: dport, Seq: opt.Seq, Ack: opt.Ack, Flags: opt.Flags, Window: win,
		HasMSS: opt.MSS != 0, MSS: opt.MSS}
	p.Payload = append([]byte(nil), opt.Payload...)
	p.IP6.PayloadLen = uint16(p.TCP.HeaderLen() + len(opt.Payload))
	return p
}

// BuildUDP6 constructs an Ethernet/IPv6/UDP packet for the given tuple.
func BuildUDP6(src, dst IPv6Addr, sport, dport uint16, payload []byte) *Packet {
	p := &Packet{HasIP6: true, HasUDP: true}
	p.Eth = Ethernet{EtherType: EtherTypeIPv6}
	p.IP6 = IPv6{HopLimit: 64, NextHeader: IPProtocolUDP, SrcIP: src, DstIP: dst,
		PayloadLen: uint16(UDPHeaderLen + len(payload))}
	p.UDP = UDP{SrcPort: sport, DstPort: dport, Length: uint16(UDPHeaderLen + len(payload))}
	p.Payload = append([]byte(nil), payload...)
	return p
}

// EncapGRE wraps the packet in an outer IPv4 header carrying GRE, in
// place. A zero key leaves the optional key field out.
func (p *Packet) EncapGRE(src, dst IPv4Addr, key uint32) {
	p.Outer = IPv4{TTL: 64, Protocol: IPProtocolGRE, SrcIP: src, DstIP: dst}
	p.GRE = GRE{HasKey: key != 0, Key: key}
	p.HasOuter, p.HasGRE = true, true
}

// EncapIPIP wraps the packet in a plain IP-in-IP outer IPv4 header, in
// place.
func (p *Packet) EncapIPIP(src, dst IPv4Addr) {
	p.Outer = IPv4{TTL: 64, SrcIP: src, DstIP: dst}
	p.HasOuter, p.HasGRE = true, false
}

// Decap strips any outer encapsulation headers, in place.
func (p *Packet) Decap() {
	p.HasOuter, p.HasGRE = false, false
}

// PadTo grows the packet's payload so its wire length is exactly size bytes
// (no-op if already at least that large).
func (p *Packet) PadTo(size int) {
	if n := p.WireLen(); n < size {
		p.Payload = append(p.Payload, make([]byte, size-n)...)
		if p.HasIP {
			p.IP.Length += uint16(size - n)
		}
		if p.HasIP6 {
			p.IP6.PayloadLen += uint16(size - n)
		}
		if p.HasUDP {
			p.UDP.Length += uint16(size - n)
		}
	}
}
