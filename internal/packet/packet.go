package packet

import (
	"fmt"
)

// Packet is the mutable, decoded representation of a frame used throughout
// the simulator: the switch pipeline and the server runtime both read and
// rewrite header fields on it, and Serialize produces wire bytes again.
//
// A Packet is a plain value: the header structs, their presence flags, the
// ingress tag and two buffers it owns, GalData and Payload. It never
// references the bytes it was decoded from, so a frame buffer may be
// reused as soon as Decode returns, and a copy (*p = *q) pins nothing but
// q's two buffers.
type Packet struct {
	Eth Ethernet

	// The presence flags sit together: declared beside their headers each
	// would cost eight bytes of padding in front of an 8-aligned field.
	//
	// HasGallium marks frames carrying the synthesized Gallium header on
	// the switch-server link (GalData).
	HasGallium bool
	// HasOuter marks an encapsulated packet; Outer is the outer IPv4
	// delivery header (the simulator always tunnels over IPv4). With
	// HasGRE the encapsulation is GRE, otherwise plain IP-in-IP
	// (protocol 4 for inner IPv4, 41 for inner IPv6).
	HasOuter bool
	HasGRE   bool
	// HasIP/HasIP6 select the (innermost) network header. At most one is
	// set: IP always names the innermost IPv4 header, so field accessors
	// and five-tuples keep referring to the payload flow when a program
	// wraps the packet in a tunnel.
	HasIP  bool
	HasIP6 bool
	HasTCP bool
	HasUDP bool
	// RxBurst tells the engine's Dispatch that more datagrams of the
	// ingress front end's read follow this one: the packet joins its
	// worker's burst, and the read's unmarked last packet pushes every
	// worker's burst, one mailbox push each (see engine.Engine.Dispatch).
	// Like Ingress it is never serialized.
	RxBurst bool

	GalData []byte
	Outer   IPv4
	GRE     GRE
	IP      IPv4
	IP6     IPv6
	TCP     TCP
	UDP     UDP

	Payload []byte

	// Ingress is an opaque tag the ingress front end stamps and reads back
	// at delivery — the software twin of P4's standard_metadata.ingress_port.
	// It is never serialized; Clone copies it and the walker carries it
	// across the slow path's wire hops. Zero means unstamped.
	Ingress uint64
}

// DecodePacket parses wire bytes into a fresh Packet. galFormat describes
// the Gallium header layout and may be nil when no such header can appear.
func DecodePacket(data []byte, galFormat *HeaderFormat) (*Packet, error) {
	p := new(Packet)
	if err := p.Decode(data, galFormat); err != nil {
		return nil, err
	}
	return p, nil
}

// Decode resets p and parses wire bytes into it, reusing the capacity of
// its Payload and GalData buffers so a recycled packet decodes without
// allocating. Each header decoder returns the bytes after its header and
// the next one continues from there; the payload and the Gallium data are
// copied, so the caller may reuse data as soon as Decode returns. After an
// error p holds a partial decode and must not be used as a packet.
func (p *Packet) Decode(data []byte, galFormat *HeaderFormat) error {
	*p = Packet{GalData: p.GalData[:0], Payload: p.Payload[:0]}
	rest, err := p.Eth.decode(data)
	if err != nil {
		return err
	}
	next := p.Eth.EtherType
	if next == EtherTypeGallium {
		if galFormat == nil {
			return &DecodeError{Layer: LayerTypeGallium, Msg: "gallium header present but no format given"}
		}
		g := Gallium{Data: p.GalData}
		if rest, err = g.decode(rest, galFormat.DataLen()); err != nil {
			return err
		}
		p.HasGallium, p.GalData, next = true, g.Data, g.NextEtherType
	}
	// proto is the transport protocol of the innermost network header;
	// anything but TCP or UDP leaves the rest as opaque payload.
	var proto IPProtocol
	if next == EtherTypeIPv4 {
		if rest, err = p.IP.decode(rest); err != nil {
			return err
		}
		p.HasIP, proto = true, p.IP.Protocol
		// One level of encapsulation: an outer IPv4 header carrying GRE
		// or IP-in-IP moves to Outer and the inner network header takes
		// its place. Deeper nesting decodes as opaque payload.
		encap := true
		switch proto {
		case IPProtocolGRE:
			if rest, err = p.GRE.decode(rest); err != nil {
				return err
			}
			p.HasGRE, next = true, p.GRE.Protocol
		case IPProtocolIPIP:
			next = EtherTypeIPv4
		case IPProtocolIPv6:
			next = EtherTypeIPv6
		default:
			encap = false
		}
		if encap {
			p.Outer, p.IP = p.IP, IPv4{}
			p.HasOuter, p.HasIP, proto = true, false, 0
			if next == EtherTypeIPv4 {
				if rest, err = p.IP.decode(rest); err != nil {
					return err
				}
				p.HasIP, proto = true, p.IP.Protocol
			}
		}
	}
	if next == EtherTypeIPv6 {
		if rest, err = p.IP6.decode(rest); err != nil {
			return err
		}
		p.HasIP6, proto = true, p.IP6.NextHeader
	}
	switch proto {
	case IPProtocolTCP:
		if rest, err = p.TCP.decode(rest); err != nil {
			return err
		}
		p.HasTCP = true
	case IPProtocolUDP:
		if rest, err = p.UDP.decode(rest); err != nil {
			return err
		}
		p.HasUDP = true
	}
	p.Payload = append(p.Payload, rest...)
	return nil
}

// Serialize assembles the packet back into wire bytes. Protocol and
// EtherType chaining fields (inner ethertype in GRE, outer IP protocol,
// the Gallium next-ethertype, the Ethernet ethertype) are derived from the
// presence flags, so a packet mutated through the field accessors always
// re-serializes into a consistent header chain.
func (p *Packet) Serialize() []byte {
	return append([]byte(nil), p.SerializeTo(NewSerializeBuffer())...)
}

// SerializeTo is Serialize into a caller-owned buffer: it clears b,
// assembles the packet in it and returns the wire bytes, which alias b
// until b's next use. A long-lived b makes serialization allocation-free.
func (p *Packet) SerializeTo(b *SerializeBuffer) []byte {
	b.Clear()
	b.PushPayload(p.Payload)
	var ph *pseudoHeader
	switch {
	case p.HasIP:
		ph = &pseudoHeader{SrcIP: p.IP.SrcIP, DstIP: p.IP.DstIP}
	case p.HasIP6:
		ph = &pseudoHeader{V6: true, SrcIP6: p.IP6.SrcIP, DstIP6: p.IP6.DstIP}
	}
	switch {
	case p.HasTCP:
		p.TCP.serializeTo(b, ph)
	case p.HasUDP:
		p.UDP.serializeTo(b, ph)
	}
	var netType EtherType // ethertype of the outermost network header, 0 if none
	switch {
	case p.HasIP:
		p.IP.serializeTo(b)
		netType = EtherTypeIPv4
	case p.HasIP6:
		p.IP6.serializeTo(b)
		netType = EtherTypeIPv6
	}
	if p.HasOuter {
		if p.HasGRE {
			if netType != 0 {
				p.GRE.Protocol = netType
			}
			p.GRE.serializeTo(b)
			p.Outer.Protocol = IPProtocolGRE
		} else if p.HasIP6 {
			p.Outer.Protocol = IPProtocolIPv6
		} else if p.HasIP {
			p.Outer.Protocol = IPProtocolIPIP
		}
		p.Outer.serializeTo(b)
		netType = EtherTypeIPv4
	}
	if p.HasGallium {
		g := Gallium{NextEtherType: netType, Data: p.GalData}
		g.serializeTo(b)
		p.Eth.EtherType = EtherTypeGallium
	} else if netType != 0 {
		p.Eth.EtherType = netType
	}
	p.Eth.serializeTo(b)
	return b.Bytes()
}

// Clone returns a deep copy of the packet.
func (p *Packet) Clone() *Packet {
	q := *p
	q.GalData = append([]byte(nil), p.GalData...)
	q.Payload = append([]byte(nil), p.Payload...)
	return &q
}

// WireLen returns the packet's on-wire size in bytes.
func (p *Packet) WireLen() int {
	n := EthernetHeaderLen + len(p.Payload)
	if p.HasGallium {
		n += GalliumHeaderBaseLen + len(p.GalData)
	}
	if p.HasOuter {
		n += IPv4HeaderLen
		if p.HasGRE {
			n += p.GRE.HeaderLen()
		}
	}
	if p.HasIP {
		n += IPv4HeaderLen
	}
	if p.HasIP6 {
		n += IPv6HeaderLen
	}
	if p.HasTCP {
		n += p.TCP.HeaderLen()
	}
	if p.HasUDP {
		n += UDPHeaderLen
	}
	return n
}

// Tuple returns the packet's transport five-tuple; ok is false for
// non-TCP/UDP packets.
func (p *Packet) Tuple() (FiveTuple, bool) {
	if !p.HasIP {
		return FiveTuple{}, false
	}
	t := FiveTuple{SrcIP: p.IP.SrcIP, DstIP: p.IP.DstIP, Proto: p.IP.Protocol}
	switch {
	case p.HasTCP:
		t.SrcPort, t.DstPort = p.TCP.SrcPort, p.TCP.DstPort
	case p.HasUDP:
		t.SrcPort, t.DstPort = p.UDP.SrcPort, p.UDP.DstPort
	default:
		return FiveTuple{}, false
	}
	return t, true
}

// Tuple6 returns the packet's IPv6 transport six-tuple (five-tuple plus
// flow label); ok is false unless the packet is IPv6 with TCP or UDP.
func (p *Packet) Tuple6() (SixTuple, bool) {
	if !p.HasIP6 {
		return SixTuple{}, false
	}
	t := SixTuple{SrcIP: p.IP6.SrcIP, DstIP: p.IP6.DstIP, Proto: p.IP6.NextHeader, FlowLabel: p.IP6.FlowLabel}
	switch {
	case p.HasTCP:
		t.SrcPort, t.DstPort = p.TCP.SrcPort, p.TCP.DstPort
	case p.HasUDP:
		t.SrcPort, t.DstPort = p.UDP.SrcPort, p.UDP.DstPort
	default:
		return SixTuple{}, false
	}
	return t, true
}

// DispatchTuple returns a five-tuple-shaped flow key for RSS steering and
// per-flow ordering, covering v4, v6, and encapsulated packets (keyed on
// the inner flow). IPv6 addresses are folded to 32 bits, so distinct v6
// flows can collide — a collision only costs parallelism or ordering
// conservatism, never correctness, because colliding flows are simply
// treated as one flow. ok is false for packets with no transport header.
func (p *Packet) DispatchTuple() (FiveTuple, bool) {
	if t, ok := p.Tuple(); ok {
		return t, true
	}
	t6, ok := p.Tuple6()
	if !ok {
		return FiveTuple{}, false
	}
	return FiveTuple{
		SrcIP:   t6.SrcIP.fold32(),
		DstIP:   t6.DstIP.fold32(),
		SrcPort: t6.SrcPort,
		DstPort: t6.DstPort,
		Proto:   t6.Proto,
	}, true
}

// AttachGallium adds an empty Gallium header of the given format to the
// packet (all fields zero). A buffer left over from an earlier attach is
// reused when large enough, so a packet cycling through the pipeline does
// not allocate per pass.
func (p *Packet) AttachGallium(f *HeaderFormat) {
	p.HasGallium = true
	n := f.DataLen()
	if cap(p.GalData) >= n {
		p.GalData = p.GalData[:n]
		clear(p.GalData)
	} else {
		p.GalData = make([]byte, n)
	}
}

// StripGallium removes the Gallium header. The data buffer's capacity is
// retained for a later AttachGallium.
func (p *Packet) StripGallium() {
	p.HasGallium = false
	p.GalData = p.GalData[:0]
}

// Tunnel modes exposed through the tun.mode pseudo-field.
const (
	TunModeNone uint64 = 0
	TunModeGRE  uint64 = 1
	TunModeIPIP uint64 = 2
)

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Field is a resolved packet header field usable by compiled middlebox
// programs: the one handle behind both the by-name accessors (GetField,
// SetField) and the execution plans, which resolve each name once at
// lowering time (LookupField) and keep the handle.
type Field struct {
	bits int
	get  func(p *Packet) uint64
	set  func(p *Packet, v uint64)
}

// Bits reports the field's width in bits.
func (f *Field) Bits() int { return f.bits }

// Get reads the field from p.
func (f *Field) Get(p *Packet) uint64 { return f.get(p) }

// Set writes the field on p.
func (f *Field) Set(p *Packet, v uint64) { f.set(p, v) }

// headerFields is the table of packet header fields addressable from
// MiniClick programs and compiled P4 pipelines. The names mirror the field
// paths in the DSL (`p.ip.saddr` etc.).
// tcpField/udpField gate an accessor pair on header presence, giving
// absent headers wire semantics: reads return zero and writes are
// dropped, exactly what a serialize/parse hop preserves. Without the
// guard an in-memory write to e.g. tcp.window on a UDP packet would read
// back locally but silently vanish at the first switch↔server hop,
// making behavior depend on where the partitioner placed the access.
func tcpField(get func(*Packet) uint64, set func(*Packet, uint64)) (func(*Packet) uint64, func(*Packet, uint64)) {
	return func(p *Packet) uint64 {
			if !p.HasTCP {
				return 0
			}
			return get(p)
		}, func(p *Packet, v uint64) {
			if p.HasTCP {
				set(p, v)
			}
		}
}

func udpField(get func(*Packet) uint64, set func(*Packet, uint64)) (func(*Packet) uint64, func(*Packet, uint64)) {
	return func(p *Packet) uint64 {
			if !p.HasUDP {
				return 0
			}
			return get(p)
		}, func(p *Packet, v uint64) {
			if p.HasUDP {
				set(p, v)
			}
		}
}

func guardedTCP(bits int, get func(*Packet) uint64, set func(*Packet, uint64)) *Field {
	g, s := tcpField(get, set)
	return &Field{bits, g, s}
}

func guardedUDP(bits int, get func(*Packet) uint64, set func(*Packet, uint64)) *Field {
	g, s := udpField(get, set)
	return &Field{bits, g, s}
}

// guardedIP / guardedIP6 gate accessors on the presence of the (inner)
// IPv4 / IPv6 header, with the same wire semantics as the transport
// guards: reads of an absent header return zero, writes are dropped. With
// IPv6 frames first-class this matters for the ip.* fields too — a
// program probing p.ip.ttl on a v6 packet must see the same zero on the
// switch partition and the server partition.
func guardedIP(bits int, get func(*Packet) uint64, set func(*Packet, uint64)) *Field {
	return &Field{bits,
		func(p *Packet) uint64 {
			if !p.HasIP {
				return 0
			}
			return get(p)
		},
		func(p *Packet, v uint64) {
			if p.HasIP {
				set(p, v)
			}
		}}
}

func guardedIP6(bits int, get func(*Packet) uint64, set func(*Packet, uint64)) *Field {
	return &Field{bits,
		func(p *Packet) uint64 {
			if !p.HasIP6 {
				return 0
			}
			return get(p)
		},
		func(p *Packet, v uint64) {
			if p.HasIP6 {
				set(p, v)
			}
		}}
}

// guardedTun gates the tunnel fields on an outer header being present
// (and, for the GRE key, on GRE mode). Note for dependence analysis:
// every tun.* access implicitly reads the tunnel mode, because writing
// p.tun.mode changes whether a tun.src/dst/key access takes effect —
// deps.RWSets models that aliasing explicitly.
func guardedTun(bits int, get func(*Packet) uint64, set func(*Packet, uint64)) *Field {
	return &Field{bits,
		func(p *Packet) uint64 {
			if !p.HasOuter {
				return 0
			}
			return get(p)
		},
		func(p *Packet, v uint64) {
			if p.HasOuter {
				set(p, v)
			}
		}}
}

var headerFields = map[string]*Field{
	"ip.saddr":   guardedIP(32, func(p *Packet) uint64 { return uint64(p.IP.SrcIP) }, func(p *Packet, v uint64) { p.IP.SrcIP = IPv4Addr(v) }),
	"ip.daddr":   guardedIP(32, func(p *Packet) uint64 { return uint64(p.IP.DstIP) }, func(p *Packet, v uint64) { p.IP.DstIP = IPv4Addr(v) }),
	"ip.proto":   guardedIP(8, func(p *Packet) uint64 { return uint64(p.IP.Protocol) }, func(p *Packet, v uint64) { p.IP.Protocol = IPProtocol(v) }),
	"ip.ttl":     guardedIP(8, func(p *Packet) uint64 { return uint64(p.IP.TTL) }, func(p *Packet, v uint64) { p.IP.TTL = uint8(v) }),
	"ip.tos":     guardedIP(8, func(p *Packet) uint64 { return uint64(p.IP.TOS) }, func(p *Packet, v uint64) { p.IP.TOS = uint8(v) }),
	"ip.len":     guardedIP(16, func(p *Packet) uint64 { return uint64(p.IP.Length) }, func(p *Packet, v uint64) { p.IP.Length = uint16(v) }),
	"ip.id":      guardedIP(16, func(p *Packet) uint64 { return uint64(p.IP.ID) }, func(p *Packet, v uint64) { p.IP.ID = uint16(v) }),
	"ip.present": {1, func(p *Packet) uint64 { return boolBit(p.HasIP) }, func(p *Packet, v uint64) {}},

	// IPv6 fixed header. IR values are 64-bit, so the two 128-bit
	// addresses are exposed as hi/lo 64-bit halves.
	"ip6.saddr_hi": guardedIP6(64, func(p *Packet) uint64 { return p.IP6.SrcIP.Hi() },
		func(p *Packet, v uint64) { p.IP6.SrcIP = MakeIPv6Addr(v, p.IP6.SrcIP.Lo()) }),
	"ip6.saddr_lo": guardedIP6(64, func(p *Packet) uint64 { return p.IP6.SrcIP.Lo() },
		func(p *Packet, v uint64) { p.IP6.SrcIP = MakeIPv6Addr(p.IP6.SrcIP.Hi(), v) }),
	"ip6.daddr_hi": guardedIP6(64, func(p *Packet) uint64 { return p.IP6.DstIP.Hi() },
		func(p *Packet, v uint64) { p.IP6.DstIP = MakeIPv6Addr(v, p.IP6.DstIP.Lo()) }),
	"ip6.daddr_lo": guardedIP6(64, func(p *Packet) uint64 { return p.IP6.DstIP.Lo() },
		func(p *Packet, v uint64) { p.IP6.DstIP = MakeIPv6Addr(p.IP6.DstIP.Hi(), v) }),
	"ip6.tclass":   guardedIP6(8, func(p *Packet) uint64 { return uint64(p.IP6.TrafficClass) }, func(p *Packet, v uint64) { p.IP6.TrafficClass = uint8(v) }),
	"ip6.flow":     guardedIP6(32, func(p *Packet) uint64 { return uint64(p.IP6.FlowLabel) }, func(p *Packet, v uint64) { p.IP6.FlowLabel = uint32(v) & 0xFFFFF }),
	"ip6.plen":     guardedIP6(16, func(p *Packet) uint64 { return uint64(p.IP6.PayloadLen) }, func(p *Packet, v uint64) { p.IP6.PayloadLen = uint16(v) }),
	"ip6.nexthdr":  guardedIP6(8, func(p *Packet) uint64 { return uint64(p.IP6.NextHeader) }, func(p *Packet, v uint64) { p.IP6.NextHeader = IPProtocol(v) }),
	"ip6.hoplimit": guardedIP6(8, func(p *Packet) uint64 { return uint64(p.IP6.HopLimit) }, func(p *Packet, v uint64) { p.IP6.HopLimit = uint8(v) }),
	"ip6.present":  {1, func(p *Packet) uint64 { return boolBit(p.HasIP6) }, func(p *Packet, v uint64) {}},

	// Tunnel encapsulation pseudo-fields. tun.mode attaches or strips the
	// outer headers (0 = none, 1 = GRE, 2 = IP-in-IP); tun.src/tun.dst
	// are the outer IPv4 endpoints and tun.key the GRE key, all inert
	// while no tunnel is attached.
	"tun.mode": {8,
		func(p *Packet) uint64 {
			switch {
			case p.HasOuter && p.HasGRE:
				return TunModeGRE
			case p.HasOuter:
				return TunModeIPIP
			}
			return TunModeNone
		},
		func(p *Packet, v uint64) {
			switch v {
			case TunModeGRE:
				if !p.HasOuter {
					p.Outer = IPv4{TTL: 64}
				}
				if !p.HasGRE {
					p.GRE = GRE{}
				}
				p.HasOuter, p.HasGRE = true, true
			case TunModeIPIP:
				if !p.HasOuter {
					p.Outer = IPv4{TTL: 64}
				}
				p.HasOuter, p.HasGRE = true, false
			default:
				p.HasOuter, p.HasGRE = false, false
			}
		}},
	"tun.src": guardedTun(32, func(p *Packet) uint64 { return uint64(p.Outer.SrcIP) }, func(p *Packet, v uint64) { p.Outer.SrcIP = IPv4Addr(v) }),
	"tun.dst": guardedTun(32, func(p *Packet) uint64 { return uint64(p.Outer.DstIP) }, func(p *Packet, v uint64) { p.Outer.DstIP = IPv4Addr(v) }),
	"tun.key": guardedTun(32,
		func(p *Packet) uint64 {
			if !p.HasGRE {
				return 0
			}
			return uint64(p.GRE.Key)
		},
		func(p *Packet, v uint64) {
			if p.HasGRE {
				p.GRE.Key = uint32(v)
				p.GRE.HasKey = v != 0
			}
		}),

	// eth.type is computed from the presence flags, mirroring what
	// Serialize will emit for the network stack; writes are dropped so
	// the field cannot drift from the real header chain.
	"eth.type": {16,
		func(p *Packet) uint64 {
			switch {
			case p.HasOuter || p.HasIP:
				return uint64(EtherTypeIPv4)
			case p.HasIP6:
				return uint64(EtherTypeIPv6)
			}
			return uint64(p.Eth.EtherType)
		},
		func(p *Packet, v uint64) {}},
	"tcp.sport":  guardedTCP(16, func(p *Packet) uint64 { return uint64(p.TCP.SrcPort) }, func(p *Packet, v uint64) { p.TCP.SrcPort = uint16(v) }),
	"tcp.dport":  guardedTCP(16, func(p *Packet) uint64 { return uint64(p.TCP.DstPort) }, func(p *Packet, v uint64) { p.TCP.DstPort = uint16(v) }),
	"tcp.seq":    guardedTCP(32, func(p *Packet) uint64 { return uint64(p.TCP.Seq) }, func(p *Packet, v uint64) { p.TCP.Seq = uint32(v) }),
	"tcp.ack":    guardedTCP(32, func(p *Packet) uint64 { return uint64(p.TCP.Ack) }, func(p *Packet, v uint64) { p.TCP.Ack = uint32(v) }),
	"tcp.flags":  guardedTCP(8, func(p *Packet) uint64 { return uint64(p.TCP.Flags) }, func(p *Packet, v uint64) { p.TCP.Flags = uint8(v) }),
	"tcp.window": guardedTCP(16, func(p *Packet) uint64 { return uint64(p.TCP.Window) }, func(p *Packet, v uint64) { p.TCP.Window = uint16(v) }),
	// tcp.mss is clamp-only: it reads 0 and drops writes unless the SYN
	// actually carries an MSS option, so a program can lower an
	// advertised MSS but never conjure the option onto a segment that
	// lacks it.
	"tcp.mss": guardedTCP(16,
		func(p *Packet) uint64 {
			if !p.TCP.HasMSS {
				return 0
			}
			return uint64(p.TCP.MSS)
		},
		func(p *Packet, v uint64) {
			if p.TCP.HasMSS {
				p.TCP.MSS = uint16(v)
			}
		}),
	"udp.sport": guardedUDP(16, func(p *Packet) uint64 { return uint64(p.UDP.SrcPort) }, func(p *Packet, v uint64) { p.UDP.SrcPort = uint16(v) }),
	"udp.dport": guardedUDP(16, func(p *Packet) uint64 { return uint64(p.UDP.DstPort) }, func(p *Packet, v uint64) { p.UDP.DstPort = uint16(v) }),
	"udp.len":   guardedUDP(16, func(p *Packet) uint64 { return uint64(p.UDP.Length) }, func(p *Packet, v uint64) { p.UDP.Length = uint16(v) }),

	// Unified transport ports: in P4 these are common metadata fields the
	// parser fills from whichever L4 header is present, letting middlebox
	// code treat TCP and UDP five-tuples uniformly.
	"l4.sport": {16,
		func(p *Packet) uint64 {
			switch {
			case p.HasUDP:
				return uint64(p.UDP.SrcPort)
			case p.HasTCP:
				return uint64(p.TCP.SrcPort)
			}
			return 0
		},
		func(p *Packet, v uint64) {
			switch {
			case p.HasUDP:
				p.UDP.SrcPort = uint16(v)
			case p.HasTCP:
				p.TCP.SrcPort = uint16(v)
			}
		}},
	"l4.dport": {16,
		func(p *Packet) uint64 {
			switch {
			case p.HasUDP:
				return uint64(p.UDP.DstPort)
			case p.HasTCP:
				return uint64(p.TCP.DstPort)
			}
			return 0
		},
		func(p *Packet, v uint64) {
			switch {
			case p.HasUDP:
				p.UDP.DstPort = uint16(v)
			case p.HasTCP:
				p.TCP.DstPort = uint16(v)
			}
		}},
}

// LookupField resolves a header field name to its handle.
func LookupField(name string) (*Field, bool) {
	f, ok := headerFields[name]
	return f, ok
}

// HeaderFieldBits reports the width in bits of a named header field, and
// whether the name is known.
func HeaderFieldBits(name string) (int, bool) {
	f, ok := LookupField(name)
	if !ok {
		return 0, false
	}
	return f.bits, true
}

// HeaderFieldNames returns all addressable header field names.
func HeaderFieldNames() []string {
	names := make([]string, 0, len(headerFields))
	for n := range headerFields {
		names = append(names, n)
	}
	return names
}

// GetField reads a named header field from the packet.
func (p *Packet) GetField(name string) (uint64, error) {
	f, ok := LookupField(name)
	if !ok {
		return 0, fmt.Errorf("packet: unknown header field %q", name)
	}
	return f.Get(p), nil
}

// SetField writes a named header field on the packet.
func (p *Packet) SetField(name string, v uint64) error {
	f, ok := LookupField(name)
	if !ok {
		return fmt.Errorf("packet: unknown header field %q", name)
	}
	f.Set(p, v)
	return nil
}
