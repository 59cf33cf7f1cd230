package packet

import (
	"encoding/binary"
	"fmt"
)

// FiveTuple identifies a transport connection. It is comparable and is the
// canonical key used by the middlebox state tables. In JSON (a firewall
// rule on the control socket) it is {src,dst,sport,dport,proto}.
type FiveTuple struct {
	SrcIP   IPv4Addr   `json:"src"`
	DstIP   IPv4Addr   `json:"dst"`
	SrcPort uint16     `json:"sport"`
	DstPort uint16     `json:"dport"`
	Proto   IPProtocol `json:"proto"`
}

// Reverse returns the five-tuple of the opposite direction.
func (t FiveTuple) Reverse() FiveTuple {
	return FiveTuple{SrcIP: t.DstIP, DstIP: t.SrcIP, SrcPort: t.DstPort, DstPort: t.SrcPort, Proto: t.Proto}
}

// Hash returns a non-symmetric hash of the tuple.
func (t FiveTuple) Hash() uint64 {
	var buf [13]byte
	binary.BigEndian.PutUint32(buf[0:4], uint32(t.SrcIP))
	binary.BigEndian.PutUint32(buf[4:8], uint32(t.DstIP))
	binary.BigEndian.PutUint16(buf[8:10], t.SrcPort)
	binary.BigEndian.PutUint16(buf[10:12], t.DstPort)
	buf[12] = byte(t.Proto)
	return fnv1a(buf[:], 0)
}

// SymmetricHash returns a direction-independent hash of the tuple, suitable
// for RSS-style core steering that must keep both directions of a
// connection on one core.
func (t FiveTuple) SymmetricHash() uint64 {
	a, b := t.Hash(), t.Reverse().Hash()
	if a > b {
		a, b = b, a
	}
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], a)
	binary.BigEndian.PutUint64(buf[8:], b)
	return fnv1a(buf[:], 0)
}

// String formats the tuple.
func (t FiveTuple) String() string {
	proto := "tcp"
	if t.Proto == IPProtocolUDP {
		proto = "udp"
	}
	return fmt.Sprintf("%s %s:%d->%s:%d", proto, t.SrcIP, t.SrcPort, t.DstIP, t.DstPort)
}

// SixTuple identifies an IPv6 transport connection: the five-tuple plus
// the flow label. It is comparable and usable as a map key alongside
// FiveTuple wherever state tables are keyed per address family.
type SixTuple struct {
	SrcIP, DstIP     IPv6Addr
	SrcPort, DstPort uint16
	Proto            IPProtocol
	FlowLabel        uint32 // 20 bits; zero on flows that do not label
}

// Reverse returns the six-tuple of the opposite direction. The flow label
// is direction-local, so it is carried over unchanged.
func (t SixTuple) Reverse() SixTuple {
	return SixTuple{SrcIP: t.DstIP, DstIP: t.SrcIP, SrcPort: t.DstPort, DstPort: t.SrcPort,
		Proto: t.Proto, FlowLabel: t.FlowLabel}
}

// Hash returns a non-symmetric hash of the tuple, mixing in the flow
// label per RFC 6438-style ECMP hashing.
func (t SixTuple) Hash() uint64 {
	var buf [41]byte
	copy(buf[0:16], t.SrcIP[:])
	copy(buf[16:32], t.DstIP[:])
	binary.BigEndian.PutUint16(buf[32:34], t.SrcPort)
	binary.BigEndian.PutUint16(buf[34:36], t.DstPort)
	buf[36] = byte(t.Proto)
	binary.BigEndian.PutUint32(buf[37:41], t.FlowLabel)
	return fnv1a(buf[:], 0)
}

// SymmetricHash returns a direction-independent hash of the tuple. The
// flow label is excluded — the two directions of a connection carry
// independent labels, and RSS steering must still keep them together.
func (t SixTuple) SymmetricHash() uint64 {
	a, b := t.withoutLabel().Hash(), t.Reverse().withoutLabel().Hash()
	if a > b {
		a, b = b, a
	}
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], a)
	binary.BigEndian.PutUint64(buf[8:], b)
	return fnv1a(buf[:], 0)
}

func (t SixTuple) withoutLabel() SixTuple {
	t.FlowLabel = 0
	return t
}

// String formats the tuple.
func (t SixTuple) String() string {
	proto := "tcp"
	if t.Proto == IPProtocolUDP {
		proto = "udp"
	}
	return fmt.Sprintf("%s [%s]:%d->[%s]:%d", proto, t.SrcIP, t.SrcPort, t.DstIP, t.DstPort)
}

// fold32 compresses the 128-bit address into an IPv4Addr-shaped 32-bit
// value for code paths keyed on FiveTuple. Folding preserves equality
// (same address, same fold) but not injectivity.
func (a IPv6Addr) fold32() IPv4Addr {
	return IPv4Addr(fnv1a(a[:], 0x6F6C6436))
}

// fnv1a computes a 64-bit FNV-1a hash of data, seeded.
func fnv1a(data []byte, seed uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset) ^ seed
	for _, b := range data {
		h ^= uint64(b)
		h *= prime
	}
	return h
}
