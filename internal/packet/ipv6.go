package packet

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// IPv6HeaderLen is the length of the fixed IPv6 header. Extension headers
// are not modeled: a next-header value the simulator does not know is
// treated as opaque payload, mirroring how the P4 parser would fall
// through to accept.
const IPv6HeaderLen = 40

// IPv6Addr is a 128-bit IPv6 address in network byte order, comparable and
// usable as a map key.
type IPv6Addr [16]byte

// MakeIPv6Addr builds an address from its high and low 64-bit halves
// (network order: hi holds bytes 0-7). This matches the hi/lo field pair
// the IR exposes, since IR values are 64-bit.
func MakeIPv6Addr(hi, lo uint64) IPv6Addr {
	var a IPv6Addr
	binary.BigEndian.PutUint64(a[:8], hi)
	binary.BigEndian.PutUint64(a[8:], lo)
	return a
}

// Hi returns the high 64 bits of the address.
func (a IPv6Addr) Hi() uint64 { return binary.BigEndian.Uint64(a[:8]) }

// Lo returns the low 64 bits of the address.
func (a IPv6Addr) Lo() uint64 { return binary.BigEndian.Uint64(a[8:]) }

// IsZero reports whether the address is all zeros.
func (a IPv6Addr) IsZero() bool { return a == IPv6Addr{} }

// String formats the address in RFC 5952 form (lower-case hex groups, the
// longest run of two or more zero groups compressed to "::").
func (a IPv6Addr) String() string {
	var groups [8]uint16
	for i := range groups {
		groups[i] = binary.BigEndian.Uint16(a[2*i : 2*i+2])
	}
	// Find the longest run of zero groups (length >= 2) to compress.
	best, bestLen := -1, 1
	for i := 0; i < 8; {
		if groups[i] != 0 {
			i++
			continue
		}
		j := i
		for j < 8 && groups[j] == 0 {
			j++
		}
		if j-i > bestLen {
			best, bestLen = i, j-i
		}
		i = j
	}
	var sb strings.Builder
	for i := 0; i < 8; i++ {
		if i == best {
			sb.WriteString("::")
			i += bestLen - 1
			continue
		}
		if i > 0 && !(best >= 0 && i == best+bestLen) {
			sb.WriteByte(':')
		}
		sb.WriteString(strconv.FormatUint(uint64(groups[i]), 16))
	}
	return sb.String()
}

// ParseIPv6Addr parses a colon-separated IPv6 address, accepting one "::"
// zero-run compression. Mixed v4-suffix notation is not supported.
func ParseIPv6Addr(s string) (IPv6Addr, error) {
	bad := func() (IPv6Addr, error) {
		return IPv6Addr{}, fmt.Errorf("packet: %q is not an IPv6 address", s)
	}
	var head, tail []uint16
	parts := strings.SplitN(s, "::", 3)
	if len(parts) > 2 {
		return bad()
	}
	parseGroups := func(seg string) ([]uint16, bool) {
		if seg == "" {
			return nil, true
		}
		var out []uint16
		for _, g := range strings.Split(seg, ":") {
			if g == "" || len(g) > 4 {
				return nil, false
			}
			v, err := strconv.ParseUint(g, 16, 16)
			if err != nil {
				return nil, false
			}
			out = append(out, uint16(v))
		}
		return out, true
	}
	var ok bool
	if head, ok = parseGroups(parts[0]); !ok {
		return bad()
	}
	if len(parts) == 2 {
		if tail, ok = parseGroups(parts[1]); !ok {
			return bad()
		}
		if len(head)+len(tail) > 7 {
			return bad()
		}
	} else if len(head) != 8 {
		return bad()
	}
	var a IPv6Addr
	for i, g := range head {
		binary.BigEndian.PutUint16(a[2*i:2*i+2], g)
	}
	for i, g := range tail {
		off := 16 - 2*(len(tail)-i)
		binary.BigEndian.PutUint16(a[off:off+2], g)
	}
	return a, nil
}

// IPv6 is the fixed 40-byte IPv6 header.
type IPv6 struct {
	TrafficClass uint8
	FlowLabel    uint32 // 20 bits
	PayloadLen   uint16 // payload length, excluding the fixed header
	NextHeader   IPProtocol
	HopLimit     uint8
	SrcIP, DstIP IPv6Addr
}

// decode reads the fixed header from data and returns the IP payload: the
// bytes after the header up to the payload length, or to the end of data
// when the length field runs past it.
func (ip *IPv6) decode(data []byte) ([]byte, error) {
	if len(data) < IPv6HeaderLen {
		return nil, errTooShort(LayerTypeIPv6, IPv6HeaderLen, len(data))
	}
	if v := data[0] >> 4; v != 6 {
		return nil, &DecodeError{Layer: LayerTypeIPv6, Msg: fmt.Sprintf("bad version %d", v)}
	}
	vtf := binary.BigEndian.Uint32(data[0:4])
	ip.TrafficClass = uint8(vtf >> 20)
	ip.FlowLabel = vtf & 0xFFFFF
	ip.PayloadLen = binary.BigEndian.Uint16(data[4:6])
	ip.NextHeader = IPProtocol(data[6])
	ip.HopLimit = data[7]
	copy(ip.SrcIP[:], data[8:24])
	copy(ip.DstIP[:], data[24:40])
	end := IPv6HeaderLen + int(ip.PayloadLen)
	if end > len(data) {
		end = len(data)
	}
	return data[IPv6HeaderLen:end], nil
}

// serializeTo prepends the wire form of the header to b, computing the
// payload-length field from the current buffer size.
func (ip *IPv6) serializeTo(b *SerializeBuffer) {
	payloadLen := len(b.Bytes())
	hdr := b.PrependBytes(IPv6HeaderLen)
	ip.PayloadLen = uint16(payloadLen)
	binary.BigEndian.PutUint32(hdr[0:4], 6<<28|uint32(ip.TrafficClass)<<20|ip.FlowLabel&0xFFFFF)
	binary.BigEndian.PutUint16(hdr[4:6], ip.PayloadLen)
	hdr[6] = uint8(ip.NextHeader)
	hdr[7] = ip.HopLimit
	copy(hdr[8:24], ip.SrcIP[:])
	copy(hdr[24:40], ip.DstIP[:])
}
