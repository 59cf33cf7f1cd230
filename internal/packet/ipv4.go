package packet

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// IPv4HeaderLen is the length of an IPv4 header without options.
const IPv4HeaderLen = 20

// IPProtocol identifies the transport protocol in an IPv4 header.
type IPProtocol uint8

// IP protocol numbers used by the simulator. GRE, IPIP, and IPv6 appear as
// the outer protocol of encapsulated packets.
const (
	IPProtocolIPIP IPProtocol = 4 // IP-in-IP, inner IPv4
	IPProtocolTCP  IPProtocol = 6
	IPProtocolUDP  IPProtocol = 17
	IPProtocolIPv6 IPProtocol = 41 // IP-in-IP, inner IPv6
	IPProtocolGRE  IPProtocol = 47
)

// IPv4Addr is an IPv4 address in host-independent form; the numeric value
// uses network ordering semantics (a.b.c.d == a<<24|b<<16|c<<8|d).
type IPv4Addr uint32

// MakeIPv4Addr builds an address from its four dotted-quad octets.
func MakeIPv4Addr(a, b, c, d byte) IPv4Addr {
	return IPv4Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// String formats the address in dotted-quad form.
func (a IPv4Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// ParseIPv4Addr parses a dotted-quad address ("10.0.1.2").
func ParseIPv4Addr(s string) (IPv4Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("packet: %q is not a dotted-quad IPv4 address", s)
	}
	var octs [4]byte
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return 0, fmt.Errorf("packet: %q is not a dotted-quad IPv4 address", s)
		}
		octs[i] = byte(v)
	}
	return MakeIPv4Addr(octs[0], octs[1], octs[2], octs[3]), nil
}

// MarshalText renders the address in dotted-quad form, so JSON carries
// "10.0.1.2" rather than a number.
func (a IPv4Addr) MarshalText() ([]byte, error) { return []byte(a.String()), nil }

// UnmarshalText parses a dotted-quad address.
func (a *IPv4Addr) UnmarshalText(text []byte) (err error) {
	*a, err = ParseIPv4Addr(string(text))
	return err
}

// IPv4 is an IPv4 header (options unsupported; IHL is always 5).
type IPv4 struct {
	TOS      uint8
	Length   uint16 // total length including header
	ID       uint16
	Flags    uint8 // 3 bits
	FragOff  uint16
	TTL      uint8
	Protocol IPProtocol
	Checksum uint16
	SrcIP    IPv4Addr
	DstIP    IPv4Addr
}

// decode reads the header from data and returns the IP payload: the bytes
// after the header up to the total length, or to the end of data when the
// length field is out of range.
func (ip *IPv4) decode(data []byte) ([]byte, error) {
	if len(data) < IPv4HeaderLen {
		return nil, errTooShort(LayerTypeIPv4, IPv4HeaderLen, len(data))
	}
	if v := data[0] >> 4; v != 4 {
		return nil, &DecodeError{Layer: LayerTypeIPv4, Msg: fmt.Sprintf("bad version %d", v)}
	}
	ihl := int(data[0]&0x0F) * 4
	if ihl != IPv4HeaderLen {
		return nil, &DecodeError{Layer: LayerTypeIPv4, Msg: fmt.Sprintf("unsupported IHL %d", ihl)}
	}
	ip.TOS = data[1]
	ip.Length = binary.BigEndian.Uint16(data[2:4])
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	ff := binary.BigEndian.Uint16(data[6:8])
	ip.Flags = uint8(ff >> 13)
	ip.FragOff = ff & 0x1FFF
	ip.TTL = data[8]
	ip.Protocol = IPProtocol(data[9])
	ip.Checksum = binary.BigEndian.Uint16(data[10:12])
	ip.SrcIP = IPv4Addr(binary.BigEndian.Uint32(data[12:16]))
	ip.DstIP = IPv4Addr(binary.BigEndian.Uint32(data[16:20]))
	end := int(ip.Length)
	if end < IPv4HeaderLen || end > len(data) {
		end = len(data)
	}
	return data[IPv4HeaderLen:end], nil
}

// serializeTo prepends the wire form of the header to b. The total-length
// field is computed from the current payload size and the header checksum
// recomputed.
func (ip *IPv4) serializeTo(b *SerializeBuffer) {
	payloadLen := len(b.Bytes())
	hdr := b.PrependBytes(IPv4HeaderLen)
	ip.Length = uint16(IPv4HeaderLen + payloadLen)
	hdr[0] = 4<<4 | 5
	hdr[1] = ip.TOS
	binary.BigEndian.PutUint16(hdr[2:4], ip.Length)
	binary.BigEndian.PutUint16(hdr[4:6], ip.ID)
	binary.BigEndian.PutUint16(hdr[6:8], uint16(ip.Flags)<<13|ip.FragOff&0x1FFF)
	hdr[8] = ip.TTL
	hdr[9] = uint8(ip.Protocol)
	hdr[10], hdr[11] = 0, 0
	binary.BigEndian.PutUint32(hdr[12:16], uint32(ip.SrcIP))
	binary.BigEndian.PutUint32(hdr[16:20], uint32(ip.DstIP))
	ip.Checksum = ipChecksum(hdr)
	binary.BigEndian.PutUint16(hdr[10:12], ip.Checksum)
}

// ipChecksum computes the standard Internet checksum over data.
func ipChecksum(data []byte) uint16 { return foldChecksum(addChecksum(0, data)) }

// addChecksum adds data, which starts at an even offset of the checksummed
// bytes, to an RFC 1071 sum. It adds eight bytes a step, as two 32-bit
// words into the 64-bit sum, which no frame is long enough to overflow;
// the one's-complement sum of the 16-bit words is the same modulo 0xFFFF
// (RFC 1071 §2).
func addChecksum(sum uint64, data []byte) uint64 {
	for len(data) >= 8 {
		w := binary.BigEndian.Uint64(data)
		sum += w>>32 + w&0xFFFFFFFF
		data = data[8:]
	}
	if len(data) >= 4 {
		sum += uint64(binary.BigEndian.Uint32(data))
		data = data[4:]
	}
	if len(data) >= 2 {
		sum += uint64(binary.BigEndian.Uint16(data))
		data = data[2:]
	}
	if len(data) == 1 {
		sum += uint64(data[0]) << 8
	}
	return sum
}

// foldChecksum folds an RFC 1071 sum to 16 bits, end-around carries
// included, and complements it.
func foldChecksum(sum uint64) uint16 {
	for sum > 0xFFFF {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}
