package packet

import (
	"encoding/binary"
	"fmt"
)

// TCPHeaderLen is the length of a TCP header without options.
const TCPHeaderLen = 20

// TCP flag bits.
const (
	TCPFlagFIN uint8 = 1 << iota
	TCPFlagSYN
	TCPFlagRST
	TCPFlagPSH
	TCPFlagACK
	TCPFlagURG
)

// TCPOptionMSSLen is the wire size of the one TCP option the simulator
// models (kind 2, maximum segment size).
const TCPOptionMSSLen = 4

// TCP is a TCP header. Of the options space only the MSS option (kind 2)
// is modeled: decode scans the options area for it, and serialize emits a
// canonical 24-byte header (data offset 6) when HasMSS is set and the
// plain 20-byte header otherwise. Unrecognized options are accepted on
// decode but do not survive a serialize round trip.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	Checksum         uint16
	Urgent           uint16

	// HasMSS marks the MSS option as present; MSS is its value.
	HasMSS bool
	MSS    uint16
}

// SYN reports whether the SYN flag is set.
func (t *TCP) SYN() bool { return t.Flags&TCPFlagSYN != 0 }

// ACK reports whether the ACK flag is set.
func (t *TCP) ACK() bool { return t.Flags&TCPFlagACK != 0 }

// FIN reports whether the FIN flag is set.
func (t *TCP) FIN() bool { return t.Flags&TCPFlagFIN != 0 }

// RST reports whether the RST flag is set.
func (t *TCP) RST() bool { return t.Flags&TCPFlagRST != 0 }

// decode reads the header from data, options included, and returns the
// segment's payload.
func (t *TCP) decode(data []byte) ([]byte, error) {
	if len(data) < TCPHeaderLen {
		return nil, errTooShort(LayerTypeTCP, TCPHeaderLen, len(data))
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:2])
	t.DstPort = binary.BigEndian.Uint16(data[2:4])
	t.Seq = binary.BigEndian.Uint32(data[4:8])
	t.Ack = binary.BigEndian.Uint32(data[8:12])
	off := int(data[12]>>4) * 4
	if off < TCPHeaderLen || off > len(data) {
		return nil, &DecodeError{Layer: LayerTypeTCP, Msg: fmt.Sprintf("bad data offset %d", off)}
	}
	// All eight bits of the flags byte are kept (CWR/ECE included), so
	// decode followed by serialize reproduces the wire bytes exactly.
	t.Flags = data[13]
	t.Window = binary.BigEndian.Uint16(data[14:16])
	t.Checksum = binary.BigEndian.Uint16(data[16:18])
	t.Urgent = binary.BigEndian.Uint16(data[18:20])
	t.HasMSS, t.MSS = false, 0
	opts := data[TCPHeaderLen:off]
	for i := 0; i < len(opts); {
		switch kind := opts[i]; kind {
		case 0: // end of options
			i = len(opts)
		case 1: // NOP
			i++
		default:
			if i+1 >= len(opts) {
				return nil, &DecodeError{Layer: LayerTypeTCP, Msg: "truncated option"}
			}
			olen := int(opts[i+1])
			if olen < 2 || i+olen > len(opts) {
				return nil, &DecodeError{Layer: LayerTypeTCP, Msg: fmt.Sprintf("bad option length %d", olen)}
			}
			if kind == 2 {
				if olen != TCPOptionMSSLen {
					return nil, &DecodeError{Layer: LayerTypeTCP, Msg: fmt.Sprintf("bad MSS option length %d", olen)}
				}
				t.HasMSS = true
				t.MSS = binary.BigEndian.Uint16(opts[i+2 : i+4])
			}
			i += olen
		}
	}
	return data[off:], nil
}

// HeaderLen returns the wire size of the header as SerializeTo emits it.
func (t *TCP) HeaderLen() int {
	if t.HasMSS {
		return TCPHeaderLen + TCPOptionMSSLen
	}
	return TCPHeaderLen
}

// serializeTo prepends the wire form of the header to b; the checksum is
// computed when ph is not nil.
func (t *TCP) serializeTo(b *SerializeBuffer, ph *pseudoHeader) {
	hlen := t.HeaderLen()
	segLen := hlen + len(b.Bytes())
	hdr := b.PrependBytes(hlen)
	binary.BigEndian.PutUint16(hdr[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(hdr[2:4], t.DstPort)
	binary.BigEndian.PutUint32(hdr[4:8], t.Seq)
	binary.BigEndian.PutUint32(hdr[8:12], t.Ack)
	hdr[12] = uint8(hlen/4) << 4
	hdr[13] = t.Flags
	binary.BigEndian.PutUint16(hdr[14:16], t.Window)
	hdr[16], hdr[17] = 0, 0
	binary.BigEndian.PutUint16(hdr[18:20], t.Urgent)
	if t.HasMSS {
		hdr[20], hdr[21] = 2, TCPOptionMSSLen
		binary.BigEndian.PutUint16(hdr[22:24], t.MSS)
	}
	if ph != nil {
		t.Checksum = transportChecksum(b.Bytes()[:segLen], ph, IPProtocolTCP)
		binary.BigEndian.PutUint16(hdr[16:18], t.Checksum)
	}
}

// pseudoHeader carries the network-layer fields that participate in
// transport-layer checksums. V6 selects the IPv6 pseudo-header form with
// the SrcIP6/DstIP6 addresses; otherwise the IPv4 form is used.
type pseudoHeader struct {
	SrcIP, DstIP IPv4Addr

	V6             bool
	SrcIP6, DstIP6 IPv6Addr
}

// transportChecksum computes the TCP/UDP checksum of segment with the given
// pseudo-header, whose fields are added as the words they occupy.
func transportChecksum(segment []byte, ph *pseudoHeader, proto IPProtocol) uint16 {
	sum := uint64(proto)
	if ph.V6 {
		sum = addChecksum(sum, ph.SrcIP6[:])
		sum = addChecksum(sum, ph.DstIP6[:])
		sum += uint64(uint32(len(segment)))
	} else {
		sum += uint64(ph.SrcIP) + uint64(ph.DstIP) + uint64(uint16(len(segment)))
	}
	return foldChecksum(addChecksum(sum, segment))
}
