package packet

import (
	"encoding/binary"
)

// UDPHeaderLen is the length of a UDP header.
const UDPHeaderLen = 8

// UDP is a UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16
}

// decode reads the header from data and returns the datagram's payload: the
// bytes after the header up to the length field, or to the end of data when
// the length is out of range.
func (u *UDP) decode(data []byte) ([]byte, error) {
	if len(data) < UDPHeaderLen {
		return nil, errTooShort(LayerTypeUDP, UDPHeaderLen, len(data))
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	u.Length = binary.BigEndian.Uint16(data[4:6])
	u.Checksum = binary.BigEndian.Uint16(data[6:8])
	end := int(u.Length)
	if end < UDPHeaderLen || end > len(data) {
		end = len(data)
	}
	return data[UDPHeaderLen:end], nil
}

// serializeTo prepends the wire form of the header to b. The length field
// is always recomputed; the checksum is computed when ph is not nil.
func (u *UDP) serializeTo(b *SerializeBuffer, ph *pseudoHeader) {
	segLen := UDPHeaderLen + len(b.Bytes())
	hdr := b.PrependBytes(UDPHeaderLen)
	u.Length = uint16(segLen)
	binary.BigEndian.PutUint16(hdr[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(hdr[2:4], u.DstPort)
	binary.BigEndian.PutUint16(hdr[4:6], u.Length)
	hdr[6], hdr[7] = 0, 0
	if ph != nil {
		u.Checksum = transportChecksum(b.Bytes()[:segLen], ph, IPProtocolUDP)
		binary.BigEndian.PutUint16(hdr[6:8], u.Checksum)
	}
}
