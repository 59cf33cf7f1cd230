package packet

import (
	"encoding/binary"
	"fmt"
)

// EthernetHeaderLen is the length of an Ethernet II header.
const EthernetHeaderLen = 14

// EtherType identifies the protocol carried by an Ethernet frame.
type EtherType uint16

// EtherTypes used by the simulator.
const (
	EtherTypeIPv4 EtherType = 0x0800
	EtherTypeIPv6 EtherType = 0x86DD
	// EtherTypeGallium marks a frame that carries a synthesized Gallium
	// header between the Ethernet and IP headers. 0x88B5 is the IEEE
	// "local experimental" EtherType.
	EtherTypeGallium EtherType = 0x88B5
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String formats the address in the usual colon-separated form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Ethernet is an Ethernet II frame header.
type Ethernet struct {
	SrcMAC, DstMAC MAC
	EtherType      EtherType
}

// decode reads the header from data and returns the bytes after it.
func (e *Ethernet) decode(data []byte) ([]byte, error) {
	if len(data) < EthernetHeaderLen {
		return nil, errTooShort(LayerTypeEthernet, EthernetHeaderLen, len(data))
	}
	copy(e.DstMAC[:], data[0:6])
	copy(e.SrcMAC[:], data[6:12])
	e.EtherType = EtherType(binary.BigEndian.Uint16(data[12:14]))
	return data[EthernetHeaderLen:], nil
}

// serializeTo prepends the wire form of the header to b, whose current
// contents are this header's payload.
func (e *Ethernet) serializeTo(b *SerializeBuffer) {
	hdr := b.PrependBytes(EthernetHeaderLen)
	copy(hdr[0:6], e.DstMAC[:])
	copy(hdr[6:12], e.SrcMAC[:])
	binary.BigEndian.PutUint16(hdr[12:14], uint16(e.EtherType))
}
