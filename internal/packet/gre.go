package packet

import "fmt"

// GRE header sizes: the 4-byte base header and the optional 4-byte key.
const (
	GREHeaderBaseLen = 4
	GREKeyLen        = 4
)

// GRE flag bits in the first header byte.
const (
	greFlagChecksum = 0x80
	greFlagRouting  = 0x40
	greFlagKey      = 0x20
	greFlagSeq      = 0x10
)

// GRE is an RFC 2784/2890 GRE encapsulation header. Only version 0 with an
// optional key is modeled — checksum, routing, and sequence-number
// extensions are rejected at decode, the same way IPv4 rejects options
// (IHL != 5): the switch parser the simulator mirrors supports exactly
// this shape.
type GRE struct {
	// HasKey marks the optional RFC 2890 key field as present.
	HasKey bool
	Key    uint32
	// Protocol is the EtherType of the encapsulated payload.
	Protocol EtherType
}

// HeaderLen returns the wire size of the header.
func (g *GRE) HeaderLen() int {
	if g.HasKey {
		return GREHeaderBaseLen + GREKeyLen
	}
	return GREHeaderBaseLen
}

// decode reads the header from data and returns the encapsulated bytes.
func (g *GRE) decode(data []byte) ([]byte, error) {
	if len(data) < GREHeaderBaseLen {
		return nil, errTooShort(LayerTypeGRE, GREHeaderBaseLen, len(data))
	}
	flags := data[0]
	if ver := data[1] & 0x07; ver != 0 {
		return nil, &DecodeError{Layer: LayerTypeGRE, Msg: fmt.Sprintf("unsupported version %d", ver)}
	}
	if flags&(greFlagChecksum|greFlagRouting|greFlagSeq) != 0 {
		return nil, &DecodeError{Layer: LayerTypeGRE, Msg: fmt.Sprintf("unsupported flags %#02x", flags)}
	}
	g.HasKey = flags&greFlagKey != 0
	g.Protocol = EtherType(uint16(data[2])<<8 | uint16(data[3]))
	g.Key = 0
	if g.HasKey {
		if len(data) < GREHeaderBaseLen+GREKeyLen {
			return nil, errTooShort(LayerTypeGRE, GREHeaderBaseLen+GREKeyLen, len(data))
		}
		g.Key = uint32(data[4])<<24 | uint32(data[5])<<16 | uint32(data[6])<<8 | uint32(data[7])
	}
	return data[g.HeaderLen():], nil
}

// serializeTo prepends the wire form of the header to b.
func (g *GRE) serializeTo(b *SerializeBuffer) {
	hdr := b.PrependBytes(g.HeaderLen())
	hdr[0] = 0
	if g.HasKey {
		hdr[0] = greFlagKey
	}
	hdr[1] = 0
	hdr[2] = byte(g.Protocol >> 8)
	hdr[3] = byte(g.Protocol)
	if g.HasKey {
		hdr[4] = byte(g.Key >> 24)
		hdr[5] = byte(g.Key >> 16)
		hdr[6] = byte(g.Key >> 8)
		hdr[7] = byte(g.Key)
	}
}
