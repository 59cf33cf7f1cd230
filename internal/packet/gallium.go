package packet

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// The Gallium compiler synthesizes a packet format to move temporary
// per-packet state between the pre-processing partition on the switch, the
// non-offloaded partition on the server, and the post-processing partition
// back on the switch (§4.3.2, Figure 5). The extra header sits between the
// Ethernet and IP headers: the Ethernet header still routes the frame over
// the direct switch-server link, and the link uses a slightly larger MTU to
// absorb the growth.
//
// Wire layout:
//
//	bytes 0-1  original EtherType (restored when the header is stripped)
//	bytes 2+   fields, bit-packed MSB-first per the compiled HeaderFormat

// GalliumHeaderBaseLen is the fixed prefix of a Gallium header.
const GalliumHeaderBaseLen = 2

// MaxTransferBytes is resource Constraint 5 from §4.2.2: the additional
// per-packet state transferred between switch and server is capped at 20
// bytes so most of the frame still carries real packet content.
const MaxTransferBytes = 20

// HeaderField is one synthesized field of a Gallium header.
type HeaderField struct {
	Name string
	Bits int
}

// HeaderFormat is a compiled Gallium header layout: an ordered list of
// bit-packed fields. Field values are at most 64 bits wide.
type HeaderFormat struct {
	Fields []HeaderField
	index  map[string]int
}

// NewHeaderFormat builds a format from the given fields.
func NewHeaderFormat(fields []HeaderField) (*HeaderFormat, error) {
	f := &HeaderFormat{Fields: fields, index: make(map[string]int, len(fields))}
	for i, fl := range fields {
		if fl.Bits <= 0 || fl.Bits > 64 {
			return nil, fmt.Errorf("packet: field %q has unsupported width %d", fl.Name, fl.Bits)
		}
		if _, dup := f.index[fl.Name]; dup {
			return nil, fmt.Errorf("packet: duplicate header field %q", fl.Name)
		}
		f.index[fl.Name] = i
	}
	if f.DataLen() > MaxTransferBytes {
		return nil, fmt.Errorf("packet: header format needs %d bytes, limit is %d", f.DataLen(), MaxTransferBytes)
	}
	return f, nil
}

// DataLen returns the number of data bytes (excluding the 2-byte prefix)
// the format occupies on the wire.
func (f *HeaderFormat) DataLen() int {
	bits := 0
	for _, fl := range f.Fields {
		bits += fl.Bits
	}
	return (bits + 7) / 8
}

// WireLen returns the full on-wire length of a header in this format.
func (f *HeaderFormat) WireLen() int { return GalliumHeaderBaseLen + f.DataLen() }

// FieldOffset returns the bit offset of the named field within the data
// area, and its width.
func (f *HeaderFormat) FieldOffset(name string) (offset, bits int, ok bool) {
	i, ok := f.index[name]
	if !ok {
		return 0, 0, false
	}
	for _, fl := range f.Fields[:i] {
		offset += fl.Bits
	}
	return offset, f.Fields[i].Bits, true
}

// Get extracts the named field from data (the header's data area).
func (f *HeaderFormat) Get(data []byte, name string) (uint64, error) {
	off, bits, ok := f.FieldOffset(name)
	if !ok {
		return 0, fmt.Errorf("packet: no header field %q", name)
	}
	return getBits(data, off, bits)
}

// Set stores the named field into data (the header's data area). Values
// wider than the field are truncated to the low-order bits.
func (f *HeaderFormat) Set(data []byte, name string, v uint64) error {
	off, bits, ok := f.FieldOffset(name)
	if !ok {
		return fmt.Errorf("packet: no header field %q", name)
	}
	return setBits(data, off, bits, v)
}

// FieldSpec is a precomputed field location inside a header's data area.
// Hot paths resolve fields to specs once (at load time) and then read and
// write through GetAt/SetAt without per-packet name lookups.
type FieldSpec struct {
	Off, Bits int
}

// Spec resolves the named field to its precomputed location.
func (f *HeaderFormat) Spec(name string) (FieldSpec, bool) {
	off, bits, ok := f.FieldOffset(name)
	return FieldSpec{Off: off, Bits: bits}, ok
}

// GetAt extracts the field at a precomputed location from data.
func (f *HeaderFormat) GetAt(data []byte, s FieldSpec) (uint64, error) {
	return getBits(data, s.Off, s.Bits)
}

// SetAt stores the field at a precomputed location into data.
func (f *HeaderFormat) SetAt(data []byte, s FieldSpec, v uint64) error {
	return setBits(data, s.Off, s.Bits, v)
}

// String renders the format compactly, e.g. "{cond:1, hash32:32}".
func (f *HeaderFormat) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, fl := range f.Fields {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%d", fl.Name, fl.Bits)
	}
	b.WriteByte('}')
	return b.String()
}

func getBits(data []byte, off, bits int) (uint64, error) {
	if (off+bits+7)/8 > len(data) {
		return 0, fmt.Errorf("packet: field out of range (off %d, %d bits, %d bytes)", off, bits, len(data))
	}
	var v uint64
	for i := 0; i < bits; i++ {
		bit := off + i
		v <<= 1
		v |= uint64(data[bit/8]>>(7-bit%8)) & 1
	}
	return v, nil
}

func setBits(data []byte, off, bits int, v uint64) error {
	if (off+bits+7)/8 > len(data) {
		return fmt.Errorf("packet: field out of range (off %d, %d bits, %d bytes)", off, bits, len(data))
	}
	for i := 0; i < bits; i++ {
		bit := off + i
		mask := byte(1) << (7 - bit%8)
		if v>>(bits-1-i)&1 == 1 {
			data[bit/8] |= mask
		} else {
			data[bit/8] &^= mask
		}
	}
	return nil
}

// Gallium is the synthesized header carrying temporary state between the
// switch partitions and the server.
type Gallium struct {
	// NextEtherType is the EtherType of the encapsulated frame (what the
	// Ethernet header's EtherType becomes when this header is stripped).
	NextEtherType EtherType
	// Data is the bit-packed field area; interpret with a HeaderFormat.
	Data []byte
}

// decode reads a header with dataLen data bytes from data, appending them
// to g.Data, and returns the bytes after the header.
func (g *Gallium) decode(data []byte, dataLen int) ([]byte, error) {
	need := GalliumHeaderBaseLen + dataLen
	if len(data) < need {
		return nil, errTooShort(LayerTypeGallium, need, len(data))
	}
	g.NextEtherType = EtherType(binary.BigEndian.Uint16(data[0:2]))
	g.Data = append(g.Data, data[GalliumHeaderBaseLen:need]...)
	return data[need:], nil
}

// serializeTo prepends the wire form of the header to b.
func (g *Gallium) serializeTo(b *SerializeBuffer) {
	hdr := b.PrependBytes(GalliumHeaderBaseLen + len(g.Data))
	binary.BigEndian.PutUint16(hdr[0:2], uint16(g.NextEtherType))
	copy(hdr[GalliumHeaderBaseLen:], g.Data)
}
