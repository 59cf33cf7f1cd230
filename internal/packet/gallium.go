package packet

import (
	"encoding/binary"
	"fmt"
	"slices"
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

// words is a header data area as big-endian 64-bit words: room for
// MaxTransferBytes, and for the 9 bytes a field at an odd offset spans.
// Its length is a power of two so a masked index needs no bounds check.
type words [4]uint64

// piece is the part of one field that lies in one word of a data area:
// the m-masked bits s above the word's least significant bit, which are
// the field value's bits v above its own. A field crossing a word
// boundary is two pieces.
type piece struct {
	slot    int
	w, s, v uint8
	m       uint64
}

// place appends the pieces of the bits-wide field at bit off (MSB-first)
// of a data area, bound to slot. The caller has checked 0 < bits <= 64
// and that the field ends inside words.
func place(dst []piece, off, bits, slot int) []piece {
	for end := off + bits; off < end; {
		wordEnd := (off/64 + 1) * 64
		n := min(end, wordEnd) - off
		dst = append(dst, piece{slot: slot, w: uint8(off / 64), s: uint8(wordEnd - off - n),
			v: uint8(end - off - n), m: ^uint64(0) >> (64 - n)})
		off += n
	}
	return dst
}

// get returns the piece's bits of w, in place in its field's value.
func (p *piece) get(w *words) uint64 { return (w[p.w&3] >> (p.s & 63) & p.m) << (p.v & 63) }

// bits returns the piece's bits of the field value v, in place in its word.
func (p *piece) bits(v uint64) uint64 { return (v >> (p.v & 63) & p.m) << (p.s & 63) }

// load reads data (at most 32 bytes) into w, zero past its end, a word
// and then a 4-, 2- and 1-byte tail at a time.
func (w *words) load(data []byte) {
	*w = words{}
	i := 0
	for ; len(data) >= 8; i++ {
		w[i&3] = binary.BigEndian.Uint64(data)
		data = data[8:]
	}
	var t uint64
	sh := 64
	if len(data) >= 4 {
		sh -= 32
		t |= uint64(binary.BigEndian.Uint32(data)) << sh
		data = data[4:]
	}
	if len(data) >= 2 {
		sh -= 16
		t |= uint64(binary.BigEndian.Uint16(data)) << sh
		data = data[2:]
	}
	if len(data) == 1 {
		sh -= 8
		t |= uint64(data[0]) << sh
	}
	w[i&3] |= t
}

// store writes w back over data (at most 32 bytes), as load reads it.
func (w *words) store(data []byte) {
	i := 0
	for ; len(data) >= 8; i++ {
		binary.BigEndian.PutUint64(data, w[i&3])
		data = data[8:]
	}
	t := w[i&3]
	if len(data) >= 4 {
		binary.BigEndian.PutUint32(data, uint32(t>>32))
		t <<= 32
		data = data[4:]
	}
	if len(data) >= 2 {
		binary.BigEndian.PutUint16(data, uint16(t>>48))
		t <<= 16
		data = data[2:]
	}
	if len(data) == 1 {
		data[0] = byte(t >> 56)
	}
}

// Bind names the header field a scratchpad slot (0-based) travels in.
type Bind struct {
	Field string
	Slot  int
}

// Codec is a HeaderFormat compiled for one scratchpad layout: it packs
// scratchpad slots into the header's data area and unpacks them back,
// a word at a time, with the layout's names, offsets and slots resolved
// once, at construction. The wire layout is the format's, bit for bit.
type Codec struct {
	f *HeaderFormat
	// whole holds the bound fields that lie inside one word (v is zero),
	// in word order; split the fields crossing a word boundary, as their
	// two pieces.
	whole, split []piece
	// keep masks, per word, the bits no bound field covers.
	keep words
	// n is the number of data bytes the bound fields span.
	n   int
	err error
}

// NewCodec compiles f for binds over a scratchpad of slots words. A bind
// naming a field f lacks, or a slot outside the scratchpad, is an error;
// the codec returned with it fails every call with that error and
// touches nothing, so a caller that cannot fail at construction reports
// it on the first packet that carries the header.
func NewCodec(f *HeaderFormat, binds []Bind, slots int) (*Codec, error) {
	c := &Codec{f: f, keep: words{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}}
	for _, b := range binds {
		off, bits, ok := f.FieldOffset(b.Field)
		switch {
		case !ok:
			c.err = fmt.Errorf("packet: no header field %q", b.Field)
		case b.Slot < 0 || b.Slot >= slots:
			c.err = fmt.Errorf("packet: header field %q bound to slot %d of %d", b.Field, b.Slot, slots)
		case off+bits > 8*MaxTransferBytes:
			c.err = fmt.Errorf("packet: header field %q ends past byte %d", b.Field, MaxTransferBytes)
		}
		if c.err != nil {
			c.whole, c.split = nil, nil
			return c, c.err
		}
		if ps := place(nil, off, bits, b.Slot); len(ps) == 1 {
			c.whole = append(c.whole, ps[0])
		} else {
			c.split = append(c.split, ps...)
		}
		c.n = max(c.n, (off+bits+7)/8)
	}
	slices.SortStableFunc(c.whole, func(a, b piece) int { return int(a.w) - int(b.w) })
	for _, p := range slices.Concat(c.whole, c.split) {
		c.keep[p.w] &^= p.bits(^uint64(0))
	}
	return c, nil
}

// Pack writes each bound slot of scratch into its field of data (the
// header's data area), truncated to the field's width. Bits outside the
// bound fields keep their value.
func (c *Codec) Pack(data []byte, scratch []uint64) error {
	if err := c.check(data); err != nil {
		return err
	}
	var w words
	w.load(data[:c.n])
	for i := range w {
		w[i] &= c.keep[i]
	}
	// Each word's whole fields are merged in a register, and the word is
	// written once.
	var acc uint64
	var k uint8
	for i := range c.whole {
		p := &c.whole[i]
		if p.w != k {
			w[k&3] |= acc
			acc, k = 0, p.w
		}
		acc |= scratch[p.slot] & p.m << (p.s & 63)
	}
	w[k&3] |= acc
	for i := range c.split {
		p := &c.split[i]
		w[p.w&3] |= p.bits(scratch[p.slot])
	}
	w.store(data[:c.n])
	return nil
}

// Unpack reads each bound field of data into its scratchpad slot.
func (c *Codec) Unpack(data []byte, scratch []uint64) error {
	if err := c.check(data); err != nil {
		return err
	}
	var w words
	w.load(data[:c.n])
	for i := range c.whole {
		p := &c.whole[i]
		scratch[p.slot] = w[p.w&3] >> (p.s & 63) & p.m
	}
	for i := 0; i+1 < len(c.split); i += 2 {
		hi, lo := &c.split[i], &c.split[i+1]
		scratch[hi.slot] = hi.get(&w) | lo.get(&w)
	}
	return nil
}

// Attach adds a header in the codec's format to p, packed from scratch.
// On error p is left as it was.
func (c *Codec) Attach(p *Packet, scratch []uint64) error {
	if c.err != nil {
		return c.err
	}
	p.AttachGallium(c.f)
	return c.Pack(p.GalData, scratch)
}

func (c *Codec) check(data []byte) error {
	if c.err == nil && len(data) >= c.n {
		return nil
	}
	if c.err != nil {
		return c.err
	}
	return fmt.Errorf("packet: header data is %d bytes, its fields span %d", len(data), c.n)
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
