package packet

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// refSetBits and refGetBits are the bit-at-a-time reference for the
// transfer header's layout: MSB-first, each field at its bit offset.
func refSetBits(data []byte, off, bits int, v uint64) {
	for i := 0; i < bits; i++ {
		bit := off + i
		mask := byte(1) << (7 - bit%8)
		if v>>(bits-1-i)&1 == 1 {
			data[bit/8] |= mask
		} else {
			data[bit/8] &^= mask
		}
	}
}

func refGetBits(data []byte, off, bits int) uint64 {
	var v uint64
	for i := 0; i < bits; i++ {
		bit := off + i
		v = v<<1 | uint64(data[bit/8]>>(7-bit%8))&1
	}
	return v
}

// setField and getField write and read one named field of f in data
// through a one-field Codec, failing the test on an error.
func setField(t testing.TB, f *HeaderFormat, data []byte, name string, v uint64) {
	t.Helper()
	c, err := NewCodec(f, []Bind{{Field: name}}, 1)
	if err == nil {
		err = c.Pack(data, []uint64{v})
	}
	if err != nil {
		t.Fatal(err)
	}
}

func getField(t testing.TB, f *HeaderFormat, data []byte, name string) uint64 {
	t.Helper()
	c, err := NewCodec(f, []Bind{{Field: name}}, 1)
	v := []uint64{0}
	if err == nil {
		err = c.Unpack(data, v)
	}
	if err != nil {
		t.Fatal(err)
	}
	return v[0]
}

// refChecksum is the RFC 1071 sum a 16-bit word at a time: the pseudo-
// header as it sits on the wire, then the segment.
func refChecksum(segment []byte, ph *pseudoHeader, proto IPProtocol) uint16 {
	var buf []byte
	if ph.V6 {
		var pseudo [40]byte
		copy(pseudo[0:16], ph.SrcIP6[:])
		copy(pseudo[16:32], ph.DstIP6[:])
		binary.BigEndian.PutUint32(pseudo[32:36], uint32(len(segment)))
		pseudo[39] = uint8(proto)
		buf = pseudo[:]
	} else {
		var pseudo [12]byte
		binary.BigEndian.PutUint32(pseudo[0:4], uint32(ph.SrcIP))
		binary.BigEndian.PutUint32(pseudo[4:8], uint32(ph.DstIP))
		pseudo[9] = uint8(proto)
		binary.BigEndian.PutUint16(pseudo[10:12], uint16(len(segment)))
		buf = pseudo[:]
	}
	buf = append(buf, segment...)
	var sum uint32
	for i := 0; i+1 < len(buf); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(buf[i:]))
	}
	if len(buf)%2 == 1 {
		sum += uint32(buf[len(buf)-1]) << 8
	}
	for sum > 0xFFFF {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// fuzzCodec reads a random header format, scratchpad and data area from
// in: field widths 1–64 while they fit 160 bits, then the slot values,
// then the data area's prior bytes.
func fuzzCodec(in []byte) (fields []HeaderField, vals []uint64, data []byte) {
	next := func() byte {
		if len(in) == 0 {
			return 0
		}
		b := in[0]
		in = in[1:]
		return b
	}
	total := 0
	for n := int(next() % 13); len(fields) < n; {
		w := 1 + int(next()%64)
		if total+w > 8*MaxTransferBytes {
			break
		}
		fields = append(fields, HeaderField{Name: string(rune('a' + len(fields))), Bits: w})
		total += w
	}
	for range fields {
		var v [8]byte
		for i := range v {
			v[i] = next()
		}
		vals = append(vals, binary.LittleEndian.Uint64(v[:]))
	}
	data = make([]byte, (total+7)/8)
	for i := range data {
		data[i] = next()
	}
	return fields, vals, data
}

// FuzzTransferCodec checks the word-wide primitives against their
// bit-at-a-time and 16-bit references: a compiled transfer codec packs
// exactly the bytes the reference writes and unpacks each value masked
// to its field's width, which the reference reads back; and both
// checksums equal the 16-bit sum on segments of any length under either
// pseudo-header.
func FuzzTransferCodec(f *testing.F) {
	f.Add([]byte{6, 0, 1, 31, 0, 15, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(bytes.Repeat([]byte{0xFF}, 96))
	f.Add([]byte{3, 63, 63, 31, 0xAA, 0x55})
	f.Add([]byte{12, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, in []byte) {
		fields, vals, prior := fuzzCodec(in)
		hf, err := NewHeaderFormat(fields)
		if err != nil {
			t.Fatal(err)
		}
		// Bind field i to slot n-1-i, so slot order differs from wire order.
		n := len(fields)
		binds := make([]Bind, n)
		scratch := make([]uint64, n)
		for i, fl := range fields {
			binds[i] = Bind{Field: fl.Name, Slot: n - 1 - i}
			scratch[n-1-i] = vals[i]
		}
		c, err := NewCodec(hf, binds, n)
		if err != nil {
			t.Fatal(err)
		}
		want := bytes.Clone(prior)
		off := 0
		for i, fl := range fields {
			refSetBits(want, off, fl.Bits, vals[i])
			off += fl.Bits
		}
		got := bytes.Clone(prior)
		if err := c.Pack(got, scratch); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("format %v: Pack wrote %x, reference %x", hf, got, want)
		}
		out := make([]uint64, n)
		if err := c.Unpack(got, out); err != nil {
			t.Fatal(err)
		}
		off = 0
		for i, fl := range fields {
			mask := ^uint64(0) >> (64 - fl.Bits)
			if out[n-1-i] != vals[i]&mask {
				t.Fatalf("format %v: field %s unpacked %#x, want %#x", hf, fl.Name, out[n-1-i], vals[i]&mask)
			}
			if v := refGetBits(got, off, fl.Bits); v != vals[i]&mask {
				t.Fatalf("format %v: reference reads %s as %#x, want %#x", hf, fl.Name, v, vals[i]&mask)
			}
			off += fl.Bits
		}

		// The checksums, over the input and the input less a byte, so both
		// parities, under addresses drawn from the input's first 40 bytes.
		var addrs [40]byte
		copy(addrs[:], in)
		ph4 := pseudoHeader{SrcIP: IPv4Addr(binary.BigEndian.Uint32(addrs[0:])), DstIP: IPv4Addr(binary.BigEndian.Uint32(addrs[4:]))}
		ph6 := pseudoHeader{V6: true}
		copy(ph6.SrcIP6[:], addrs[8:24])
		copy(ph6.DstIP6[:], addrs[24:40])
		for _, seg := range [][]byte{in, in[:max(0, len(in)-1)]} {
			for _, ph := range []*pseudoHeader{&ph4, &ph6} {
				for _, proto := range []IPProtocol{IPProtocolTCP, IPProtocolUDP} {
					if got, want := transportChecksum(seg, ph, proto), refChecksum(seg, ph, proto); got != want {
						t.Fatalf("v6=%v proto %d, %d bytes: checksum %#04x, reference %#04x", ph.V6, proto, len(seg), got, want)
					}
				}
			}
			var sum uint32
			for i := 0; i+1 < len(seg); i += 2 {
				sum += uint32(binary.BigEndian.Uint16(seg[i:]))
			}
			if len(seg)%2 == 1 {
				sum += uint32(seg[len(seg)-1]) << 8
			}
			for sum > 0xFFFF {
				sum = sum&0xFFFF + sum>>16
			}
			if got := ipChecksum(seg); got != ^uint16(sum) {
				t.Fatalf("%d bytes: ipChecksum %#04x, reference %#04x", len(seg), got, ^uint16(sum))
			}
		}
	})
}

// TestCodecRefusesUnboundLayout pins NewCodec's construction errors: the
// codec returned with one fails every call and touches nothing.
func TestCodecRefusesUnboundLayout(t *testing.T) {
	hf, err := NewHeaderFormat([]HeaderField{{Name: "x", Bits: 12}, {Name: "y", Bits: 4}})
	if err != nil {
		t.Fatal(err)
	}
	for _, binds := range [][]Bind{
		{{Field: "x", Slot: 0}, {Field: "ghost", Slot: 1}},
		{{Field: "x", Slot: -1}},
		{{Field: "y", Slot: 2}},
	} {
		c, err := NewCodec(hf, binds, 2)
		if err == nil {
			t.Fatalf("NewCodec(%v) accepted it", binds)
		}
		data, scratch := []byte{0xAB, 0xCD}, []uint64{1, 2}
		if c.Pack(data, scratch) == nil || c.Unpack(data, scratch) == nil {
			t.Fatalf("codec for %v packed or unpacked", binds)
		}
		var p Packet
		if c.Attach(&p, scratch) == nil || p.HasGallium {
			t.Fatalf("codec for %v attached a header", binds)
		}
		if !bytes.Equal(data, []byte{0xAB, 0xCD}) || scratch[0] != 1 || scratch[1] != 2 {
			t.Fatalf("codec for %v touched data %x or scratch %v", binds, data, scratch)
		}
	}
	c, err := NewCodec(hf, []Bind{{Field: "y", Slot: 0}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Unpack([]byte{0xAB}, []uint64{0}); err == nil {
		t.Fatal("Unpack read past a short data area")
	}
}
