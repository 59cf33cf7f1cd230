package packet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
	"weak"
)

// decodeFails decodes data and returns the layer its DecodeError names,
// failing the test if data decodes or the error is of another type.
func decodeFails(t *testing.T, data []byte, f *HeaderFormat) LayerType {
	t.Helper()
	_, err := DecodePacket(data, f)
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("decoding % x: got error %v, want a *DecodeError", data, err)
	}
	return de.Layer
}

func TestEthernetRoundTrip(t *testing.T) {
	p := BuildUDP(MakeIPv4Addr(10, 0, 0, 1), MakeIPv4Addr(10, 0, 0, 2), 1, 2, []byte("hello"))
	p.Eth.SrcMAC = MAC{0x02, 0, 0, 0, 0, 1}
	p.Eth.DstMAC = MAC{0x02, 0, 0, 0, 0, 2}
	raw := p.Serialize()
	if want := []byte{2, 0, 0, 0, 0, 2, 2, 0, 0, 0, 0, 1, 0x08, 0x00}; !bytes.Equal(raw[:EthernetHeaderLen], want) {
		t.Errorf("Ethernet header = % x, want % x", raw[:EthernetHeaderLen], want)
	}
	d, err := DecodePacket(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Eth != p.Eth {
		t.Errorf("roundtrip mismatch: got %+v want %+v", d.Eth, p.Eth)
	}
	if string(d.Payload) != "hello" {
		t.Errorf("payload = %q", d.Payload)
	}
	// An EtherType the decoder does not know leaves the rest as payload.
	raw[12], raw[13] = 0x88, 0xCC
	d, err = DecodePacket(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.HasIP || d.HasUDP || !bytes.Equal(d.Payload, raw[EthernetHeaderLen:]) {
		t.Errorf("unknown EtherType: decoded %+v", d)
	}
}

func TestEthernetTooShort(t *testing.T) {
	if l := decodeFails(t, make([]byte, 10), nil); l != LayerTypeEthernet {
		t.Fatalf("short frame failed in %v, want Ethernet", l)
	}
}

func TestIPv4RoundTripAndChecksum(t *testing.T) {
	p := BuildTCP(MakeIPv4Addr(10, 0, 0, 1), MakeIPv4Addr(192, 168, 1, 9), 1, 2,
		TCPOptions{Payload: bytes.Repeat([]byte{0xAB}, 30)})
	p.IP.TOS, p.IP.ID, p.IP.TTL = 3, 42, 61
	raw := p.Serialize()
	d, err := DecodePacket(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.IP.SrcIP != p.IP.SrcIP || d.IP.DstIP != p.IP.DstIP || d.IP.TTL != 61 || d.IP.TOS != 3 ||
		d.IP.ID != 42 || d.IP.Protocol != IPProtocolTCP {
		t.Errorf("roundtrip mismatch: %+v", d.IP)
	}
	if want := uint16(IPv4HeaderLen + TCPHeaderLen + 30); d.IP.Length != want {
		t.Errorf("length = %d, want %d", d.IP.Length, want)
	}
	// The checksum Serialize wrote is the one recomputed over the header
	// with its checksum field zeroed, so the whole header sums to zero.
	hdr := raw[EthernetHeaderLen : EthernetHeaderLen+IPv4HeaderLen]
	if got := ipChecksum(zeroCheck(hdr, 10)); got != d.IP.Checksum {
		t.Errorf("checksum: recomputed %04x, header has %04x", got, d.IP.Checksum)
	}
	if ipChecksum(hdr) != 0 {
		t.Error("checksum did not verify")
	}
	// Corrupt a byte; checksum must fail.
	hdr[8] ^= 0xFF
	if ipChecksum(hdr) == 0 {
		t.Error("checksum verified after corruption")
	}
}

func TestIPv4BadVersion(t *testing.T) {
	raw := BuildUDP(1, 2, 3, 4, nil).Serialize()
	for name, mutate := range map[string]func(b []byte){
		"bad version":     func(b []byte) { b[EthernetHeaderLen] = 6<<4 | 5 },
		"options (IHL 6)": func(b []byte) { b[EthernetHeaderLen] = 4<<4 | 6 },
		"short header":    nil,
	} {
		b := append([]byte(nil), raw...)
		if mutate == nil {
			b = b[:EthernetHeaderLen+IPv4HeaderLen-1]
		} else {
			mutate(b)
		}
		if l := decodeFails(t, b, nil); l != LayerTypeIPv4 {
			t.Errorf("%s: failed in %v, want IPv4", name, l)
		}
	}
}

func TestTCPRoundTrip(t *testing.T) {
	src, dst := MakeIPv4Addr(1, 2, 3, 4), MakeIPv4Addr(5, 6, 7, 8)
	p := BuildTCP(src, dst, 1234, 80, TCPOptions{Flags: TCPFlagSYN | TCPFlagACK, Seq: 7, Ack: 9, Window: 512, MSS: 1460, Payload: []byte("GET /")})
	raw := p.Serialize()
	d, err := DecodePacket(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	tc := &d.TCP
	if tc.SrcPort != 1234 || tc.DstPort != 80 || tc.Seq != 7 || tc.Ack != 9 || tc.Window != 512 ||
		!tc.HasMSS || tc.MSS != 1460 || !tc.SYN() || !tc.ACK() || tc.FIN() || tc.RST() {
		t.Errorf("roundtrip mismatch: %+v", *tc)
	}
	if string(d.Payload) != "GET /" {
		t.Errorf("payload = %q", d.Payload)
	}
	// Checksum must validate: recompute over segment with same pseudo header.
	seg := raw[EthernetHeaderLen+IPv4HeaderLen:]
	ph := &pseudoHeader{SrcIP: src, DstIP: dst}
	if got := transportChecksum(zeroCheck(seg, 16), ph, IPProtocolTCP); got != tc.Checksum {
		t.Errorf("checksum mismatch: computed %04x, header has %04x", got, tc.Checksum)
	}
	// Malformed headers are rejected in TCP: a data offset below 20 or past
	// the segment, an option running off the options area, an MSS option
	// of the wrong length, and a segment shorter than the fixed header.
	const off = EthernetHeaderLen + IPv4HeaderLen
	for name, mutate := range map[string]func(b []byte) []byte{
		"data offset 16":   func(b []byte) []byte { b[off+12] = 4 << 4; return b },
		"data offset 60":   func(b []byte) []byte { b[off+12] = 15 << 4; return b },
		"option overruns":  func(b []byte) []byte { b[off+21] = 9; return b },
		"truncated option": func(b []byte) []byte { b[off+20], b[off+21], b[off+22] = 1, 1, 1; b[off+23] = 3; return b },
		"MSS length 3":     func(b []byte) []byte { b[off+21] = 3; return b },
		"short header":     func(b []byte) []byte { return b[:off+TCPHeaderLen-1] },
	} {
		if l := decodeFails(t, mutate(append([]byte(nil), raw...)), nil); l != LayerTypeTCP {
			t.Errorf("%s: failed in %v, want TCP", name, l)
		}
	}
}

// zeroCheck returns a copy of seg with the 16-bit checksum at off zeroed.
func zeroCheck(seg []byte, off int) []byte {
	c := append([]byte(nil), seg...)
	c[off], c[off+1] = 0, 0
	return c
}

func TestUDPRoundTrip(t *testing.T) {
	for _, p := range []*Packet{
		BuildUDP(MakeIPv4Addr(1, 2, 3, 4), MakeIPv4Addr(5, 6, 7, 8), 53, 5353, []byte{1, 2, 3}),
		BuildUDP6(MakeIPv6Addr(1, 2), MakeIPv6Addr(3, 4), 53, 5353, []byte{1, 2, 3}),
	} {
		raw := p.Serialize()
		d, err := DecodePacket(raw, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !d.HasUDP || d.UDP.SrcPort != 53 || d.UDP.DstPort != 5353 || d.UDP.Length != UDPHeaderLen+3 ||
			!bytes.Equal(d.Payload, []byte{1, 2, 3}) {
			t.Errorf("roundtrip mismatch: %+v payload % x", d.UDP, d.Payload)
		}
		seg := raw[len(raw)-UDPHeaderLen-3:]
		ph := &pseudoHeader{SrcIP: p.IP.SrcIP, DstIP: p.IP.DstIP}
		if p.HasIP6 {
			ph = &pseudoHeader{V6: true, SrcIP6: p.IP6.SrcIP, DstIP6: p.IP6.DstIP}
		}
		if got := transportChecksum(zeroCheck(seg, 6), ph, IPProtocolUDP); got != d.UDP.Checksum {
			t.Errorf("checksum mismatch: computed %04x, header has %04x", got, d.UDP.Checksum)
		}
		if l := decodeFails(t, raw[:len(raw)-3-1], nil); l != LayerTypeUDP {
			t.Errorf("short UDP header failed in %v, want UDP", l)
		}
	}
}

func TestHeaderFormatBitPacking(t *testing.T) {
	f, err := NewHeaderFormat([]HeaderField{{"cond", 1}, {"hash32", 32}, {"port", 16}})
	if err != nil {
		t.Fatal(err)
	}
	if f.DataLen() != 7 { // 49 bits -> 7 bytes
		t.Fatalf("DataLen = %d, want 7", f.DataLen())
	}
	data := make([]byte, f.DataLen())
	setField(t, f, data, "cond", 1)
	setField(t, f, data, "hash32", 0xDEADBEEF)
	setField(t, f, data, "port", 4242)
	for name, want := range map[string]uint64{"cond": 1, "hash32": 0xDEADBEEF, "port": 4242} {
		if got := getField(t, f, data, name); got != want {
			t.Errorf("%s = %#x, want %#x", name, got, want)
		}
	}
	// Overwriting one field must not clobber neighbors.
	setField(t, f, data, "hash32", 0)
	if got := getField(t, f, data, "cond"); got != 1 {
		t.Error("cond clobbered by hash32 write")
	}
	if got := getField(t, f, data, "port"); got != 4242 {
		t.Error("port clobbered by hash32 write")
	}
}

func TestHeaderFormatRejectsOversize(t *testing.T) {
	fields := make([]HeaderField, 6)
	for i := range fields {
		fields[i] = HeaderField{Name: string(rune('a' + i)), Bits: 32}
	}
	// 6*32 bits = 24 bytes > 20-byte Constraint 5 limit.
	if _, err := NewHeaderFormat(fields); err == nil {
		t.Fatal("want error for >20-byte format")
	}
}

func TestHeaderFormatRejectsDuplicates(t *testing.T) {
	if _, err := NewHeaderFormat([]HeaderField{{"x", 8}, {"x", 8}}); err == nil {
		t.Fatal("want error for duplicate field")
	}
}

func TestHeaderFormatPropertyRoundTrip(t *testing.T) {
	f, err := NewHeaderFormat([]HeaderField{{"a", 3}, {"b", 17}, {"c", 32}, {"d", 9}})
	if err != nil {
		t.Fatal(err)
	}
	// The fields travel in reverse slot order, so slots and wire order differ.
	c, err := NewCodec(f, []Bind{{"a", 3}, {"b", 2}, {"c", 1}, {"d", 0}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(a, b, cv, d uint64) bool {
		data := make([]byte, f.DataLen())
		vals := []uint64{d & 0x1FF, cv & 0xFFFFFFFF, b & 0x1FFFF, a & 0x7}
		got := make([]uint64, len(vals))
		if c.Pack(data, vals) != nil || c.Unpack(data, got) != nil {
			return false
		}
		return slices.Equal(got, vals)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestGalliumLayerRoundTrip(t *testing.T) {
	f, _ := NewHeaderFormat([]HeaderField{{"cond", 1}, {"hash32", 32}})
	p := BuildUDP(MakeIPv4Addr(10, 1, 0, 1), MakeIPv4Addr(10, 1, 0, 2), 1, 2, []byte("ippart"))
	p.AttachGallium(f)
	setField(t, f, p.GalData, "hash32", 99)
	raw := p.Serialize()
	// Ethernet says Gallium; the Gallium header's first two bytes carry the
	// EtherType of what follows it.
	if et := binary.BigEndian.Uint16(raw[12:14]); et != uint16(EtherTypeGallium) {
		t.Errorf("Ethernet EtherType = %#04x", et)
	}
	if et := binary.BigEndian.Uint16(raw[14:16]); et != uint16(EtherTypeIPv4) {
		t.Errorf("NextEtherType = %#04x", et)
	}
	d, err := DecodePacket(raw, f)
	if err != nil {
		t.Fatal(err)
	}
	if !d.HasGallium {
		t.Fatal("gallium header lost")
	}
	if got := getField(t, f, d.GalData, "hash32"); got != 99 {
		t.Errorf("hash32 = %d", got)
	}
	if !d.HasIP || !d.HasUDP || string(d.Payload) != "ippart" {
		t.Errorf("inner packet mismatch: %+v", d)
	}
	if l := decodeFails(t, raw[:EthernetHeaderLen+f.WireLen()-1], f); l != LayerTypeGallium {
		t.Errorf("short Gallium header failed in %v, want Gallium", l)
	}
}

func TestPacketRoundTripTCP(t *testing.T) {
	p := BuildTCP(MakeIPv4Addr(172, 16, 0, 5), MakeIPv4Addr(8, 8, 8, 8), 5555, 443,
		TCPOptions{Flags: TCPFlagACK, Seq: 100, Ack: 200, Payload: []byte("data!")})
	raw := p.Serialize()
	q, err := DecodePacket(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if q.IP.SrcIP != p.IP.SrcIP || q.TCP.SrcPort != 5555 || q.TCP.Seq != 100 || string(q.Payload) != "data!" {
		t.Errorf("roundtrip mismatch: %+v", q)
	}
	tup, ok := q.Tuple()
	if !ok || tup.Proto != IPProtocolTCP || tup.SrcPort != 5555 || tup.DstPort != 443 {
		t.Errorf("tuple = %+v ok=%v", tup, ok)
	}
}

func TestPacketRoundTripWithGallium(t *testing.T) {
	f, _ := NewHeaderFormat([]HeaderField{{"cond", 1}, {"v", 32}})
	p := BuildUDP(MakeIPv4Addr(10, 1, 0, 1), MakeIPv4Addr(10, 1, 0, 2), 9999, 53, []byte("q"))
	p.AttachGallium(f)
	setField(t, f, p.GalData, "v", 777)
	raw := p.Serialize()
	q, err := DecodePacket(raw, f)
	if err != nil {
		t.Fatal(err)
	}
	if !q.HasGallium {
		t.Fatal("gallium header lost")
	}
	if got := getField(t, f, q.GalData, "v"); got != 777 {
		t.Errorf("v = %d", got)
	}
	if !q.HasUDP || q.UDP.DstPort != 53 || string(q.Payload) != "q" {
		t.Errorf("inner packet mismatch: %+v", q)
	}
	// Decoding a gallium frame without a format must fail loudly.
	if _, err := DecodePacket(raw, nil); err == nil {
		t.Error("want error decoding gallium frame with nil format")
	}
	q.StripGallium()
	raw2 := q.Serialize()
	r, err := DecodePacket(raw2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.HasGallium {
		t.Error("gallium header still present after strip")
	}
}

func TestPacketCloneIsDeep(t *testing.T) {
	p := BuildTCP(1, 2, 3, 4, TCPOptions{Payload: []byte("abc")})
	q := p.Clone()
	q.Payload[0] = 'X'
	q.IP.SrcIP = 99
	if p.Payload[0] != 'a' || p.IP.SrcIP != 1 {
		t.Error("clone shares state with original")
	}
}

func TestWireLen(t *testing.T) {
	p := BuildTCP(1, 2, 3, 4, TCPOptions{Payload: make([]byte, 10)})
	want := EthernetHeaderLen + IPv4HeaderLen + TCPHeaderLen + 10
	if p.WireLen() != want {
		t.Errorf("WireLen = %d, want %d", p.WireLen(), want)
	}
	if got := len(p.Serialize()); got != want {
		t.Errorf("len(Serialize) = %d, want %d", got, want)
	}
	p.PadTo(200)
	if p.WireLen() != 200 {
		t.Errorf("after PadTo(200): WireLen = %d", p.WireLen())
	}
	if got := len(p.Serialize()); got != 200 {
		t.Errorf("after PadTo(200): len(Serialize) = %d", got)
	}
}

func TestFiveTupleSymmetricHash(t *testing.T) {
	a := FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 10, DstPort: 20, Proto: IPProtocolTCP}
	if a.SymmetricHash() != a.Reverse().SymmetricHash() {
		t.Error("SymmetricHash not symmetric")
	}
	if a.Hash() == a.Reverse().Hash() {
		t.Error("Hash unexpectedly symmetric (collision in test vector)")
	}
	if a.Reverse().Reverse() != a {
		t.Error("double reverse changed tuple")
	}
}

func TestPacketSerializePropertyRandomTCP(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		payload := make([]byte, rng.Intn(64))
		rng.Read(payload)
		p := BuildTCP(IPv4Addr(rng.Uint32()), IPv4Addr(rng.Uint32()),
			uint16(rng.Intn(65536)), uint16(rng.Intn(65536)),
			TCPOptions{Flags: uint8(rng.Intn(64)), Seq: rng.Uint32(), Ack: rng.Uint32(), Payload: payload})
		raw := p.Serialize()
		q, err := DecodePacket(raw, nil)
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if q.IP.SrcIP != p.IP.SrcIP || q.IP.DstIP != p.IP.DstIP ||
			q.TCP.SrcPort != p.TCP.SrcPort || q.TCP.DstPort != p.TCP.DstPort ||
			q.TCP.Seq != p.TCP.Seq || q.TCP.Flags != p.TCP.Flags ||
			!bytes.Equal(q.Payload, p.Payload) {
			t.Fatalf("iter %d: roundtrip mismatch", i)
		}
		if ipChecksum(raw[EthernetHeaderLen:EthernetHeaderLen+IPv4HeaderLen]) != 0 {
			t.Fatalf("iter %d: bad IP checksum", i)
		}
	}
}

func TestHeaderFieldAccessors(t *testing.T) {
	p := BuildTCP(MakeIPv4Addr(10, 0, 0, 1), MakeIPv4Addr(10, 0, 0, 2), 1000, 2000, TCPOptions{})
	for name, want := range map[string]uint64{
		"ip.saddr":  uint64(MakeIPv4Addr(10, 0, 0, 1)),
		"ip.daddr":  uint64(MakeIPv4Addr(10, 0, 0, 2)),
		"ip.proto":  uint64(IPProtocolTCP),
		"tcp.sport": 1000, "tcp.dport": 2000,
	} {
		got, err := p.GetField(name)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if err := p.SetField("ip.daddr", uint64(MakeIPv4Addr(1, 1, 1, 1))); err != nil {
		t.Fatal(err)
	}
	if p.IP.DstIP != MakeIPv4Addr(1, 1, 1, 1) {
		t.Error("SetField did not apply")
	}
	if _, err := p.GetField("nosuch.field"); err == nil {
		t.Error("want error for unknown field")
	}
	if _, ok := HeaderFieldBits("tcp.seq"); !ok {
		t.Error("tcp.seq missing from field table")
	}
	if bits, _ := HeaderFieldBits("ip.saddr"); bits != 32 {
		t.Errorf("ip.saddr bits = %d", bits)
	}
}

func TestSerializeBufferGrowth(t *testing.T) {
	b := NewSerializeBuffer()
	big := b.PrependBytes(1000)
	for i := range big {
		big[i] = byte(i)
	}
	if len(b.Bytes()) != 1000 {
		t.Fatalf("len = %d", len(b.Bytes()))
	}
	if b.Bytes()[999] != byte(999%256) {
		t.Error("data lost in growth")
	}
	b.Clear()
	if len(b.Bytes()) != 0 {
		t.Error("Clear did not empty buffer")
	}
}

func TestPcapRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewPcapWriter(&buf)
	p1 := BuildTCP(MakeIPv4Addr(10, 0, 0, 1), MakeIPv4Addr(10, 0, 0, 2), 1, 2, TCPOptions{Payload: []byte("abc")})
	p2 := BuildUDP(MakeIPv4Addr(10, 0, 0, 3), MakeIPv4Addr(10, 0, 0, 4), 3, 4, []byte("xy"))
	if err := w.WritePacket(1_500_000_000, p1.Serialize()); err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(2_000_123_000, p2.Serialize()); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[0].TNs != 1_500_000_000 || recs[1].TNs != 2_000_123_000 {
		t.Errorf("timestamps = %d, %d", recs[0].TNs, recs[1].TNs)
	}
	q, err := DecodePacket(recs[0].Data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if q.TCP.DstPort != 2 || string(q.Payload) != "abc" {
		t.Errorf("decoded first record wrong: %+v", q)
	}
	if _, err := DecodePacket(recs[1].Data, nil); err != nil {
		t.Fatal(err)
	}
	// Negative timestamps rejected.
	if err := w.WritePacket(-1, p1.Serialize()); err == nil {
		t.Error("want error for negative timestamp")
	}
}

func TestPcapReadErrors(t *testing.T) {
	if _, err := ReadPcap(bytes.NewReader([]byte("short"))); err == nil {
		t.Error("want error for truncated header")
	}
	bad := make([]byte, 24)
	if _, err := ReadPcap(bytes.NewReader(bad)); err == nil {
		t.Error("want error for bad magic")
	}
}

// TestSerializeBufferReuse pins Clear as the reset of a buffer that is used
// again and again: 10,000 cycles of a 1,400-byte packet through one buffer
// leave its capacity where the first cycle put it, and every cycle's bytes
// equal Serialize's. Clear used to keep the previous frame as headroom, so
// the buffer grew by one frame per cycle.
func TestSerializeBufferReuse(t *testing.T) {
	p := BuildTCP(MakeIPv4Addr(10, 0, 0, 1), MakeIPv4Addr(10, 0, 0, 2), 1234, 80, TCPOptions{Flags: TCPFlagACK, MSS: 1400})
	p.PadTo(1400)
	want := p.Serialize()
	var b SerializeBuffer // the zero buffer is usable
	if got := p.SerializeTo(&b); !bytes.Equal(got, want) {
		t.Fatal("first SerializeTo differs from Serialize")
	}
	after1 := cap(b.buf)
	for i := 0; i < 10000; i++ {
		if got := p.SerializeTo(&b); !bytes.Equal(got, want) {
			t.Fatalf("cycle %d differs from Serialize", i)
		}
	}
	if cap(b.buf) != after1 {
		t.Errorf("buffer capacity %d after the first frame, %d after 10,000 more", after1, cap(b.buf))
	}
	// A short frame after a long one must not carry its bytes along.
	q := BuildUDP(MakeIPv4Addr(10, 0, 0, 3), MakeIPv4Addr(10, 0, 0, 4), 5, 6, []byte("xy"))
	if got := q.SerializeTo(&b); !bytes.Equal(got, q.Serialize()) {
		t.Error("a short frame through a used buffer differs from Serialize")
	}
	if n := testing.AllocsPerRun(100, func() { p.SerializeTo(&b) }); n != 0 {
		t.Errorf("SerializeTo into a warm buffer allocates %.0f times, want 0", n)
	}
}

// TestDecodeReusesPacket: Decode into a used packet gives what DecodePacket
// gives for the same bytes — nothing of the previous frame survives, the
// ingress tag included — and does not allocate.
func TestDecodeReusesPacket(t *testing.T) {
	long := BuildTCP6(MakeIPv6Addr(1, 2), MakeIPv6Addr(3, 4), 1234, 80, TCPOptions{Flags: TCPFlagSYN, MSS: 9000, Payload: []byte("a long first frame")})
	long.EncapGRE(MakeIPv4Addr(10, 0, 0, 1), MakeIPv4Addr(10, 0, 1, 1), 7)
	short := BuildUDP(MakeIPv4Addr(10, 0, 0, 3), MakeIPv4Addr(10, 0, 0, 4), 5, 6, []byte("xy"))
	var p Packet
	for _, frame := range [][]byte{long.Serialize(), short.Serialize(), long.Serialize()} {
		p.Ingress = 42
		if err := p.Decode(frame, nil); err != nil {
			t.Fatal(err)
		}
		fresh, err := DecodePacket(frame, nil)
		if err != nil {
			t.Fatal(err)
		}
		if p.Ingress != 0 || !bytes.Equal(p.Serialize(), frame) || !bytes.Equal(p.Payload, fresh.Payload) {
			t.Fatalf("Decode into a used packet differs from DecodePacket for a %d-byte frame", len(frame))
		}
		p.Payload, fresh.Payload = nil, nil // capacity is the one difference allowed
		p.GalData, fresh.GalData = nil, nil
		if !reflect.DeepEqual(&p, fresh) {
			t.Fatalf("Decode into a used packet left state behind:\n got %+v\nwant %+v", p, *fresh)
		}
	}
	frame := short.Serialize()
	if n := testing.AllocsPerRun(100, func() { _ = p.Decode(frame, nil) }); n != 0 {
		t.Errorf("Decode into a warm packet allocates %.0f times, want 0", n)
	}
}

// TestPacketSize keeps Packet to its header fields: 216 bytes of headers,
// flags, tag and two owned buffers. Per-header slices into the decoded
// frame used to make it 560.
func TestPacketSize(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n > 224 {
		t.Errorf("Packet is %d bytes, want at most 224", n)
	}
}

// TestDecodeKeepsNoReferenceToInput: a decoded packet owns what it holds,
// so the frame it came from is garbage once the caller drops it — whether
// the packet was fresh, recycled, or copied out of another. A reference
// would pin a transport's receive slot or the walker's hop frame, or let
// their next use rewrite the packet.
func TestDecodeKeepsNoReferenceToInput(t *testing.T) {
	hf, err := NewHeaderFormat([]HeaderField{{Name: "a", Bits: 32}, {Name: "b", Bits: 16}})
	if err != nil {
		t.Fatal(err)
	}
	src := BuildTCP6(MakeIPv6Addr(1, 2), MakeIPv6Addr(3, 4), 1234, 80, TCPOptions{Flags: TCPFlagSYN, MSS: 1460, Payload: make([]byte, 64)})
	src.EncapGRE(MakeIPv4Addr(10, 0, 0, 1), MakeIPv4Addr(10, 0, 1, 1), 7)
	src.AttachGallium(hf)
	frame := src.Serialize()
	var used Packet
	for _, c := range []struct {
		name   string
		decode func(data []byte) (*Packet, error)
	}{
		{"DecodePacket", func(data []byte) (*Packet, error) { return DecodePacket(data, hf) }},
		{"Decode into a used packet", func(data []byte) (*Packet, error) { return &used, used.Decode(data, hf) }},
		{"copy of a decoded packet", func(data []byte) (*Packet, error) {
			q, err := DecodePacket(data, hf)
			if err != nil {
				return nil, err
			}
			p := new(Packet)
			*p = *q
			return p, nil
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, buf := func() (*Packet, weak.Pointer[byte]) {
				data := append(make([]byte, 0, len(frame)), frame...)
				p, err := c.decode(data)
				if err != nil {
					t.Fatal(err)
				}
				return p, weak.Make(&data[0])
			}()
			runtime.GC()
			if buf.Value() != nil {
				t.Fatal("the decoded packet keeps the buffer it was decoded from alive")
			}
			if !bytes.Equal(p.Serialize(), frame) {
				t.Fatal("the packet lost bytes once its input was collected")
			}
		})
	}
}
