package packet

import (
	"sort"
	"strings"
	"testing"
)

// TestIPv6AddrFormatting pins the RFC 5952 rendering rules the difftest
// trace format depends on: longest zero run compressed (ties to the
// first), single zero groups left alone, and String ∘ Parse the identity
// on every rendered form.
func TestIPv6AddrFormatting(t *testing.T) {
	cases := []struct {
		hi, lo uint64
		want   string
	}{
		{0x20010DB8<<32 | 1, 1, "2001:db8:0:1::1"},
		{0, 0, "::"},
		{0, 1, "::1"},
		{0xFE80 << 48, 7, "fe80::7"},
		{0x20010DB8_00010002, 0x0003000400050006, "2001:db8:1:2:3:4:5:6"},
		// A single zero group is not compressed; the longer run wins.
		{0x2001_0000_0001_0000, 0x0000_0000_0000_0001, "2001:0:1::1"},
		{0xFFFF_FFFF_FFFF_FFFF, 0xFFFF_FFFF_FFFF_FFFF, "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"},
	}
	for _, c := range cases {
		a := MakeIPv6Addr(c.hi, c.lo)
		if got := a.String(); got != c.want {
			t.Errorf("MakeIPv6Addr(%#x, %#x).String() = %q, want %q", c.hi, c.lo, got, c.want)
		}
		back, err := ParseIPv6Addr(c.want)
		if err != nil {
			t.Fatalf("ParseIPv6Addr(%q): %v", c.want, err)
		}
		if back != a {
			t.Errorf("ParseIPv6Addr(%q) = %v, want %v", c.want, back, a)
		}
		if back.Hi() != c.hi || back.Lo() != c.lo {
			t.Errorf("Hi/Lo(%q) = %#x/%#x, want %#x/%#x", c.want, back.Hi(), back.Lo(), c.hi, c.lo)
		}
	}
	if !(IPv6Addr{}).IsZero() {
		t.Error("zero IPv6Addr not IsZero")
	}
	if MakeIPv6Addr(0, 1).IsZero() {
		t.Error("::1 reported as zero")
	}
}

// TestParseIPv6AddrRejects exercises the parser's error paths.
func TestParseIPv6AddrRejects(t *testing.T) {
	for _, s := range []string{
		"", ":", ":::", "1::2::3", "2001:db8", "12345::", "g::1",
		"1:2:3:4:5:6:7:8:9", "1:2:3:4:5:6:7", "::1:2:3:4:5:6:7:8",
	} {
		if _, err := ParseIPv6Addr(s); err == nil {
			t.Errorf("ParseIPv6Addr(%q) accepted", s)
		}
	}
}

// TestParseIPv4Addr covers the dotted-quad parser both ways.
func TestParseIPv4Addr(t *testing.T) {
	a, err := ParseIPv4Addr("10.0.1.200")
	if err != nil {
		t.Fatal(err)
	}
	if a != MakeIPv4Addr(10, 0, 1, 200) {
		t.Fatalf("ParseIPv4Addr = %v", a)
	}
	if got := a.String(); got != "10.0.1.200" {
		t.Fatalf("String = %q", got)
	}
	for _, s := range []string{"", "10.0.1", "10.0.1.2.3", "256.0.0.1", "a.b.c.d"} {
		if _, err := ParseIPv4Addr(s); err == nil {
			t.Errorf("ParseIPv4Addr(%q) accepted", s)
		}
	}
}

// TestTupleHashing pins the hashing contracts the engine's RSS dispatch
// relies on: direction-independence of the symmetric hashes, and (for
// v6) flow-label exclusion so both directions of a labeled connection
// stay on one core.
func TestTupleHashing(t *testing.T) {
	t5 := FiveTuple{
		SrcIP: MakeIPv4Addr(10, 0, 0, 1), DstIP: MakeIPv4Addr(9, 9, 9, 9),
		SrcPort: 1234, DstPort: 80, Proto: IPProtocolTCP,
	}
	if t5.Reverse().Reverse() != t5 {
		t.Error("FiveTuple.Reverse not an involution")
	}
	if t5.Hash() == t5.Reverse().Hash() {
		t.Error("FiveTuple.Hash unexpectedly symmetric")
	}
	if t5.SymmetricHash() != t5.Reverse().SymmetricHash() {
		t.Error("FiveTuple.SymmetricHash not symmetric")
	}
	if got := t5.String(); got != "tcp 10.0.0.1:1234->9.9.9.9:80" {
		t.Fatalf("FiveTuple.String = %q", got)
	}
	u5 := t5
	u5.Proto = IPProtocolUDP
	if !strings.HasPrefix(u5.String(), "udp ") {
		t.Fatalf("udp FiveTuple.String = %q", u5.String())
	}

	t6 := SixTuple{
		SrcIP: MakeIPv6Addr(0x20010DB8<<32, 1), DstIP: MakeIPv6Addr(0x20010DB8<<32, 2),
		SrcPort: 1234, DstPort: 80, Proto: IPProtocolTCP, FlowLabel: 0xBEEF,
	}
	if t6.Reverse().Reverse() != t6 {
		t.Error("SixTuple.Reverse not an involution")
	}
	if t6.SymmetricHash() != t6.Reverse().SymmetricHash() {
		t.Error("SixTuple.SymmetricHash not symmetric")
	}
	relabeled := t6
	relabeled.FlowLabel = 0
	if t6.SymmetricHash() != relabeled.SymmetricHash() {
		t.Error("SixTuple.SymmetricHash depends on the flow label")
	}
	if t6.Hash() == relabeled.Hash() {
		t.Error("SixTuple.Hash ignores the flow label")
	}
	if got := t6.String(); got != "tcp [2001:db8::1]:1234->[2001:db8::2]:80" {
		t.Fatalf("SixTuple.String = %q", got)
	}
	u6 := t6
	u6.Proto = IPProtocolUDP
	if !strings.HasPrefix(u6.String(), "udp ") {
		t.Fatalf("udp SixTuple.String = %q", u6.String())
	}
}

// TestDispatchTuple covers the unified flow key: v4 passes through, v6
// folds its addresses deterministically, encapsulated packets key on the
// inner flow, and transport-less packets report no key.
func TestDispatchTuple(t *testing.T) {
	v4 := BuildTCP(MakeIPv4Addr(10, 0, 0, 1), MakeIPv4Addr(9, 9, 9, 9), 1234, 80, TCPOptions{})
	dt, ok := v4.DispatchTuple()
	if !ok {
		t.Fatal("v4 DispatchTuple not ok")
	}
	want, _ := v4.Tuple()
	if dt != want {
		t.Fatal("v4 DispatchTuple differs from Tuple")
	}

	src6, dst6 := MakeIPv6Addr(0x20010DB8<<32, 1), MakeIPv6Addr(0x20010DB8<<32, 2)
	v6 := BuildUDP6(src6, dst6, 53, 53, []byte("q"))
	t6, ok := v6.Tuple6()
	if !ok || t6.SrcIP != src6 || t6.DstIP != dst6 || t6.Proto != IPProtocolUDP {
		t.Fatalf("Tuple6 = %+v, ok=%v", t6, ok)
	}
	d6, ok := v6.DispatchTuple()
	if !ok {
		t.Fatal("v6 DispatchTuple not ok")
	}
	if d6.SrcPort != 53 || d6.DstPort != 53 || d6.Proto != IPProtocolUDP {
		t.Fatalf("v6 DispatchTuple transport fields wrong: %+v", d6)
	}
	again, _ := v6.DispatchTuple()
	if again != d6 {
		t.Error("v6 fold not deterministic")
	}
	if d6.SrcIP == d6.DstIP {
		t.Error("distinct v6 addresses folded to one value")
	}

	// Encapsulation must not change the dispatch key: the inner flow owns
	// the packet's state.
	enc := v6.Clone()
	enc.EncapGRE(MakeIPv4Addr(172, 16, 0, 1), MakeIPv4Addr(172, 16, 0, 2), 7)
	de, ok := enc.DispatchTuple()
	if !ok || de != d6 {
		t.Fatalf("encapsulated DispatchTuple = %+v, ok=%v, want %+v", de, ok, d6)
	}

	bare := &Packet{}
	if _, ok := bare.DispatchTuple(); ok {
		t.Error("transport-less packet produced a dispatch tuple")
	}
	if _, ok := bare.Tuple6(); ok {
		t.Error("transport-less packet produced a six-tuple")
	}
}

// TestHeaderFieldGuards checks the presence-gated field accessors: reads
// of absent headers return zero, writes to absent headers are dropped,
// and the v6/tunnel pseudo-fields behave per their wire semantics.
func TestHeaderFieldGuards(t *testing.T) {
	v6 := BuildTCP6(MakeIPv6Addr(0x20010DB8<<32, 1), MakeIPv6Addr(0x20010DB8<<32, 2),
		443, 80, TCPOptions{Flags: TCPFlagSYN, MSS: 1460})
	get := func(p *Packet, name string) uint64 {
		t.Helper()
		v, err := p.GetField(name)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	set := func(p *Packet, name string, v uint64) {
		t.Helper()
		if err := p.SetField(name, v); err != nil {
			t.Fatal(err)
		}
	}

	if get(v6, "ip.present") != 0 || get(v6, "ip6.present") != 1 {
		t.Fatal("presence bits wrong on a v6 packet")
	}
	// ip.* on a v6 packet: zero reads, dropped writes.
	if get(v6, "ip.ttl") != 0 {
		t.Error("ip.ttl nonzero on v6 packet")
	}
	set(v6, "ip.ttl", 9)
	if v6.IP.TTL != 0 {
		t.Error("ip.ttl write leaked onto a v6 packet")
	}
	// ip6.* round trips, including the hi/lo address halves and the
	// 20-bit flow-label mask.
	set(v6, "ip6.saddr_hi", 0xFE80<<48)
	set(v6, "ip6.saddr_lo", 0x42)
	if got := v6.IP6.SrcIP; got != MakeIPv6Addr(0xFE80<<48, 0x42) {
		t.Errorf("saddr hi/lo writes produced %v", got)
	}
	set(v6, "ip6.flow", 0xFFFFFFFF)
	if get(v6, "ip6.flow") != 0xFFFFF {
		t.Error("ip6.flow not masked to 20 bits")
	}
	set(v6, "ip6.hoplimit", 7)
	if get(v6, "ip6.hoplimit") != 7 {
		t.Error("ip6.hoplimit write lost")
	}

	// tun.* is inert until tun.mode attaches an outer header.
	if get(v6, "tun.mode") != TunModeNone {
		t.Error("tun.mode nonzero before encap")
	}
	set(v6, "tun.key", 99)
	if get(v6, "tun.key") != 0 {
		t.Error("tun.key write took effect with no tunnel attached")
	}
	set(v6, "tun.mode", TunModeGRE)
	set(v6, "tun.src", uint64(MakeIPv4Addr(172, 16, 0, 1)))
	set(v6, "tun.dst", uint64(MakeIPv4Addr(172, 16, 0, 2)))
	set(v6, "tun.key", 99)
	if get(v6, "tun.mode") != TunModeGRE || get(v6, "tun.key") != 99 {
		t.Fatal("GRE attach via tun.mode failed")
	}
	set(v6, "tun.mode", TunModeIPIP)
	if get(v6, "tun.mode") != TunModeIPIP || v6.HasGRE {
		t.Fatal("mode switch GRE→IPIP failed")
	}
	set(v6, "tun.mode", TunModeNone)
	if v6.HasOuter || get(v6, "tun.src") != 0 {
		t.Fatal("tun.mode=0 did not strip the tunnel")
	}

	// l4.* dispatches to whichever transport header is present.
	u := BuildUDP(MakeIPv4Addr(1, 2, 3, 4), MakeIPv4Addr(5, 6, 7, 8), 1000, 2000, nil)
	if get(u, "l4.sport") != 1000 || get(u, "l4.dport") != 2000 {
		t.Fatal("l4 reads wrong on UDP")
	}
	set(u, "l4.sport", 1111)
	if u.UDP.SrcPort != 1111 {
		t.Fatal("l4.sport write missed UDP header")
	}

	if _, err := v6.GetField("no.such"); err == nil {
		t.Error("GetField accepted unknown field")
	}
	if err := v6.SetField("no.such", 1); err == nil {
		t.Error("SetField accepted unknown field")
	}
	if _, ok := HeaderFieldBits("ip6.saddr_hi"); !ok {
		t.Error("HeaderFieldBits missing ip6.saddr_hi")
	}
	if _, ok := HeaderFieldBits("no.such"); ok {
		t.Error("HeaderFieldBits knows unknown field")
	}
	names := HeaderFieldNames()
	sort.Strings(names)
	for _, want := range []string{"ip6.nexthdr", "tun.key", "tcp.mss"} {
		i := sort.SearchStrings(names, want)
		if i >= len(names) || names[i] != want {
			t.Errorf("HeaderFieldNames missing %q", want)
		}
	}
}

// TestWireLenMatchesSerialize pins WireLen to the actual serialized size
// across every header combination the substrate supports.
func TestWireLenMatchesSerialize(t *testing.T) {
	v4 := BuildTCP(MakeIPv4Addr(10, 0, 0, 1), MakeIPv4Addr(9, 9, 9, 9), 1, 2, TCPOptions{Payload: []byte("xyz")})
	mss := BuildTCP(MakeIPv4Addr(10, 0, 0, 1), MakeIPv4Addr(9, 9, 9, 9), 1, 2, TCPOptions{Flags: TCPFlagSYN, MSS: 1460})
	v6 := BuildUDP6(MakeIPv6Addr(1, 2), MakeIPv6Addr(3, 4), 5, 6, []byte("pay"))
	gre := v4.Clone()
	gre.EncapGRE(MakeIPv4Addr(172, 16, 0, 1), MakeIPv4Addr(172, 16, 0, 2), 7)
	greNoKey := v4.Clone()
	greNoKey.EncapGRE(MakeIPv4Addr(172, 16, 0, 1), MakeIPv4Addr(172, 16, 0, 2), 0)
	ipip := v6.Clone()
	ipip.EncapIPIP(MakeIPv4Addr(172, 16, 0, 1), MakeIPv4Addr(172, 16, 0, 2))
	hf, err := NewHeaderFormat([]HeaderField{{Name: "a", Bits: 12}, {Name: "b", Bits: 4}})
	if err != nil {
		t.Fatal(err)
	}
	gal := v4.Clone()
	gal.AttachGallium(hf)
	for i, p := range []*Packet{v4, mss, v6, gre, greNoKey, ipip, gal} {
		if got, want := p.WireLen(), len(p.Serialize()); got != want {
			t.Errorf("packet %d: WireLen=%d but Serialize produced %d bytes", i, got, want)
		}
	}
	if hf.WireLen() != GalliumHeaderBaseLen+hf.DataLen() {
		t.Error("HeaderFormat.WireLen inconsistent with DataLen")
	}
}

// TestHeaderFormatSpecs covers field resolution by name and the format's
// debug rendering.
func TestHeaderFormatSpecs(t *testing.T) {
	hf, err := NewHeaderFormat([]HeaderField{{Name: "cond", Bits: 1}, {Name: "hash32", Bits: 32}})
	if err != nil {
		t.Fatal(err)
	}
	if got := hf.String(); got != "{cond:1, hash32:32}" {
		t.Fatalf("String = %q", got)
	}
	if off, bits, ok := hf.FieldOffset("hash32"); !ok || off != 1 || bits != 32 {
		t.Fatalf("FieldOffset(hash32) = %d, %d, %v; want 1, 32, true", off, bits, ok)
	}
	if _, _, ok := hf.FieldOffset("nope"); ok {
		t.Fatal("FieldOffset resolved unknown field")
	}
	data := make([]byte, hf.DataLen())
	setField(t, hf, data, "hash32", 0xDEADBEEF)
	if v := getField(t, hf, data, "hash32"); v != 0xDEADBEEF {
		t.Fatalf("hash32 = %#x", v)
	}
	if v := refGetBits(data, 1, 32); v != 0xDEADBEEF {
		t.Fatalf("reference reads hash32 as %#x", v)
	}
	if _, err := NewCodec(hf, []Bind{{Field: "nope"}}, 1); err == nil {
		t.Error("a codec bound an unknown field")
	}
}

// TestLayerAccessors decodes every header the substrate can produce and
// checks its fields, then cuts the same frame short inside each header and
// checks that the DecodeError names that header.
func TestLayerAccessors(t *testing.T) {
	hf, err := NewHeaderFormat([]HeaderField{{Name: "x", Bits: 16}})
	if err != nil {
		t.Fatal(err)
	}
	src6, dst6 := MakeIPv6Addr(0x20010DB8<<32, 1), MakeIPv6Addr(0x20010DB8<<32, 2)
	inner := BuildTCP6(src6, dst6, 443, 80, TCPOptions{Flags: TCPFlagSYN, MSS: 1460, Payload: []byte("data")})
	inner.IP6.FlowLabel, inner.IP6.TrafficClass = 0xBEEF, 0x20
	inner.EncapGRE(MakeIPv4Addr(172, 16, 0, 1), MakeIPv4Addr(172, 16, 0, 2), 7)
	inner.AttachGallium(hf)
	raw := inner.Serialize()
	p, err := DecodePacket(raw, hf)
	if err != nil {
		t.Fatal(err)
	}
	if !p.HasGallium || len(p.GalData) != hf.DataLen() || p.Eth.EtherType != EtherTypeGallium {
		t.Errorf("Gallium header: %v %x, EtherType %#04x", p.HasGallium, p.GalData, p.Eth.EtherType)
	}
	if !p.HasOuter || p.Outer.SrcIP != MakeIPv4Addr(172, 16, 0, 1) || p.Outer.Protocol != IPProtocolGRE || p.Outer.TTL != 64 {
		t.Errorf("outer IPv4 header: %+v", p.Outer)
	}
	if !p.HasGRE || !p.GRE.HasKey || p.GRE.Key != 7 || p.GRE.Protocol != EtherTypeIPv6 || p.GRE.HeaderLen() != GREHeaderBaseLen+GREKeyLen {
		t.Errorf("GRE header: %+v", p.GRE)
	}
	if p.HasIP || !p.HasIP6 || p.IP6.SrcIP != src6 || p.IP6.DstIP != dst6 || p.IP6.FlowLabel != 0xBEEF ||
		p.IP6.TrafficClass != 0x20 || p.IP6.HopLimit != 64 || p.IP6.NextHeader != IPProtocolTCP ||
		int(p.IP6.PayloadLen) != TCPHeaderLen+TCPOptionMSSLen+4 {
		t.Errorf("IPv6 header: %+v", p.IP6)
	}
	if !p.HasTCP || p.TCP.SrcPort != 443 || !p.TCP.HasMSS || p.TCP.MSS != 1460 || string(p.Payload) != "data" {
		t.Errorf("TCP header: %+v, payload %q", p.TCP, p.Payload)
	}

	// A frame cut inside a header fails in that header. The headers follow
	// one another: Ethernet, Gallium, outer IPv4, GRE and its key, IPv6,
	// TCP.
	at := 0
	for _, h := range []struct {
		n     int
		layer LayerType
	}{
		{EthernetHeaderLen, LayerTypeEthernet},
		{hf.WireLen(), LayerTypeGallium},
		{IPv4HeaderLen, LayerTypeIPv4},
		{GREHeaderBaseLen, LayerTypeGRE},
		{GREKeyLen, LayerTypeGRE},
		{IPv6HeaderLen, LayerTypeIPv6},
		{TCPHeaderLen, LayerTypeTCP},
	} {
		at += h.n
		if l := decodeFails(t, raw[:at-1], hf); l != h.layer {
			t.Errorf("frame cut at %d failed in %v, want %v", at-1, l, h.layer)
		}
	}

	// GRE extensions the switch parser does not model are rejected.
	gre := EthernetHeaderLen + hf.WireLen() + IPv4HeaderLen
	for name, mutate := range map[string]func(b []byte){
		"version 1":     func(b []byte) { b[gre+1] = 1 },
		"checksum flag": func(b []byte) { b[gre] |= 0x80 },
		"sequence flag": func(b []byte) { b[gre] |= 0x10 },
	} {
		b := append([]byte(nil), raw...)
		mutate(b)
		if l := decodeFails(t, b, hf); l != LayerTypeGRE {
			t.Errorf("%s: failed in %v, want GRE", name, l)
		}
	}

	u, err := DecodePacket(BuildUDP(MakeIPv4Addr(1, 2, 3, 4), MakeIPv4Addr(5, 6, 7, 8), 9, 10, []byte("x")).Serialize(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !u.HasIP || u.IP.SrcIP != MakeIPv4Addr(1, 2, 3, 4) || !u.HasUDP || u.UDP.DstPort != 10 || string(u.Payload) != "x" {
		t.Errorf("IPv4/UDP headers: %+v %+v", u.IP, u.UDP)
	}
	if got := u.Eth.SrcMAC.String(); !strings.Contains(got, ":") {
		t.Errorf("MAC String = %q", got)
	}

	for lt := LayerTypeEthernet; lt <= LayerTypeGRE; lt++ {
		if s := lt.String(); s == "" || strings.HasPrefix(s, "LayerType(") {
			t.Errorf("LayerType(%d) has no name: %q", int(lt), s)
		}
	}
	if s := LayerType(99).String(); !strings.HasPrefix(s, "LayerType(") {
		t.Errorf("unknown LayerType String = %q", s)
	}

	// Decode errors carry the failing layer and render it.
	_, err = DecodePacket([]byte{1, 2, 3}, nil)
	if err == nil {
		t.Fatal("truncated frame decoded")
	}
	if msg := err.Error(); !strings.Contains(msg, "Ethernet") {
		t.Errorf("DecodeError.Error = %q, expected the layer name", msg)
	}
}
