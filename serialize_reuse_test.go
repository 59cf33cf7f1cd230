package gallium_test

import (
	"bytes"
	"testing"

	gallium "gallium"
	"gallium/internal/middleboxes"
	"gallium/internal/packet"
)

// TestSerializeToMatchesSerialize runs every bundled middlebox's golden
// trace (vtime_golden_test.go: v4 and v6, TCP and UDP, MSS options,
// padding) through its testbed and serializes each packet, as it goes in
// and as it comes out — tunlb's GRE, the NAT's rewrites, a chain's too —
// through ONE reused buffer: the bytes must be Serialize's, whatever the
// buffer held before.
func TestSerializeToMatchesSerialize(t *testing.T) {
	var b packet.SerializeBuffer
	frames, encapsulated, v6 := 0, 0, 0
	check := func(name string, i int, what string, p *packet.Packet) {
		frames++
		if !bytes.Equal(p.SerializeTo(&b), p.Serialize()) {
			t.Fatalf("%s packet %d (%s): SerializeTo into the used buffer differs from Serialize", name, i, what)
		}
	}
	for _, spec := range middleboxes.Extended() {
		art, err := gallium.Compile(spec.Source, gallium.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tr := newVTTrace(spec.Name, 400, 0)
		tb, err := art.NewTestbed(gallium.TestbedConfig{Setup: tr.setup(art)})
		if err != nil {
			t.Fatal(err)
		}
		for i := range tr.pkts {
			p := tr.build(i)
			check(spec.Name, i, "in", p)
			d, err := tb.Inject(tr.pkts[i].tNs, p)
			if err != nil {
				t.Fatal(err)
			}
			if !d.Delivered {
				continue
			}
			check(spec.Name, i, "out", p)
			if p.HasOuter {
				encapsulated++
			}
			if p.HasIP6 {
				v6++
			}
			// The server hop's form too: the frame with a Gallium header on.
			q := p.Clone()
			q.AttachGallium(art.Res.FormatA)
			check(spec.Name, i, "out + gallium_a", q)
		}
	}
	if encapsulated == 0 || v6 == 0 {
		t.Errorf("%d frames, %d encapsulated, %d IPv6: the traces no longer cover tunnels and v6", frames, encapsulated, v6)
	}
	// IP-in-IP is the one encapsulation no bundled middlebox emits.
	for i, inner := range []*packet.Packet{
		packet.BuildTCP(packet.MakeIPv4Addr(10, 0, 0, 1), packet.MakeIPv4Addr(10, 0, 0, 2), 1, 2, packet.TCPOptions{Payload: []byte("v4 in v4")}),
		packet.BuildUDP6(packet.MakeIPv6Addr(1, 2), packet.MakeIPv6Addr(3, 4), 5, 6, []byte("v6 in v4")),
	} {
		if err := inner.SetField("tun.mode", packet.TunModeIPIP); err != nil {
			t.Fatal(err)
		}
		check("ipip", i, "built", inner)
	}
}
