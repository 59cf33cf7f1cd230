package udpio_test

import (
	"context"
	"errors"
	"testing"
	"time"

	gallium "gallium"
	"gallium/internal/packet"
	"gallium/internal/trafficgen"
	"gallium/internal/udpio"
)

// iperfFrames serializes an iperf workload into wire frames plus the
// five-tuples a scenario must whitelist.
func iperfFrames(t *testing.T, conns, n int) ([][]byte, []packet.FiveTuple) {
	t.Helper()
	cfg := trafficgen.IperfConfig{
		Conns:      conns,
		PPS:        1e6,
		DurationNs: int64(n) * 1000,
		Seed:       7,
	}
	var frames [][]byte
	err := cfg.Generate(func(_ int64, pkt *packet.Packet) error {
		frames = append(frames, pkt.Serialize())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != n {
		t.Fatalf("generated %d frames, want %d", len(frames), n)
	}
	return frames, cfg.Tuples()
}

// runLoopback is the end-to-end path: a mazunat session behind a UDP
// front end, a batched client sending real datagrams over loopback, and
// the NAT-rewritten echoes coming back.
func runLoopback(t *testing.T, generic bool) {
	t.Helper()
	const nFrames = 96
	frames, tuples := iperfFrames(t, 8, nFrames)

	art, err := gallium.CompileBuiltin("mazunat", gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fe, err := udpio.Listen(udpio.Config{Addr: "127.0.0.1:0", Batch: 16, Generic: generic})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()

	sess, err := gallium.Open(art,
		gallium.WithWorkers(2),
		gallium.WithScenario(),
		gallium.WithFlows(tuples),
		gallium.WithDeliveries(fe.Deliver),
	)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- fe.Serve(ctx, sess) }()

	client, err := udpio.Dial(fe.Addr().String(), udpio.Config{Batch: 16, Generic: generic})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if err := client.Send(frames); err != nil {
		t.Fatal(err)
	}
	echoes, err := client.Recv(nFrames, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(echoes) != nFrames {
		t.Fatalf("received %d echoes, want %d (stats %+v)", len(echoes), nFrames, fe.Stats())
	}

	// The NAT rewrote every echo: source ports moved out of the client's
	// ephemeral range into the allocator's external space.
	sent := map[uint16]bool{}
	for _, tup := range tuples {
		sent[tup.SrcPort] = true
	}
	for _, buf := range echoes {
		pkt, err := packet.DecodePacket(buf, nil)
		if err != nil {
			t.Fatalf("echo did not decode: %v", err)
		}
		if !pkt.HasTCP {
			t.Fatal("echo lost its TCP header")
		}
		if sent[pkt.TCP.SrcPort] {
			t.Fatalf("echo still carries client source port %d — NAT rewrite missing", pkt.TCP.SrcPort)
		}
	}

	cancel()
	if err := <-serveDone; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve: %v", err)
	}
	rep, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Injected != nFrames || rep.Stats.Delivered != nFrames {
		t.Fatalf("engine saw %d/%d of %d datagrams", rep.Stats.Injected, rep.Stats.Delivered, nFrames)
	}
	st := fe.Stats()
	if st.RxDatagrams != nFrames || st.TxDatagrams != nFrames {
		t.Fatalf("front end moved rx=%d tx=%d, want %d", st.RxDatagrams, st.TxDatagrams, nFrames)
	}
	if st.RxBatches < 1 || st.RxBatches > st.RxDatagrams {
		t.Fatalf("rx batch accounting off: %+v", st)
	}
	if st.DecodeErrors != 0 || st.Dropped != 0 || st.Untracked != 0 {
		t.Fatalf("unexpected error counters: %+v", st)
	}
}

func TestLoopbackEchoBatched(t *testing.T) { runLoopback(t, false) }
func TestLoopbackEchoGeneric(t *testing.T) { runLoopback(t, true) }

// TestDecodeErrorCounted: garbage datagrams are counted, not fatal.
func TestDecodeErrorCounted(t *testing.T) {
	art, err := gallium.CompileBuiltin("firewall", gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fe, err := udpio.Listen(udpio.Config{Addr: "127.0.0.1:0", Generic: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	sess, err := gallium.Open(art, gallium.WithScenario(), gallium.WithDeliveries(fe.Deliver))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- fe.Serve(ctx, sess) }()

	client, err := udpio.Dial(fe.Addr().String(), udpio.Config{Generic: true})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Send([][]byte{{0xde, 0xad}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for fe.Stats().DecodeErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("decode error never counted: %+v", fe.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-serveDone
}

// TestClientRecvTimeout: an idle socket returns empty, not an error.
func TestClientRecvTimeout(t *testing.T) {
	fe, err := udpio.Listen(udpio.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	client, err := udpio.Dial(fe.Addr().String(), udpio.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	start := time.Now()
	out, err := client.Recv(4, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("received %d datagrams from an idle socket", len(out))
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("Recv did not honor its timeout")
	}
}

// served is a session of one builtin middlebox behind a front end whose
// Serve loop is running.
type served struct {
	fe   *udpio.Frontend
	sess *gallium.Session
	stop func() udpio.Stats // cancels Serve, closes the session, returns the final counters
}

func serve(t *testing.T, mb string, cfg udpio.Config, opts ...gallium.Option) served {
	t.Helper()
	art, err := gallium.CompileBuiltin(mb, gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Addr = "127.0.0.1:0"
	fe, err := udpio.Listen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fe.Close() })
	sess, err := gallium.Open(art, append(opts, gallium.WithScenario(), gallium.WithDeliveries(fe.Deliver))...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- fe.Serve(ctx, sess) }()
	return served{fe: fe, sess: sess, stop: func() udpio.Stats {
		t.Helper()
		cancel()
		if err := <-serveDone; err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("Serve: %v", err)
		}
		if _, err := sess.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		return fe.Stats()
	}}
}

func dial(t *testing.T, s served, cfg udpio.Config) *udpio.Client {
	t.Helper()
	c, err := udpio.Dial(s.fe.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestLoopbackEchoV6: IPv6 frames are echoed like any other. The flow map
// this front end used to keep was written under the IPv4 tuple and read
// under the dispatch tuple, so a v6 frame's echo never found its sender
// and every one of these counted as Untracked.
func TestLoopbackEchoV6(t *testing.T) {
	for _, generic := range []bool{false, true} {
		const nFrames = 96
		frames := make([][]byte, nFrames)
		for i := range frames {
			src := packet.MakeIPv6Addr(0x20010DB8<<32, uint64(1+i%8))
			dst := packet.MakeIPv6Addr(0x20010DB8<<32|1, 2)
			frames[i] = packet.BuildTCP6(src, dst, uint16(40000+i%8), 443,
				packet.TCPOptions{Flags: packet.TCPFlagSYN, Seq: uint32(i), MSS: 9000}).Serialize()
		}
		s := serve(t, "mssclamp", udpio.Config{Batch: 16, Generic: generic}, gallium.WithWorkers(2))
		client := dial(t, s, udpio.Config{Batch: 16, Generic: generic})
		if err := client.Send(frames); err != nil {
			t.Fatal(err)
		}
		echoes, err := client.Recv(nFrames, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if len(echoes) != nFrames {
			t.Fatalf("generic=%v: %d of %d v6 frames echoed (stats %+v)", generic, len(echoes), nFrames, s.fe.Stats())
		}
		for _, buf := range echoes {
			pkt, err := packet.DecodePacket(buf, nil)
			if err != nil {
				t.Fatalf("echo did not decode: %v", err)
			}
			if !pkt.HasIP6 || !pkt.TCP.HasMSS || pkt.TCP.MSS != 1400 {
				t.Fatalf("generic=%v: echo is not the clamped v6 SYN: v6 %v, mss %d", generic, pkt.HasIP6, pkt.TCP.MSS)
			}
		}
		if st := s.stop(); st.TxDatagrams != nFrames || st.Untracked != 0 || st.Dropped != 0 || st.DecodeErrors != 0 {
			t.Fatalf("generic=%v: front end counters %+v", generic, st)
		}
	}
}

// TestEchoReturnsToSender: two clients send the same five-tuple,
// interleaved, and each gets back exactly its own frames. The return
// address is the datagram's, carried on the packet — keyed by flow, the
// later sender took both clients' echoes.
func TestEchoReturnsToSender(t *testing.T) {
	const perClient = 64
	tup := packet.FiveTuple{SrcIP: packet.MakeIPv4Addr(10, 0, 0, 9), DstIP: packet.MakeIPv4Addr(93, 184, 216, 34),
		SrcPort: 40001, DstPort: 80, Proto: packet.IPProtocolTCP}
	s := serve(t, "mazunat", udpio.Config{Batch: 16}, gallium.WithWorkers(2), gallium.WithFlows([]packet.FiveTuple{tup}))
	clients := []*udpio.Client{dial(t, s, udpio.Config{}), dial(t, s, udpio.Config{})}
	for i := 0; i < perClient; i++ {
		for c, client := range clients {
			frame := packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort,
				packet.TCPOptions{Flags: packet.TCPFlagACK, Seq: uint32(i), Payload: []byte{byte('A' + c)}}).Serialize()
			if err := client.Send([][]byte{frame}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for c, client := range clients {
		echoes, err := client.Recv(perClient, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if len(echoes) != perClient {
			t.Errorf("client %c received %d echoes, want its own %d", 'A'+c, len(echoes), perClient)
		}
		for _, buf := range echoes {
			pkt, err := packet.DecodePacket(buf, nil)
			if err != nil {
				t.Fatal(err)
			}
			if string(pkt.Payload) != string(rune('A'+c)) {
				t.Fatalf("client %c received an echo of client %s's frame", 'A'+c, pkt.Payload)
			}
		}
		if extra, _ := client.Recv(1, 20*time.Millisecond); len(extra) != 0 {
			t.Errorf("client %c received more than its own echoes", 'A'+c)
		}
	}
	if st := s.stop(); st.TxDatagrams != 2*perClient || st.Untracked != 0 {
		t.Fatalf("front end counters %+v", st)
	}
}

// TestEchoLargerThanMaxPacket: tunlb wraps each frame in an outer IPv4 and
// a keyed GRE header, so a frame that just fits the front end's MaxPacket
// comes back 28 bytes longer than a TX slot. It must arrive whole.
func TestEchoLargerThanMaxPacket(t *testing.T) {
	const maxPacket, nFrames = 256, 40 // more frames than one lane holds
	frames := make([][]byte, nFrames)
	for i := range frames {
		p := packet.BuildUDP(packet.MakeIPv4Addr(172, 16, 0, byte(1+i%4)), packet.MakeIPv4Addr(10, 0, 2, 2), uint16(5000+i%4), 53, nil)
		p.PadTo(maxPacket - i%2) // every other one a byte short, so both kinds share a batch
		p.Payload[0] = byte(i)
		frames[i] = p.Serialize()
	}
	s := serve(t, "tunlb", udpio.Config{MaxPacket: maxPacket})
	client := dial(t, s, udpio.Config{})
	if err := client.Send(frames); err != nil {
		t.Fatal(err)
	}
	echoes, err := client.Recv(nFrames, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(echoes) != nFrames {
		t.Fatalf("%d of %d echoes (stats %+v)", len(echoes), nFrames, s.fe.Stats())
	}
	seen := map[byte]bool{}
	for _, buf := range echoes {
		pkt, err := packet.DecodePacket(buf, nil)
		if err != nil {
			t.Fatalf("echo of %d bytes did not decode: %v", len(buf), err)
		}
		i := int(pkt.Payload[0])
		if want := len(frames[i]) + packet.IPv4HeaderLen + 8; len(buf) != want || !pkt.HasGRE {
			t.Fatalf("echo %d is %d bytes (GRE %v), want the %d-byte frame plus its tunnel headers, %d", i, len(buf), pkt.HasGRE, len(frames[i]), want)
		}
		inner := *pkt
		inner.HasOuter, inner.HasGRE = false, false
		if string(inner.Serialize()) != string(frames[i]) {
			t.Fatalf("echo %d does not carry the frame that was sent", i)
		}
		seen[pkt.Payload[0]] = true
	}
	if len(seen) != nFrames {
		t.Errorf("%d distinct echoes of %d", len(seen), nFrames)
	}
	if st := s.stop(); st.TxDatagrams != nFrames || st.Untracked != 0 {
		t.Fatalf("front end counters %+v", st)
	}
}

// panicky is a dispatcher with a bug.
type panicky struct{}

func (panicky) Dispatch(int64, *packet.Packet) (int64, error) { panic("boom") }

// TestHostilePanicIsAnError: a panic under the RX goroutine — here in the
// dispatcher, equally a decoder bug a crafted datagram reaches — ends
// Serve with an error, not the process.
func TestHostilePanicIsAnError(t *testing.T) {
	fe, err := udpio.Listen(udpio.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	serveDone := make(chan error, 1)
	go func() { serveDone <- fe.Serve(context.Background(), panicky{}) }()
	client, err := udpio.Dial(fe.Addr().String(), udpio.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	frames, _ := iperfFrames(t, 1, 1)
	if err := client.Send(frames); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-serveDone:
		if err == nil || err.Error() != "udpio: rx panicked: boom" {
			t.Fatalf("Serve returned %v, want the panic as an error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve still running 5 s after its dispatcher panicked")
	}
}
