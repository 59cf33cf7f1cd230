package udpio

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	gallium "gallium"
	"gallium/internal/packet"
)

// scriptIO is a transport without a socket, for tests that must see only
// what the front end itself does: ReadBatch hands out the script's total
// frames, never more than the credits allow ahead of the deliveries that
// came back, then reports a closed socket; WriteBatch hands every echo to
// onEcho. It allocates nothing of its own.
type scriptIO struct {
	// frame writes the script's i-th frame into buf and returns its length.
	frame  func(i int, buf []byte) int
	total  int
	served int
	// Before frame pauseAt the script closes paused and waits for resume:
	// the test's point for a reading with everything warmed up (see
	// measured). A script that never pauses leaves paused nil.
	pauseAt        int
	paused, resume chan struct{}
	credits        chan struct{}
	onEcho         func(m mmsg)
	from           netip.AddrPort
	slots          []mmsg // the read buffers, owned here as a transport owns its own
}

func newScriptIO(total int, frame func(int, []byte) int, onEcho func(mmsg)) *scriptIO {
	const window = 64 // datagrams in flight
	s := &scriptIO{frame: frame, total: total, onEcho: onEcho, credits: make(chan struct{}, window),
		from: netip.AddrPortFrom(netip.AddrFrom4([4]byte{192, 0, 2, 7}), 4242), slots: newBatch(window, 2048)}
	for i := 0; i < window; i++ {
		s.credits <- struct{}{}
	}
	return s
}

func (s *scriptIO) ReadBatch(ms []mmsg, _ time.Time) (int, error) {
	n := 0
	for ; n < len(ms) && s.served < s.total; n++ {
		if n == 0 {
			<-s.credits
		} else {
			select {
			case <-s.credits:
			default:
				return n, nil
			}
		}
		if s.paused != nil && s.served == s.pauseAt {
			close(s.paused)
			<-s.resume
		}
		k := s.frame(s.served, s.slots[n].buf)
		ms[n] = mmsg{buf: s.slots[n].buf[:k], addr: s.from}
		s.served++
	}
	if n == 0 {
		return 0, net.ErrClosed
	}
	return n, nil
}

func (s *scriptIO) WriteBatch(ms []mmsg, _ *ioScratch) (int, error) {
	for i := range ms {
		if ms[i].addr != s.from {
			panic("echo addressed to " + ms[i].addr.String())
		}
		s.onEcho(ms[i])
	}
	return len(ms), nil
}

// scripted opens a session of the named middlebox behind a front end
// whose transport is the script; every delivery returns one credit to it.
func scripted(t *testing.T, mb string, io *scriptIO, opts ...gallium.Option) (*Frontend, *gallium.Session) {
	t.Helper()
	art, err := gallium.CompileBuiltin(mb, gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fe, err := Listen(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fe.Close() })
	fe.io = io
	sess, err := gallium.Open(art, append(opts, gallium.WithDeliveries(func(d gallium.Delivery) {
		fe.Deliver(d)
		io.credits <- struct{}{}
	}))...)
	if err != nil {
		t.Fatal(err)
	}
	return fe, sess
}

// measured runs Serve over a script that pauses once and returns the
// memory statistics at the pause and at the end of the script, the session
// drained at both; collect runs the collector before each reading.
func measured(t *testing.T, fe *Frontend, sess *gallium.Session, io *scriptIO, pauseAt int, collect bool) (before, after runtime.MemStats) {
	t.Helper()
	io.pauseAt, io.paused, io.resume = pauseAt, make(chan struct{}), make(chan struct{})
	read := func(m *runtime.MemStats) {
		if err := sess.Drain(); err != nil {
			t.Fatal(err)
		}
		if collect {
			runtime.GC()
			runtime.GC()
		}
		runtime.ReadMemStats(m)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- fe.Serve(context.Background(), sess) }()
	<-io.paused
	read(&before)
	close(io.resume)
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	read(&after)
	return before, after
}

// natFlows builds n client->server tuples from inside the NAT.
func natFlows(n int) []packet.FiveTuple {
	out := make([]packet.FiveTuple, n)
	for i := range out {
		out[i] = packet.FiveTuple{
			SrcIP:   packet.MakeIPv4Addr(10, 0, byte(1+i/250), byte(1+i%250)),
			DstIP:   packet.MakeIPv4Addr(93, 184, 216, 34),
			SrcPort: uint16(20000 + i),
			DstPort: 80,
			Proto:   packet.IPProtocolTCP,
		}
	}
	return out
}

func ackFrame(tup packet.FiveTuple, seq uint32) []byte {
	return packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort,
		packet.TCPOptions{Flags: packet.TCPFlagACK, Seq: seq, Payload: []byte("recycle me")}).Serialize()
}

// TestWirePathAllocs pins the front end's steady state at zero
// allocations: Serve -> mazunat session -> Deliver over a transport that
// allocates nothing, established flows. Before the lanes a datagram cost a
// Packet, its payload copy, Serialize's buffer, its growth and its final
// copy, plus the transports' per-batch scratch.
func TestWirePathAllocs(t *testing.T) {
	const nflows, warm, count = 64, 64 * 8, 20000
	flows := natFlows(nflows)
	frames := make([][]byte, nflows)
	for i := range frames {
		frames[i] = ackFrame(flows[i], 1)
	}
	var echoed atomic.Int64
	io := newScriptIO(warm+count, func(i int, buf []byte) int { return copy(buf, frames[i%nflows]) },
		func(mmsg) { echoed.Add(1) })
	fe, sess := scripted(t, "mazunat", io, gallium.WithScenario(), gallium.WithFlows(flows))
	// By the pause every flow is established and every lane, packet and
	// buffer has reached its size.
	before, after := measured(t, fe, sess, io, warm, false)
	if got := echoed.Load(); got != warm+count {
		t.Fatalf("%d echoes for %d datagrams (stats %+v)", got, warm+count, fe.Stats())
	}
	perDatagram := float64(after.Mallocs-before.Mallocs) / count
	t.Logf("%.4f allocations per datagram (%d over %d datagrams)", perDatagram, after.Mallocs-before.Mallocs, count)
	if perDatagram > 0.1 {
		t.Errorf("the wire path allocates %.3f times per datagram, want at most 0.1", perDatagram)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFrontendStateIsBounded: 200,000 datagrams of 200,000 distinct
// five-tuples leave the heap where it was. The front end holds no
// per-flow and no per-peer state — the return address rides on the packet
// — where the flow map it replaces kept an entry for every tuple it ever
// saw. The firewall drops them all, so the engine keeps nothing either.
func TestFrontendStateIsBounded(t *testing.T) {
	const warm, total = 2000, 202000
	frame := ackFrame(natFlows(1)[0], 1)
	io := newScriptIO(total, func(i int, buf []byte) int {
		n := copy(buf, frame)
		// A tuple of its own: source address and source port.
		binary.BigEndian.PutUint32(buf[packet.EthernetHeaderLen+12:], 0x0a000000|uint32(i))
		binary.BigEndian.PutUint16(buf[packet.EthernetHeaderLen+packet.IPv4HeaderLen:], uint16(i))
		return n
	}, func(mmsg) { t.Error("the firewall let a frame through") })
	fe, sess := scripted(t, "firewall", io, gallium.WithScenario())
	before, after := measured(t, fe, sess, io, warm, true)
	if st := fe.Stats(); st.RxDatagrams != total || st.Dropped != total || st.DecodeErrors != 0 || st.Untracked != 0 {
		t.Fatalf("front end counters: %+v", st)
	}
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("heap %d -> %d bytes across %d distinct tuples", before.HeapAlloc, after.HeapAlloc, total-warm)
	if grew > 256<<10 {
		t.Errorf("the heap grew by %d bytes across %d distinct five-tuples: per-flow state", grew, total-warm)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecycledPacketsAreQuiescent is the ownership rule under the race
// detector: two workers, 50,000 datagrams over 2,000 flows whose first
// packets take the slow path (each hop decoded back in place), every packet
// decoded into one the front end got back from an earlier Deliver. A
// packet reused while the engine still reads it is a data race, and its
// echo differs from the oracle's: the same frames, in the same order,
// through a session with no front end.
func TestRecycledPacketsAreQuiescent(t *testing.T) {
	const nflows, perFlow = 2000, 25
	flows := natFlows(nflows)
	frames := make([][]byte, 0, nflows*perFlow)
	for seq := 0; seq < perFlow; seq++ {
		for _, tup := range flows {
			frames = append(frames, ackFrame(tup, uint32(seq)))
		}
	}
	opts := []gallium.Option{gallium.WithWorkers(2), gallium.WithScenario(), gallium.WithFlows(flows)}

	var mu sync.Mutex
	want := make(map[string]int, nflows)
	art, err := gallium.CompileBuiltin("mazunat", gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := gallium.Open(art, append(opts, gallium.WithDeliveries(func(d gallium.Delivery) {
		if d.Delivered {
			mu.Lock()
			want[string(d.Pkt.Serialize())]++
			mu.Unlock()
		}
	}))...)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range frames {
		pkt, err := packet.DecodePacket(f, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Spaced in virtual time, as wall-clock arrivals are: a burst would
		// overflow the modelled server queue.
		if _, err := oracle.Dispatch(int64(i)*10_000, pkt); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := oracle.Close(); err != nil {
		t.Fatal(err)
	}

	got := make(map[string]int, nflows)
	io := newScriptIO(len(frames), func(i int, buf []byte) int { return copy(buf, frames[i]) }, func(m mmsg) {
		mu.Lock()
		got[string(m.buf)]++
		mu.Unlock()
	})
	fe, sess := scripted(t, "mazunat", io, opts...)
	if err := fe.Serve(context.Background(), sess); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	rep, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.SlowPath < nflows {
		t.Errorf("%d slow-path packets, want every flow's first (%d)", rep.Stats.SlowPath, nflows)
	}
	if st := fe.Stats(); st.TxDatagrams != int64(len(frames)) || st.Untracked != 0 || st.Dropped != 0 || st.DecodeErrors != 0 {
		t.Fatalf("front end counters: %+v", st)
	}
	bad := 0
	for e, n := range got {
		if want[e] != n {
			bad++
		}
	}
	if bad > 0 || len(got) != len(want) {
		t.Errorf("%d of %d distinct echoes differ from the oracle's %d", bad, len(got), len(want))
	}
}

// hostileFrames is one datagram per way a frame can be wrong.
func hostileFrames(maxPacket int) map[string][]byte {
	good := ackFrame(natFlows(1)[0], 1)
	const hdrs = packet.EthernetHeaderLen + packet.IPv4HeaderLen + packet.TCPHeaderLen
	out := map[string][]byte{"empty": {}, "one byte": {0x45}}
	for _, cut := range []int{packet.EthernetHeaderLen - 1, packet.EthernetHeaderLen,
		packet.EthernetHeaderLen + packet.IPv4HeaderLen - 1, packet.EthernetHeaderLen + packet.IPv4HeaderLen, hdrs - 1} {
		out[fmt.Sprintf("truncated at %d", cut)] = good[:cut]
	}
	fill := make([]byte, maxPacket)
	for i := range fill {
		fill[i] = 0xff
	}
	binary.BigEndian.PutUint16(fill[12:], uint16(packet.EtherTypeIPv4))
	out["MaxPacket bytes of 0xff"] = fill
	spoof := append([]byte(nil), good...)
	binary.BigEndian.PutUint16(spoof[12:], uint16(packet.EtherTypeGallium))
	out["gallium ethertype, no format configured"] = spoof
	opt := append(append([]byte(nil), good[:hdrs]...), 2, 3, 0, 0) // an MSS option of length 3
	opt[packet.EthernetHeaderLen+packet.IPv4HeaderLen+12] = 6 << 4
	out["bad TCP option"] = opt
	return out
}

// TestHostileDatagrams: every malformed datagram is one DecodeErrors tick
// and nothing else — its packet is decoded into again, not leaked and not
// dispatched — and a well-formed frame sent after it still echoes, over
// both transports.
func TestHostileDatagrams(t *testing.T) {
	for _, generic := range []bool{false, true} {
		flows := natFlows(1)
		art, err := gallium.CompileBuiltin("firewall", gallium.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fe, err := Listen(Config{Addr: "127.0.0.1:0", Generic: generic, MaxPacket: 512})
		if err != nil {
			t.Fatal(err)
		}
		defer fe.Close()
		sess, err := gallium.Open(art, gallium.WithScenario(), gallium.WithFlows(flows), gallium.WithDeliveries(fe.Deliver))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		serveDone := make(chan error, 1)
		go func() { serveDone <- fe.Serve(ctx, sess) }()
		client, err := Dial(fe.Addr().String(), Config{Generic: generic})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()

		good := ackFrame(flows[0], 7)
		var errs, echoes int64
		for name, frame := range hostileFrames(512) {
			if err := client.Send([][]byte{frame}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			errs++
			deadline := time.Now().Add(5 * time.Second)
			for fe.Stats().DecodeErrors != errs {
				if time.Now().After(deadline) {
					t.Fatalf("generic=%v, %s: decode errors %d, want %d", generic, name, fe.Stats().DecodeErrors, errs)
				}
				time.Sleep(100 * time.Microsecond)
			}
			if err := client.Send([][]byte{good}); err != nil {
				t.Fatal(err)
			}
			echo, err := client.Recv(1, 5*time.Second)
			if err != nil || len(echo) != 1 || string(echo[0]) != string(good) {
				t.Fatalf("generic=%v: the frame after %q came back as %d echoes (err %v)", generic, name, len(echo), err)
			}
			echoes++
		}
		cancel()
		<-serveDone
		if _, err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		if st := fe.Stats(); st.DecodeErrors != errs || st.TxDatagrams != echoes || st.RxDatagrams != errs+echoes || st.Untracked != 0 || st.Dropped != 0 {
			t.Errorf("generic=%v: front end counters %+v, want %d decode errors and %d echoes", generic, st, errs, echoes)
		}
		// One datagram was ever in flight, so one packet is all the front
		// end needed: a malformed datagram that took a packet with it, or
		// got a fresh one, shows here.
		if n := len(fe.free); n != 1 {
			t.Errorf("generic=%v: %d packets on the free list after one-at-a-time traffic, want 1", generic, n)
		}
	}
}

// TestBorrowOnlyLoneDatagrams: Serve marks every datagram of a read but
// the last (Packet.RxBurst), and the engine runs an unmarked packet on the
// Dispatch caller only when nothing of its read is pending. Traffic one
// datagram at a time (each read waits for the last echo) runs on Serve's
// goroutine, each echo sent alone; with every datagram in flight at once
// Serve reads bursts of 32 (Config.Batch), which reach the worker as one
// push each, none borrowed, and their echoes still leave in batches.
func TestBorrowOnlyLoneDatagrams(t *testing.T) {
	const total = 64
	flows := natFlows(8)
	run := func(window int) (Stats, *gallium.Report) {
		t.Helper()
		var echoed atomic.Int64
		io := newScriptIO(total, func(i int, buf []byte) int { return copy(buf, ackFrame(flows[i%len(flows)], uint32(i))) },
			func(mmsg) { echoed.Add(1) })
		for len(io.credits) > window {
			<-io.credits
		}
		fe, sess := scripted(t, "mazunat", io, gallium.WithScenario(), gallium.WithFlows(flows))
		if err := fe.Serve(context.Background(), sess); err != nil {
			t.Fatalf("Serve: %v", err)
		}
		rep, err := sess.Close()
		if err != nil {
			t.Fatal(err)
		}
		if echoed.Load() != total {
			t.Fatalf("window %d: %d echoes for %d datagrams", window, echoed.Load(), total)
		}
		return fe.Stats(), rep
	}

	st, rep := run(1)
	t.Logf("one at a time: %d of %d borrowed, %d echoes in %d batches", rep.Borrowed, total, st.TxDatagrams, st.TxBatches)
	if st.RxBatches != total || st.TxBatches != total {
		t.Errorf("one at a time: %d reads and %d sends for %d datagrams, want one each", st.RxBatches, st.TxBatches, total)
	}
	// Until the worker first parks a datagram finds it busy and queues;
	// after that nothing wakes it, so every later one is borrowed.
	if rep.Borrowed < total/2 {
		t.Errorf("one at a time: %d of %d datagrams borrowed, want nearly all", rep.Borrowed, total)
	}

	st, rep = run(total)
	t.Logf("32-datagram reads: %d of %d borrowed, %d echoes in %d batches", rep.Borrowed, total, st.TxDatagrams, st.TxBatches)
	if st.RxBatches != 2 || rep.Borrowed != 0 {
		t.Errorf("%d datagrams in flight: %d reads, %d borrowed; want 2 reads of 32 and none borrowed", total, st.RxBatches, rep.Borrowed)
	}
	if st.TxBatches >= st.TxDatagrams {
		t.Errorf("%d datagrams in flight: %d echoes in %d sends, want batches", total, st.TxDatagrams, st.TxBatches)
	}
}

// TestUndecodableLastDatagram: a read whose last datagram does not decode
// still ends with an unmarked packet, so the 31 datagrams before it are
// pushed to their worker and echo with no barrier behind them; a read that
// ended on a marked packet would leave them waiting for the next read,
// which the script holds back until they have echoed.
func TestUndecodableLastDatagram(t *testing.T) {
	const total, read = 64, 32 // read: Config.Batch
	flows := natFlows(8)
	var echoed atomic.Int64
	io := newScriptIO(total, func(i int, buf []byte) int {
		if i == read-1 {
			return copy(buf, []byte{0x45})
		}
		return copy(buf, ackFrame(flows[i%len(flows)], uint32(i)))
	}, func(mmsg) { echoed.Add(1) })
	io.pauseAt, io.paused, io.resume = read, make(chan struct{}), make(chan struct{})
	fe, sess := scripted(t, "mazunat", io, gallium.WithScenario(), gallium.WithFlows(flows))
	serveDone := make(chan error, 1)
	go func() { serveDone <- fe.Serve(context.Background(), sess) }()
	<-io.paused
	for deadline := time.Now().Add(10 * time.Second); echoed.Load() != read-1; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Errorf("the first read echoed %d of its %d good datagrams before the next read", echoed.Load(), read-1)
			break
		}
	}
	close(io.resume)
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if st := fe.Stats(); st.RxBatches != 2 || st.DecodeErrors != 1 || st.TxDatagrams != total-1 || echoed.Load() != total-1 {
		t.Errorf("front end counters %+v, %d echoes: want 2 reads, 1 decode error and %d echoes", st, echoed.Load(), total-1)
	}
}
