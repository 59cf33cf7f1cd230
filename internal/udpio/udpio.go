// Package udpio is the engine's batched real-I/O front end: a UDP socket
// whose datagrams each carry one serialized Ethernet frame in the Gallium
// wire format. Reads and writes move in recvmmsg/sendmmsg-style batches —
// on Linux via the real syscalls on a nonblocking socket, elsewhere (or
// with Config.Generic) via a portable drain loop — so the per-datagram
// syscall cost is amortized exactly like the engine amortizes its
// output-commit barrier. On Linux the kernel's UDP offloads go further
// wherever it accepts them: a send groups each run of datagrams to one peer
// of one length into one GSO super-datagram, and a GRO read returns such a
// super-datagram whole into a 64 KiB slot the transport owns, which hands
// its segments out one datagram at a time. So a read is one ReadBatch call,
// not one datagram or one syscall, and RxDatagrams/RxBatches (the
// benchmark's rx_batch_mean) is datagrams per read.
//
// The data path runs to completion, as a DPDK core does rx burst, process,
// tx burst: Serve reads a batch of datagrams, decodes each in place into a
// recycled packet, stamps the sender's address on it (Packet.Ingress), and
// then hands the read's packets to the Dispatcher (Session.Dispatch — the
// engine's streaming ingress, no settle barrier per datagram). Every packet
// but the read's last is marked Packet.RxBurst, so it joins its worker's
// burst; the unmarked last one pushes each worker's burst with one mailbox
// push, and the workers run them while Serve reads on. A read ends with an
// unmarked packet even when its last datagram fails to decode. A datagram
// that came alone runs on Serve's own goroutine whenever its worker is idle
// (the engine borrows the worker). The engine's delivery callback (Deliver,
// registered via WithDeliveries) serializes each surviving packet —
// headers rewritten by the middlebox — into its worker's TX lane and sends
// the lane's batch itself, back to the address on the packet, when the lane
// is full or the worker is about to run out of packets (Delivery.More).
// There is no TX goroutine and no per-flow or per-peer table. Packets the
// middlebox dropped are counted, not echoed.
//
// Packet ownership: a packet Serve hands to Dispatch belongs to the engine
// until its Deliver call returns, then to the front end again, which
// decodes a later datagram into it. Nothing may dereference a packet
// pointer it kept past that point.
package udpio

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"gallium/internal/engine"
	"gallium/internal/packet"
)

// Config sizes the front end.
type Config struct {
	// Addr is the UDP listen address, e.g. "127.0.0.1:0".
	Addr string
	// Batch is the maximum datagrams moved per read/write batch (<=0
	// means 32).
	Batch int
	// MaxPacket is the longest datagram accepted (<=0 means 2048). It sizes
	// the buffers; a longer datagram, which the kernel may have cut short,
	// is never decoded: the front end counts it in DecodeErrors, Recv
	// drops it.
	MaxPacket int
	// Generic forces the portable single-datagram drain loop even where
	// the batched syscalls are available (tests exercise both paths).
	Generic bool
}

func (c Config) withDefaults() Config {
	if c.Batch <= 0 {
		c.Batch = 32
	}
	if c.MaxPacket <= 0 {
		c.MaxPacket = 2048
	}
	return c
}

// Dispatcher is the engine-side ingress the front end feeds;
// *gallium.Session satisfies it.
type Dispatcher interface {
	Dispatch(tNs int64, pkt *packet.Packet) (int64, error)
}

// Stats are the front end's cumulative counters (atomics; read with
// Frontend.Stats).
type Stats struct {
	// RxDatagrams / RxBatches count ingress datagrams and the reads that
	// returned them; TxDatagrams / TxBatches echoes and the flushes that
	// sent them.
	RxDatagrams int64
	RxBatches   int64
	TxDatagrams int64
	TxBatches   int64
	// DecodeErrors counts datagrams that were not valid Gallium frames,
	// those longer than MaxPacket included.
	DecodeErrors int64
	// Dropped counts packets the middlebox dropped (no echo).
	Dropped int64
	// Untracked counts deliveries that could not be echoed: packets
	// without this front end's ingress tag (engine traffic not injected
	// through it) and echoes shed because the socket was already closed.
	Untracked int64
}

// mmsg is one datagram in a batch: its bytes and its peer address. trunc
// marks a read datagram longer than MaxPacket, whose bytes are not the frame
// or not all of it.
type mmsg struct {
	buf   []byte
	addr  netip.AddrPort
	trunc bool
}

// socketIO is the batched read/write contract the two transports
// implement. ReadBatch blocks until at least one datagram is available
// (or deadline passes; zero means block indefinitely), fills as many of
// ms as the socket can supply without blocking again, one datagram each,
// and returns the count; the bytes sit in buffers the transport owns and
// are valid until the next ReadBatch. WriteBatch sends every datagram and
// returns the count sent; it may be called concurrently, each caller
// passing a scratch of its own. ReadBatch owns the socket's read deadline —
// callers pass theirs in rather than setting it on the conn.
type socketIO interface {
	ReadBatch(ms []mmsg, deadline time.Time) (int, error)
	WriteBatch(ms []mmsg, scratch *ioScratch) (int, error)
}

// newBatch returns n datagram slots over one n x size arena.
func newBatch(n, size int) []mmsg {
	ms, arena := make([]mmsg, n), make([]byte, n*size)
	for i := range ms {
		ms[i].buf = arena[i*size : (i+1)*size : (i+1)*size]
	}
	return ms
}

// Frontend is one bound UDP socket feeding one engine session.
type Frontend struct {
	cfg   Config
	pc    *net.UDPConn
	io    socketIO
	start time.Time

	// lanes is the copy-on-write table of TX lanes, indexed by the engine
	// worker that owns each: Deliver finds its lane with one atomic load,
	// and the first delivery from a new worker grows the table under mu.
	lanes atomic.Pointer[[]*lane]
	// free is the bounded list of packets to decode into; lanes return
	// theirs at flush, Serve draws a batch's worth per read.
	mu   sync.Mutex
	free []*packet.Packet

	rxDatagrams, rxBatches atomic.Int64
	txDatagrams, txBatches atomic.Int64
	decodeErrors           atomic.Int64
	dropped, untracked     atomic.Int64
}

// lane is one engine worker's transmit side, touched only by whoever runs
// that worker's packets — the worker, or a Dispatch caller that borrowed
// it, never both at once: the echoes serialized since the last flush,
// sitting in ms[:n] (slot i's bytes in the i-th MaxPacket piece of arena),
// and everything sending them needs.
type lane struct {
	ms      []mmsg
	n       int
	arena   []byte
	sb      packet.SerializeBuffer
	scratch ioScratch
	// done are the packets this lane has finished with since the last
	// flush, on their way back to the free list.
	done []*packet.Packet
}

// ingressValid marks a Packet.Ingress tag as this package's: below it sit
// the sender's IPv4 address (bits 16-47) and UDP port (bits 0-15). The
// socket is udp4, so the whole return address fits the tag, and a packet
// that did not come through Serve reads as "not ours".
const ingressValid = 1 << 63

func ingressTag(from netip.AddrPort) uint64 {
	a := from.Addr().Unmap().As4()
	return ingressValid | uint64(binary.BigEndian.Uint32(a[:]))<<16 | uint64(from.Port())
}

func ingressAddr(tag uint64) netip.AddrPort {
	var a [4]byte
	binary.BigEndian.PutUint32(a[:], uint32(tag>>16))
	return netip.AddrPortFrom(netip.AddrFrom4(a), uint16(tag))
}

// Listen binds the front end's socket. Serve starts the RX loop.
func Listen(cfg Config) (*Frontend, error) {
	cfg = cfg.withDefaults()
	addr, err := net.ResolveUDPAddr("udp4", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("udpio: %w", err)
	}
	pc, err := net.ListenUDP("udp4", addr)
	if err != nil {
		return nil, fmt.Errorf("udpio: %w", err)
	}
	// Deep socket buffers absorb sender bursts while the engine works off
	// a batch (the kernel clamps these to its configured maximums).
	_ = pc.SetReadBuffer(4 << 20)
	_ = pc.SetWriteBuffer(4 << 20)
	// The free list holds a few batches: enough for what a closed loop keeps
	// in flight; beyond it packets go to the collector and come back new.
	f := &Frontend{cfg: cfg, pc: pc, start: time.Now(), free: make([]*packet.Packet, 0, 8*cfg.Batch)}
	f.io, err = newSocketIO(pc, cfg, false)
	if err != nil {
		pc.Close()
		return nil, err
	}
	return f, nil
}

// Addr reports the socket's bound address (useful with ":0").
func (f *Frontend) Addr() netip.AddrPort {
	return f.pc.LocalAddr().(*net.UDPAddr).AddrPort()
}

// Deliver is the engine delivery callback: register it with
// WithDeliveries when opening the session Serve dispatches into. It runs
// wherever the packet was processed — on its worker, or on Serve's
// goroutine inside Dispatch (Serve holds no front-end lock there) — and
// finishes the packet's trip there: the echo is serialized into that
// worker's lane, and the lane is sent — one WriteBatch from this
// goroutine — once it is full or d.More says no further delivery is
// certain to follow, so nothing the engine queued before a barrier is
// still sitting here after it. A socket that cannot take the batch blocks
// the sender (backpressure, never a drop). After it returns the packet is
// the front end's again. Safe for concurrent use: workers call it in
// parallel, each on its own lane.
func (f *Frontend) Deliver(d engine.Delivery) {
	l := f.lane(d.Worker)
	switch tag := d.Pkt.Ingress; {
	case tag&ingressValid == 0:
		f.untracked.Add(1) // not from Serve: no address, and not ours to recycle
	case !d.Delivered:
		f.dropped.Add(1)
		l.done = append(l.done, d.Pkt)
	default:
		// The slot is capped to its MaxPacket piece of the arena, so an echo
		// the middlebox grew past that (tunlb adds a header) gets a buffer
		// of its own from append instead of being truncated.
		lo := l.n * f.cfg.MaxPacket
		slot := l.arena[lo : lo : lo+f.cfg.MaxPacket]
		l.ms[l.n] = mmsg{buf: append(slot, d.Pkt.SerializeTo(&l.sb)...), addr: ingressAddr(tag)}
		l.n++
		l.done = append(l.done, d.Pkt)
	}
	if l.n == len(l.ms) || !d.More {
		f.flush(l)
	}
}

// lane returns worker w's lane, creating it (and any below it) on first
// use.
func (f *Frontend) lane(w int) *lane {
	if t := f.lanes.Load(); t != nil && w < len(*t) {
		return (*t)[w]
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var t []*lane
	if old := f.lanes.Load(); old != nil {
		t = append(t, *old...)
	}
	for len(t) <= w {
		t = append(t, &lane{ms: make([]mmsg, f.cfg.Batch), arena: make([]byte, f.cfg.Batch*f.cfg.MaxPacket)})
	}
	f.lanes.Store(&t)
	return t[w]
}

// flush returns the lane's finished packets to the free list — first, so
// that whoever receives an echo and answers it finds the packet already
// back — and sends its echoes. Echoes the socket refuses — Serve has
// returned and closed it — are shed into Untracked.
func (f *Frontend) flush(l *lane) {
	if len(l.done) > 0 {
		f.mu.Lock()
		f.free = append(f.free, l.done[:min(len(l.done), cap(f.free)-len(f.free))]...)
		f.mu.Unlock()
		clear(l.done)
		l.done = l.done[:0]
	}
	if l.n > 0 {
		sent, _ := f.io.WriteBatch(l.ms[:l.n], &l.scratch)
		if sent > 0 {
			f.txBatches.Add(1)
			f.txDatagrams.Add(int64(sent))
		}
		f.untracked.Add(int64(l.n - sent))
		l.n = 0
	}
}

// Serve runs the RX loop until ctx is canceled or the socket is closed.
// Each datagram is decoded as one Ethernet frame and dispatched with a
// monotone arrival timestamp. Serve is terminal for the front end: it
// closes the socket on the way out, which also releases a worker blocked
// sending into it. A panic below it (decode, dispatch) is returned as an
// error, not raised.
func (f *Frontend) Serve(ctx context.Context, d Dispatcher) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("udpio: rx panicked: %v", r)
		}
		f.pc.Close()
	}()
	// Canceling ctx unblocks the blocking read by closing the socket —
	// cleaner than deadline juggling.
	stop := context.AfterFunc(ctx, func() { f.pc.Close() })
	defer stop()

	ms := make([]mmsg, f.cfg.Batch)
	// pkts are the packets drawn from the free list and not yet decoded
	// into; read holds the current read's decoded packets.
	pkts := make([]*packet.Packet, 0, f.cfg.Batch)
	read := make([]*packet.Packet, 0, f.cfg.Batch)
	for {
		n, err := f.io.ReadBatch(ms, time.Time{})
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return ctx.Err()
			}
			if isTimeout(err) {
				continue
			}
			return fmt.Errorf("udpio: read: %w", err)
		}
		f.rxBatches.Add(1)
		f.rxDatagrams.Add(int64(n))
		tNs := time.Since(f.start).Nanoseconds()
		pkts = f.draw(pkts, n)
		read = read[:0]
		for i := 0; i < n; i++ {
			pkt := pkts[len(pkts)-1]
			if ms[i].trunc || pkt.Decode(ms[i].buf, nil) != nil {
				f.decodeErrors.Add(1)
				continue // the packet stays drawn, for the next datagram
			}
			pkts = pkts[:len(pkts)-1]
			pkt.Ingress = ingressTag(ms[i].addr)
			read = append(read, pkt)
		}
		// Every packet but the read's last is marked: it joins its worker's
		// burst, and the last pushes every burst, one push per worker. A
		// packet alone in its read may run on this goroutine
		// (Engine.Dispatch).
		for i, pkt := range read {
			pkt.RxBurst = i < len(read)-1
			if _, err := d.Dispatch(tNs, pkt); err != nil {
				return fmt.Errorf("udpio: dispatch: %w", err)
			}
		}
	}
}

// draw tops pkts up to n packets: from the free list under one lock, new
// ones for the rest.
func (f *Frontend) draw(pkts []*packet.Packet, n int) []*packet.Packet {
	f.mu.Lock()
	if k := min(n-len(pkts), len(f.free)); k > 0 {
		keep := len(f.free) - k
		pkts = append(pkts, f.free[keep:]...)
		clear(f.free[keep:])
		f.free = f.free[:keep]
	}
	f.mu.Unlock()
	for len(pkts) < n {
		pkts = append(pkts, new(packet.Packet))
	}
	return pkts
}

// Stats snapshots the counters.
func (f *Frontend) Stats() Stats {
	return Stats{
		RxDatagrams:  f.rxDatagrams.Load(),
		RxBatches:    f.rxBatches.Load(),
		TxDatagrams:  f.txDatagrams.Load(),
		TxBatches:    f.txBatches.Load(),
		DecodeErrors: f.decodeErrors.Load(),
		Dropped:      f.dropped.Load(),
		Untracked:    f.untracked.Load(),
	}
}

// Close closes the socket (unblocking Serve).
func (f *Frontend) Close() error {
	return f.pc.Close()
}

// isTimeout reports whether err is a read deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Client is a connected batched UDP sender/receiver: the traffic side of
// the loopback tests and galliumsim -send. One goroutine may Recv while
// another Sends; neither method may run concurrently with itself.
type Client struct {
	pc  *net.UDPConn
	io  socketIO
	cfg Config
	// rx, tx and scratch are Recv's and Send's batch scratch, built once at
	// Dial; the receive buffers belong to the transport.
	rx, tx  []mmsg
	scratch ioScratch
}

// Dial connects a client to a front end.
func Dial(addr string, cfg Config) (*Client, error) {
	cfg = cfg.withDefaults()
	ra, err := net.ResolveUDPAddr("udp4", addr)
	if err != nil {
		return nil, fmt.Errorf("udpio: %w", err)
	}
	pc, err := net.DialUDP("udp4", nil, ra)
	if err != nil {
		return nil, fmt.Errorf("udpio: %w", err)
	}
	_ = pc.SetReadBuffer(4 << 20)
	_ = pc.SetWriteBuffer(4 << 20)
	c := &Client{pc: pc, cfg: cfg, rx: make([]mmsg, cfg.Batch), tx: make([]mmsg, cfg.Batch)}
	c.io, err = newSocketIO(pc, cfg, true)
	if err != nil {
		pc.Close()
		return nil, err
	}
	return c, nil
}

// Send ships the frames, batched sendmmsg-style.
func (c *Client) Send(frames [][]byte) error {
	for len(frames) > 0 {
		ms := c.tx[:min(len(frames), len(c.tx))]
		for i := range ms {
			ms[i].buf = frames[i]
		}
		_, err := c.io.WriteBatch(ms, &c.scratch)
		clear(ms) // the scratch must not pin the caller's frames
		if err != nil {
			return fmt.Errorf("udpio: send: %w", err)
		}
		frames = frames[len(ms):]
	}
	return nil
}

// Recv reads up to max datagrams, waiting at most timeout for the first
// batch (and returning early with what arrived). A timeout with zero
// datagrams returns an empty slice, not an error. The returned frames are
// copies the caller owns; the frames of one read batch share one backing
// array, each capped to its own bytes. A datagram longer than MaxPacket is
// dropped.
func (c *Client) Recv(max int, timeout time.Duration) ([][]byte, error) {
	deadline := time.Now().Add(timeout)
	ms := c.rx
	out := make([][]byte, 0, min(max, len(ms)))
	for len(out) < max && time.Now().Before(deadline) {
		n, err := c.io.ReadBatch(ms[:min(max-len(out), len(ms))], deadline)
		if err != nil {
			if isTimeout(err) {
				break
			}
			return out, fmt.Errorf("udpio: recv: %w", err)
		}
		size := 0
		for i := 0; i < n; i++ {
			size += len(ms[i].buf)
		}
		back := make([]byte, 0, size)
		for i := 0; i < n; i++ {
			if ms[i].trunc {
				continue
			}
			lo := len(back)
			back = append(back, ms[i].buf...)
			out = append(out, back[lo:len(back):len(back)])
		}
	}
	return out, nil
}

// Close closes the client socket.
func (c *Client) Close() error { return c.pc.Close() }
