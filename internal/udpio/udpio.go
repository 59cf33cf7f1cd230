// Package udpio is the engine's batched real-I/O front end: a UDP socket
// whose datagrams each carry one serialized Ethernet frame in the Gallium
// wire format. Reads and writes move in recvmmsg/sendmmsg-style batches —
// on Linux via the real syscalls on a nonblocking socket, elsewhere (or
// with Config.Generic) via a portable drain loop — so the per-datagram
// syscall cost is amortized exactly like the engine amortizes its
// output-commit barrier.
//
// The data path: Serve reads a batch of datagrams, decodes each into a
// packet, stamps its arrival time, and hands it to the Dispatcher
// (Session.Dispatch — the engine's streaming ingress, no settle barrier
// per datagram). The engine's delivery callback (Deliver, registered via
// WithDeliveries) serializes each surviving packet — headers rewritten by
// the middlebox — and echoes it to the source address of the flow's
// ingress datagrams, batched on a dedicated TX goroutine. Packets the
// middlebox dropped are counted, not echoed.
package udpio

import (
	"context"
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
	// MaxPacket is the per-datagram buffer size (<=0 means 2048). Frames
	// longer than this are truncated by the kernel and will fail to
	// decode.
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
	// RxDatagrams / RxBatches count ingress datagrams and the read
	// batches that carried them; TxDatagrams / TxBatches the same for
	// echoes.
	RxDatagrams int64
	RxBatches   int64
	TxDatagrams int64
	TxBatches   int64
	// DecodeErrors counts datagrams that were not valid Gallium frames.
	DecodeErrors int64
	// Dropped counts packets the middlebox dropped (no echo).
	Dropped int64
	// Untracked counts deliveries with no recorded source address
	// (engine traffic not injected through this front end).
	Untracked int64
}

// mmsg is one datagram in a batch: its buffer (len = datagram length
// after a read) and its peer address.
type mmsg struct {
	buf  []byte
	addr netip.AddrPort
}

// socketIO is the batched read/write contract the two transports
// implement. ReadBatch blocks until at least one datagram is available
// (or deadline passes; zero means block indefinitely), fills as many of
// ms as the socket can supply without blocking again, and returns the
// count. WriteBatch sends every message and returns the count sent.
// ReadBatch owns the socket's read deadline — callers pass theirs in
// rather than setting it on the conn.
type socketIO interface {
	ReadBatch(ms []mmsg, deadline time.Time) (int, error)
	WriteBatch(ms []mmsg) (int, error)
}

// Frontend is one bound UDP socket feeding one engine session.
type Frontend struct {
	cfg   Config
	pc    *net.UDPConn
	io    socketIO
	start time.Time

	// flows maps a packet's ingress five-tuple to the source address of
	// its datagrams, recorded before dispatch so the delivery callback —
	// which may fire from a worker goroutine before Dispatch even
	// returns — always finds it. Last writer wins per flow.
	mu    sync.Mutex
	flows map[packet.FiveTuple]netip.AddrPort

	// tx carries serialized echoes to the TX batching goroutine; done
	// (closed when Serve winds down) releases anything blocked on it. tx
	// itself is never closed — Deliver may race with shutdown.
	tx   chan mmsg
	done chan struct{}
	txWG sync.WaitGroup

	rxDatagrams, rxBatches atomic.Int64
	txDatagrams, txBatches atomic.Int64
	decodeErrors           atomic.Int64
	dropped, untracked     atomic.Int64
}

// Listen binds the front end's socket. Serve starts the loops.
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
	f := &Frontend{
		cfg:   cfg,
		pc:    pc,
		start: time.Now(),
		flows: make(map[packet.FiveTuple]netip.AddrPort),
		tx:    make(chan mmsg, 4*cfg.Batch),
		done:  make(chan struct{}),
	}
	f.io, err = newSocketIO(pc, cfg.Generic, false)
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
// WithDeliveries when opening the session Serve dispatches into. Safe
// for concurrent use (workers call it in parallel).
func (f *Frontend) Deliver(d engine.Delivery) {
	if !d.Delivered {
		f.dropped.Add(1)
		return
	}
	f.mu.Lock()
	addr, ok := f.flows[d.Flow]
	f.mu.Unlock()
	if !ok {
		f.untracked.Add(1)
		return
	}
	// A full TX backlog backpressures the worker — the same discipline as
	// the engine's other bounded queues — rather than dropping echoes. A
	// front end that is winding down sheds instead of blocking forever.
	select {
	case f.tx <- mmsg{buf: d.Pkt.Serialize(), addr: addr}:
	case <-f.done:
		f.untracked.Add(1)
	}
}

// Serve runs the RX loop (and the TX batching goroutine) until ctx is
// canceled or the socket is closed. Each datagram is decoded as one
// Ethernet frame and dispatched with a monotone arrival timestamp.
func (f *Frontend) Serve(ctx context.Context, d Dispatcher) error {
	f.txWG.Add(1)
	go f.txLoop()
	defer func() {
		close(f.done)
		f.txWG.Wait()
	}()

	// Unblock the blocking read when ctx is canceled by closing the
	// socket — cleaner than deadline juggling, and Serve is terminal for
	// the front end anyway.
	stop := context.AfterFunc(ctx, func() { f.pc.Close() })
	defer stop()

	ms := make([]mmsg, f.cfg.Batch)
	for i := range ms {
		ms[i].buf = make([]byte, f.cfg.MaxPacket)
	}
	for {
		for i := range ms {
			ms[i].buf = ms[i].buf[:cap(ms[i].buf)]
		}
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
		for i := 0; i < n; i++ {
			pkt, err := packet.DecodePacket(ms[i].buf, nil)
			if err != nil {
				f.decodeErrors.Add(1)
				continue
			}
			if flow, ok := pkt.Tuple(); ok {
				f.mu.Lock()
				f.flows[flow] = ms[i].addr
				f.mu.Unlock()
			}
			if _, err := d.Dispatch(tNs, pkt); err != nil {
				return fmt.Errorf("udpio: dispatch: %w", err)
			}
		}
	}
}

// txLoop batches echoes: one blocking receive, then a non-blocking drain
// up to the batch size — the write-side mirror of the engine's worker
// pull loop.
func (f *Frontend) txLoop() {
	defer f.txWG.Done()
	batch := make([]mmsg, 0, f.cfg.Batch)
	for {
		var m mmsg
		select {
		case m = <-f.tx:
		case <-f.done:
			// Winding down: flush whatever is already queued, then exit.
			select {
			case m = <-f.tx:
			default:
				return
			}
		}
		batch = append(batch[:0], m)
	drain:
		for len(batch) < cap(batch) {
			select {
			case m := <-f.tx:
				batch = append(batch, m)
			default:
				break drain
			}
		}
		if n, err := f.io.WriteBatch(batch); err == nil {
			f.txBatches.Add(1)
			f.txDatagrams.Add(int64(n))
		}
	}
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
	// rx (Batch buffers of MaxPacket bytes) and tx are Recv's and Send's
	// batch scratch, built once at Dial.
	rx, tx []mmsg
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
	bufs := make([]byte, cfg.Batch*cfg.MaxPacket)
	for i := range c.rx {
		c.rx[i].buf = bufs[i*cfg.MaxPacket : (i+1)*cfg.MaxPacket : (i+1)*cfg.MaxPacket]
	}
	c.io, err = newSocketIO(pc, cfg.Generic, true)
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
		_, err := c.io.WriteBatch(ms)
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
// copies the caller owns.
func (c *Client) Recv(max int, timeout time.Duration) ([][]byte, error) {
	deadline := time.Now().Add(timeout)
	ms := c.rx
	out := make([][]byte, 0, min(max, len(ms)))
	for len(out) < max && time.Now().Before(deadline) {
		for i := range ms {
			ms[i].buf = ms[i].buf[:cap(ms[i].buf)]
		}
		n, err := c.io.ReadBatch(ms[:min(max-len(out), len(ms))], deadline)
		if err != nil {
			if isTimeout(err) {
				break
			}
			return out, fmt.Errorf("udpio: recv: %w", err)
		}
		for i := 0; i < n; i++ {
			out = append(out, append([]byte(nil), ms[i].buf...))
		}
	}
	return out, nil
}

// Close closes the client socket.
func (c *Client) Close() error { return c.pc.Close() }
