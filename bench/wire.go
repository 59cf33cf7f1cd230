package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"gallium"
	"gallium/internal/ir"
	"gallium/internal/middleboxes"
	"gallium/internal/packet"
	"gallium/internal/udpio"
)

const (
	wireWindow    = 64 // frames in flight on the client connection
	wireChunk     = 32 // echoes awaited before the window is topped up
	wireRoundPkts = 16384
	wireTimeout   = 2 * time.Second
)

// dispatchTimer sits between the UDP front end and the session. While
// on is set it times every call into Session.Dispatch (a span around the
// call into the engine layer); otherwise it only forwards.
type dispatchTimer struct {
	sess     *gallium.Session
	on       atomic.Bool
	ns, call atomic.Int64
}

func (d *dispatchTimer) Dispatch(tNs int64, pkt *packet.Packet) (int64, error) {
	if !d.on.Load() {
		return d.sess.Dispatch(tNs, pkt)
	}
	t0 := time.Now()
	seq, err := d.sess.Dispatch(tNs, pkt)
	d.ns.Add(int64(time.Since(t0)))
	d.call.Add(1)
	return seq, err
}

// take returns the mean time per Dispatch since the last take.
func (d *dispatchTimer) take() float64 {
	n := d.call.Swap(0)
	ns := d.ns.Swap(0)
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n)
}

// wire is the established-flow NAT traffic of steady sent as UDP
// datagrams over the host's loopback interface: udpio.Listen ->
// Session.Dispatch -> Frontend.Deliver -> echo to a udpio.Dial client.
type wire struct {
	seed   int64
	nflows int
	tmpl   []flowTmpl
	first  [][]byte // each flow's first frame (warm pass)
	steady [][]byte // each flow's steady frame
	round  [][]byte

	art      *gallium.Artifacts
	sess     *gallium.Session
	disp     *dispatchTimer
	fe       *udpio.Frontend
	cl       *udpio.Client // windowed throughput connection
	one      *udpio.Client // one-frame-at-a-time latency connection
	cancel   context.CancelFunc
	serveErr chan error

	warmEchoes [][]byte
	expect     map[string]struct{} // the oracle's output frames
	cursor     int
	echoes     int64 // echoes received in the current round
	bad        int   // sampled echoes the oracle does not know
	loaded     []float64
	// load sums the front end's batch counters over the throughput
	// phases of traced rounds (the one-in-flight probes would pull the
	// batch means toward 1).
	load   udpio.Stats
	inputs uint64
}

func newWire(nflows int, seed int64) *wire {
	return &wire{seed: seed, nflows: nflows}
}

func (w *wire) prepare() {
	w.tmpl = buildFlows("mazunat", w.nflows, rand.New(rand.NewSource(w.seed)))
	for i := range w.tmpl {
		w.first = append(w.first, w.tmpl[i].first.Serialize())
		w.steady = append(w.steady, w.tmpl[i].steady.Serialize())
		w.inputs = digest(w.inputs, &w.tmpl[i].first)
	}
	w.round = make([][]byte, wireRoundPkts)
}

func (w *wire) setup() error {
	var err error
	if w.art, err = gallium.Compile(middleboxes.MazuNATSource, gallium.Options{}); err != nil {
		return err
	}
	if w.fe, err = udpio.Listen(udpio.Config{Addr: "127.0.0.1:0"}); err != nil {
		return err
	}
	seeded := false
	w.sess, err = gallium.Open(w.art, gallium.WithWorkers(1), gallium.WithDeliveries(w.fe.Deliver),
		gallium.WithState(func(_ int, st *ir.State) {
			if !seeded {
				seedState("mazunat", nil, st, 0, 1)
				seeded = true
			}
		}))
	if err != nil {
		return err
	}
	w.disp = &dispatchTimer{sess: w.sess}
	ctx, cancel := context.WithCancel(context.Background())
	w.cancel = cancel
	w.serveErr = make(chan error, 1)
	go func() { w.serveErr <- w.fe.Serve(ctx, w.disp) }()
	addr := w.fe.Addr().String()
	// The client's receive buffers are sized to these 64 B frames; the
	// client is the load generator, not the system under test.
	if w.cl, err = udpio.Dial(addr, udpio.Config{Batch: wireChunk, MaxPacket: 256}); err != nil {
		return err
	}
	if w.one, err = udpio.Dial(addr, udpio.Config{Batch: 1, MaxPacket: 256}); err != nil {
		return err
	}
	w.warmEchoes = make([][]byte, 0, len(w.first))
	if err := w.exchange(w.first, nil, func(e []byte) { w.warmEchoes = append(w.warmEchoes, e) }); err != nil {
		return err
	}
	return w.sess.Drain()
}

// exchange sends frames with wireWindow in flight and hands every echo
// to onEcho; a frame counts when its echo is back. sentAt, when non-nil,
// receives the send time of every frame (indexed like frames).
func (w *wire) exchange(frames [][]byte, sentAt []time.Time, onEcho func([]byte)) error {
	send := func(lo, hi int) error {
		if sentAt != nil {
			now := time.Now()
			for i := lo; i < hi; i++ {
				sentAt[i] = now
			}
		}
		return w.cl.Send(frames[lo:hi])
	}
	sent := min(wireWindow, len(frames))
	if err := send(0, sent); err != nil {
		return err
	}
	for got := 0; got < len(frames); {
		echoes, err := w.cl.Recv(min(wireChunk, len(frames)-got), wireTimeout)
		if err != nil {
			return err
		}
		if len(echoes) == 0 {
			return nil // lost echoes: the caller's count shows how many
		}
		for _, e := range echoes {
			onEcho(e)
		}
		got += len(echoes)
		n := min(len(echoes), len(frames)-sent)
		if err := send(sent, sent+n); err != nil {
			return err
		}
		sent += n
	}
	return nil
}

func (w *wire) verifyWarm() (attempted, failed int, err error) {
	o := &oracle{arts: []*gallium.Artifacts{w.art}, envs: make([]ir.Env, 1)}
	st := ir.NewState(w.art.Prog)
	seedState("mazunat", nil, st, 0, 1)
	o.states = []*ir.State{st}
	want := make(map[string]int, len(w.first))
	for i := range w.tmpl {
		out, err := o.exec(&w.tmpl[i].first)
		if err != nil {
			return 0, 0, err
		}
		if out != nil {
			want[string(out)]++
		}
		attempted++
	}
	// Byte for byte, as a multiset: UDP does not promise order.
	for _, e := range w.warmEchoes {
		if want[string(e)] > 0 {
			want[string(e)]--
		} else {
			failed++
		}
	}
	for _, n := range want {
		failed += n // lost echoes
	}
	w.expect = make(map[string]struct{}, len(w.tmpl))
	for i := range w.tmpl {
		out, err := o.exec(&w.tmpl[i].steady)
		if err != nil {
			return 0, 0, err
		}
		w.expect[string(out)] = struct{}{}
	}
	w.warmEchoes = nil
	return attempted, failed, nil
}

func (w *wire) prepareRound() {
	for i := range w.round {
		w.round[i] = w.steady[(w.cursor+i)%len(w.steady)]
	}
	w.cursor += len(w.round)
}

func (w *wire) runRound(trace bool) (float64, int, error) {
	var sentAt []time.Time
	if trace {
		sentAt = make([]time.Time, len(w.round))
	}
	w.echoes, w.bad = 0, 0
	w.disp.on.Store(trace)
	fe0 := w.fe.Stats()
	t0 := time.Now()
	err := w.exchange(w.round, sentAt, func(e []byte) {
		if w.echoes%checkStride == 0 {
			if _, ok := w.expect[string(e)]; !ok {
				w.bad++
			}
		}
		if trace && w.echoes%stampEvery == 0 {
			w.loaded = append(w.loaded, float64(time.Since(sentAt[w.echoes]))/1e3)
		}
		w.echoes++
	})
	el := time.Since(t0)
	if trace {
		fe := w.fe.Stats()
		w.load.RxDatagrams += fe.RxDatagrams - fe0.RxDatagrams
		w.load.RxBatches += fe.RxBatches - fe0.RxBatches
		w.load.TxDatagrams += fe.TxDatagrams - fe0.TxDatagrams
		w.load.TxBatches += fe.TxBatches - fe0.TxBatches
	}
	return float64(el) / float64(len(w.round)), len(w.round), err
}

func (w *wire) checkRound() int {
	return int(int64(len(w.round))-w.echoes) + w.bad
}

// probe is one frame in flight: Client.Send to Client.Recv of its echo.
func (w *wire) probe() (probeStats, int, error) {
	const n = minProbes
	lat := make([]float64, 0, n)
	w.disp.take()
	on := w.disp.on.Swap(true)
	defer w.disp.on.Store(on)
	for i := 0; i < n; i++ {
		frame := w.steady[(w.cursor+i)%len(w.steady)]
		t0 := time.Now()
		if err := w.one.Send([][]byte{frame}); err != nil {
			return probeStats{}, 0, err
		}
		echoes, err := w.one.Recv(1, wireTimeout)
		el := time.Since(t0)
		if err != nil {
			return probeStats{}, 0, err
		}
		if len(echoes) != 1 {
			return probeStats{}, 0, errors.New("wire: latency probe lost its echo")
		}
		if _, ok := w.expect[string(echoes[0])]; !ok {
			return probeStats{}, 0, errors.New("wire: latency probe echo differs from the oracle")
		}
		lat = append(lat, float64(el)/1e3)
	}
	w.cursor += n
	return probeStats{p50Us: median(lat), p99Us: quantile(lat, 0.99), dispatchNs: w.disp.take()}, n, nil
}

func (w *wire) counters() ([]counters, error) {
	c, err := sessionCounters(w.sess)
	return []counters{c}, err
}

func (w *wire) loadedLatencies() []float64 {
	out := w.loaded
	w.loaded = nil
	return out
}

func (w *wire) digest() uint64 { return w.inputs }

func (w *wire) dropWarm() { w.first, w.warmEchoes = nil, nil }

func (w *wire) release() {
	w.tmpl, w.first, w.steady, w.round, w.expect = nil, nil, nil, nil, nil
}

func (w *wire) close() error {
	if w.sess == nil || w.cancel == nil {
		return nil
	}
	w.cancel()
	err := <-w.serveErr
	if errors.Is(err, context.Canceled) {
		err = nil
	}
	w.cl.Close()
	w.one.Close()
	st := w.fe.Stats()
	if _, cerr := w.sess.Close(); err == nil {
		err = cerr
	}
	w.sess = nil
	if err == nil && (st.DecodeErrors != 0 || st.Untracked != 0) {
		err = fmt.Errorf("wire: front end saw %d decode errors, %d untracked deliveries", st.DecodeErrors, st.Untracked)
	}
	return err
}
