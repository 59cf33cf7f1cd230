package udpio

import (
	"testing"
	"time"
)

// queuedIO is a transport with n datagrams always ready and no allocations
// of its own, so a measurement over it sees only what Client code allocates.
type queuedIO struct{ frame []byte }

func (q queuedIO) ReadBatch(ms []mmsg, _ time.Time) (int, error) {
	for i := range ms {
		ms[i].buf = ms[i].buf[:copy(ms[i].buf, q.frame)]
	}
	return len(ms), nil
}

func (q queuedIO) WriteBatch(ms []mmsg, _ *ioScratch) (int, error) { return len(ms), nil }

// TestClientScratchAllocs pins what Recv and Send allocate per call: Recv
// one backing array per read batch (the caller owns the frames cut from it)
// plus the slice that holds them, Send nothing. The receive buffers —
// Batch x MaxPacket bytes, 64 KiB at the defaults —, the batch headers and
// the transport's send scratch belong to the Client.
func TestClientScratchAllocs(t *testing.T) {
	cfg := Config{}.withDefaults()
	c := &Client{cfg: cfg, io: queuedIO{frame: make([]byte, 64)}, rx: newBatch(cfg.Batch, cfg.MaxPacket), tx: make([]mmsg, cfg.Batch)}
	const n = 48 // a batch and a half
	recv := testing.AllocsPerRun(20, func() {
		out, err := c.Recv(n, time.Second)
		if err != nil || len(out) != n || len(out[n-1]) != 64 {
			t.Fatalf("Recv returned %d of %d frames, err %v", len(out), n, err)
		}
	})
	// Two read batches, and the result slice starts at one batch and grows
	// once to reach 48.
	if recv > 5 {
		t.Errorf("Recv of %d datagrams allocated %.0f times, want at most 5", n, recv)
	}
	out, _ := c.Recv(2, time.Second)
	if len(out) != 2 || cap(out[0]) != 64 || &append(out[0], 0)[0] == &out[1][0] {
		t.Error("frames of one batch are not capped to their own bytes: an append to one would write into the next")
	}
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = make([]byte, 64)
	}
	if send := testing.AllocsPerRun(20, func() {
		if err := c.Send(frames); err != nil {
			t.Fatal(err)
		}
	}); send != 0 {
		t.Errorf("Send of %d frames allocated %.0f times, want 0", n, send)
	}
	for i := range c.tx {
		if c.tx[i].buf != nil {
			t.Fatalf("tx scratch slot %d still pins a caller's frame", i)
		}
	}
}
