//go:build linux && amd64

package udpio

import (
	"net"
	"testing"
	"time"
)

// TestTransportBatchAllocs: over a real loopback pair, a steady-state
// sendmmsg or recvmmsg batch allocates nothing, in either socket's
// direction — the header, iovec and sockaddr arrays and the RawConn
// callback live in scratch the transport (RX) or the caller (TX) owns.
// They used to be made per batch: three slices and a closure, six
// allocations for ReadBatch alone.
func TestTransportBatchAllocs(t *testing.T) {
	const batch = 16
	srvConn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srvConn.Close()
	cliConn, err := net.DialUDP("udp4", nil, srvConn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer cliConn.Close()
	srv, err := newSocketIO(srvConn, false, false)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := newSocketIO(cliConn, false, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := srv.(*mmsgIO); !ok {
		t.Fatalf("transport is %T, want the mmsg one", srv)
	}

	out, in := newBatch(batch, 64), newBatch(batch, 256)
	var srvTx, cliTx ioScratch
	// move sends one batch from one socket and reads it whole at the other.
	move := func(from socketIO, scratch *ioScratch, to socketIO) {
		if n, err := from.WriteBatch(out, scratch); err != nil || n != batch {
			t.Fatalf("WriteBatch sent %d of %d: %v", n, batch, err)
		}
		for got := 0; got < batch; {
			for i := range in {
				in[i].buf = in[i].buf[:cap(in[i].buf)]
			}
			n, err := to.ReadBatch(in[:batch-got], time.Now().Add(5*time.Second))
			if err != nil {
				t.Fatalf("ReadBatch after %d of %d: %v", got, batch, err)
			}
			if len(in[0].buf) != 64 {
				t.Fatalf("datagram of %d bytes, want 64", len(in[0].buf))
			}
			got += n
		}
	}
	move(cli, &cliTx, srv) // learns the client's address, sizes the scratch
	for i := range out {
		out[i].addr = in[0].addr
	}
	move(srv, &srvTx, cli)
	// The deadline's time.Now is the test's; it does not allocate.
	if a := testing.AllocsPerRun(50, func() { move(cli, &cliTx, srv) }); a != 0 {
		t.Errorf("connected WriteBatch + unconnected ReadBatch allocate %.1f times per batch, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() { move(srv, &srvTx, cli) }); a != 0 {
		t.Errorf("unconnected WriteBatch + connected ReadBatch allocate %.1f times per batch, want 0", a)
	}
}
