package switchsim

import (
	"strings"
	"testing"

	"gallium/internal/ir"
	"gallium/internal/middleboxes"
	"gallium/internal/obs"
	"gallium/internal/packet"
)

// emulateServer turns a slow-path MiniLB packet around the way the server
// would: strip gallium_a, attach gallium_b carrying the chosen backend.
func emulateServer(t *testing.T, sw *Switch, pkt *packet.Packet, backend uint64) {
	t.Helper()
	res := sw.Res
	pkt.StripGallium()
	pkt.AttachGallium(res.FormatB)
	for _, v := range res.TransferB {
		var val uint64
		if strings.Contains(v.Name, "_ok") {
			val = 0 // miss path: the post pass takes the server's backend
		} else {
			val = backend
		}
		setHeaderField(t, res.FormatB, pkt.GalData, v.Name, val)
	}
}

// setHeaderField and headerField write and read one named field of a
// transfer header's data area through a one-field codec.
func setHeaderField(t *testing.T, f *packet.HeaderFormat, data []byte, name string, v uint64) {
	t.Helper()
	c, err := packet.NewCodec(f, []packet.Bind{{Field: name}}, 1)
	if err == nil {
		err = c.Pack(data, []uint64{v})
	}
	if err != nil {
		t.Fatal(err)
	}
}

func headerField(t *testing.T, f *packet.HeaderFormat, data []byte, name string) uint64 {
	t.Helper()
	c, err := packet.NewCodec(f, []packet.Bind{{Field: name}}, 1)
	v := []uint64{0}
	if err == nil {
		err = c.Unpack(data, v)
	}
	if err != nil {
		t.Fatal(err)
	}
	return v[0]
}

func buildFlow(host byte) *packet.Packet {
	return packet.BuildTCP(packet.MakeIPv4Addr(1, 2, 3, host), packet.MakeIPv4Addr(9, 9, 9, 9), 1000, 80, packet.TCPOptions{})
}

// TestPostPassDuringStaleReadWindow interleaves the data plane with the
// §4.3.3 control-plane protocol: while a connection's entry is staged but
// not yet flipped, other packets of the flow still read the OLD table
// state (the stale-read window output commit protects against), and the
// held packet's post pass completes normally. After the flip the entry is
// served on the fast path.
func TestPostPassDuringStaleReadWindow(t *testing.T) {
	res := compileMB(t, "minilb")
	sw := New(res)
	reg := obs.NewRegistry()
	sw.Instrument(reg)
	if err := sw.LoadVector("backends", middleboxes.Backends); err != nil {
		t.Fatal(err)
	}

	// Packet 1 misses and is sent to the server.
	p1 := buildFlow(4)
	pre, err := sw.ProcessPreShard(p1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Action != ir.ActionNext {
		t.Fatalf("pre action = %v, want next", pre.Action)
	}

	// The server picks a backend and stages the connection entry. The
	// entry must NOT be visible yet: packet 2 of the same flow arrives
	// inside the stale-read window and must also miss (it will be handled
	// by the server too, which is exactly why output commit holds p1).
	key := ir.MakeMapKey(uint64(packet.MakeIPv4Addr(1, 2, 3, 4)^packet.MakeIPv4Addr(9, 9, 9, 9)) & 0xFFFF)
	backend := middleboxes.Backends[2]
	if err := sw.StageShard(0, Update{Table: "conn", Key: key, Vals: []uint64{backend}}); err != nil {
		t.Fatal(err)
	}
	p2 := buildFlow(4)
	pre2, err := sw.ProcessPreShard(p2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pre2.Action != ir.ActionNext {
		t.Fatalf("staged entry leaked into the data plane before flip: %v", pre2.Action)
	}

	// The held packet's post pass runs against the same pipeline while
	// the update is still staged; it must succeed and use the
	// server-supplied backend, not the staged table.
	emulateServer(t, sw, p1, backend)
	post, err := sw.ProcessPostShard(p1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if post.Action != ir.ActionSent || uint64(p1.IP.DstIP) != backend {
		t.Fatalf("post: action=%v daddr=%v, want sent/%d", post.Action, p1.IP.DstIP, backend)
	}

	// Flip: the next packets of the flow take the fast path.
	sw.FlipShard(0)
	for i := 0; i < 2; i++ {
		p := buildFlow(4)
		pre, err := sw.ProcessPreShard(p, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if pre.Action != ir.ActionSent || uint64(p.IP.DstIP) != backend {
			t.Fatalf("read after flip: action=%v daddr=%v", pre.Action, p.IP.DstIP)
		}
	}

	snap := reg.Snapshot()
	if got := snap.Counters["switch.table.conn.lookups"]; got != 4 {
		t.Errorf("lookups = %d, want 4", got)
	}
	if got := snap.Counters["switch.table.conn.hits"]; got != 2 {
		t.Errorf("hits = %d, want 2 (both reads after the flip)", got)
	}
	if got := snap.Counters["switch.table.conn.misses"]; got != 2 {
		t.Errorf("misses = %d, want 2 (initial + stale window)", got)
	}
	if got := snap.Counters["switch.post.packets"]; got != 1 {
		t.Errorf("post packets = %d, want 1", got)
	}
	if snap.Gauges["switch.table.conn.entries"] != 1 {
		t.Errorf("entries gauge = %d, want 1", snap.Gauges["switch.table.conn.entries"])
	}
}

// TestPostPassStagedDeletionWindow covers the deletion side: a staged
// deletion is invisible until the flip (stale reads still hit), then the
// entry is gone — while post passes keep flowing.
func TestPostPassStagedDeletionWindow(t *testing.T) {
	res := compileMB(t, "minilb")
	sw := New(res)
	if err := sw.LoadVector("backends", middleboxes.Backends); err != nil {
		t.Fatal(err)
	}
	key := ir.MakeMapKey(uint64(packet.MakeIPv4Addr(1, 2, 3, 4)^packet.MakeIPv4Addr(9, 9, 9, 9)) & 0xFFFF)
	backend := middleboxes.Backends[0]

	// Install the entry through the full protocol.
	install(t, sw, Update{Table: "conn", Key: key, Vals: []uint64{backend}})

	// Stage a deletion: until the flip, the flow still takes the fast
	// path (the stale window, in the deleting direction).
	if err := sw.StageShard(0, Update{Table: "conn", Key: key, Delete: true}); err != nil {
		t.Fatal(err)
	}
	p1 := buildFlow(4)
	pre1, err := sw.ProcessPreShard(p1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pre1.Action != ir.ActionSent {
		t.Fatalf("staged deletion visible before flip: %v", pre1.Action)
	}

	// After the flip the flow misses and goes back to the server; its
	// post pass still completes.
	sw.FlipShard(0)
	p2 := buildFlow(4)
	pre2, err := sw.ProcessPreShard(p2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pre2.Action != ir.ActionNext {
		t.Fatalf("flipped deletion not observed: %v", pre2.Action)
	}
	emulateServer(t, sw, p2, backend)
	post, err := sw.ProcessPostShard(p2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if post.Action != ir.ActionSent {
		t.Fatalf("post after deletion flip: %v", post.Action)
	}

	tbl, _ := sw.Table("conn")
	if _, ok := tbl.Lookup(key); ok {
		t.Fatal("deleted entry survived the flip")
	}
	if tbl.Len() != 0 {
		t.Fatalf("table len = %d after the deletion flipped", tbl.Len())
	}
}
