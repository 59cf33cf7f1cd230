package switchsim

import (
	"strings"
	"testing"

	"gallium/internal/ir"
	"gallium/internal/packet"
)

// Malformed control-plane input is a staging error, never a data-plane
// panic. Both tests replay an input that used to be accepted and then
// panicked the first pass that met it.

// TestStageRejectsMalformedEntries: a nat_rev entry with one value where
// the table declares two used to stage, flip, and then index out of range
// in the reverse-direction packet's MapFind. Every path an entry can take
// into a table — insert, Replace, and the server state SeedFrom reads —
// checks key and value arity against the global's declaration.
func TestStageRejectsMalformedEntries(t *testing.T) {
	res := compileMB(t, "mazunat")
	sw := New(res)
	good := Update{Table: "nat_rev", Key: ir.MakeMapKey(4000), Vals: []uint64{1, 2}}
	for _, c := range []struct {
		name string
		u    Update
		want string
	}{
		{"short value tuple", Update{Table: "nat_rev", Key: ir.MakeMapKey(4000), Vals: []uint64{1}}, "1 values, declared 2"},
		{"long value tuple", Update{Table: "nat_rev", Key: ir.MakeMapKey(4000), Vals: []uint64{1, 2, 3}}, "3 values, declared 2"},
		{"wide key", Update{Table: "nat_rev", Key: ir.MakeMapKey(4000, 1), Vals: []uint64{1, 2}}, "2 components, declared 1"},
		{"narrow key", Update{Table: "nat_fwd", Key: ir.MakeMapKey(1), Vals: []uint64{1}}, "1 components, declared 2"},
		{"delete by a wide key", Update{Table: "nat_rev", Key: ir.MakeMapKey(4000, 1), Delete: true}, "2 components, declared 1"},
		{"replacement with a short tuple", Update{Table: "nat_rev", Replace: true,
			Entries: map[ir.MapKey][]uint64{good.Key: good.Vals, ir.MakeMapKey(4001): {1}}}, "1 values, declared 2"},
		{"replacement with a wide key", Update{Table: "nat_rev", Replace: true,
			Entries: map[ir.MapKey][]uint64{ir.MakeMapKey(1, 2): {1, 2}}}, "2 components, declared 1"},
	} {
		err := sw.StageShard(0, c.u)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
	}
	// The server's state cannot hold a malformed entry to seed from: its
	// tables take their widths from the same declaration.
	st := ir.NewState(res.Prog)
	if err := st.MapInsert("nat_rev", ir.MakeMapKey(4000), []uint64{1}); err == nil || !strings.Contains(err.Error(), "1 value words, declared 1 and 2") {
		t.Errorf("state insert of a short tuple: err = %v, want the arity error", err)
	}
	sw.FlipShard(0)
	if ep := sw.Epoch(); ep != 1 {
		t.Errorf("refused stages left something to flip (epoch %d)", ep)
	}

	// The reverse-direction packet that used to panic now simply misses,
	// and hits once the well-formed entry is in.
	reverse := func() PreResult {
		pkt := packet.BuildTCP(packet.MakeIPv4Addr(93, 184, 216, 34), packet.MakeIPv4Addr(203, 0, 113, 1), 80, 4000, packet.TCPOptions{})
		pre, err := sw.ProcessPreShard(pkt, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return pre
	}
	if pre := reverse(); pre.Action != ir.ActionDropped {
		t.Errorf("reverse packet with no mapping: %v, want dropped", pre.Action)
	}
	install(t, sw, good)
	if pre := reverse(); pre.Action != ir.ActionSent {
		t.Errorf("reverse packet with a mapping: %v, want sent", pre.Action)
	}
}

// TestLoadLPMRejectsMalformedRoutes: a /40 on a 32-bit key used to load
// and then shift by a negative amount in the first packet's LpmFind.
func TestLoadLPMRejectsMalformedRoutes(t *testing.T) {
	sw := New(compileMB(t, "ipgateway"))
	hop := []uint64{uint64(packet.MakeIPv4Addr(192, 168, 0, 1))}
	for _, c := range []struct {
		name string
		e    ir.LpmEntry
		want string
	}{
		{"prefix longer than the key", ir.LpmEntry{PrefixLen: 40, Vals: hop}, "outside 0..32"},
		{"negative prefix", ir.LpmEntry{PrefixLen: -1, Vals: hop}, "outside 0..32"},
		{"no value", ir.LpmEntry{PrefixLen: 8}, "0 values, declared 1"},
		{"two values", ir.LpmEntry{PrefixLen: 8, Vals: []uint64{1, 2}}, "2 values, declared 1"},
	} {
		err := sw.LoadLPM("routes", []ir.LpmEntry{{PrefixLen: 0, Vals: hop}, c.e})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
	}
	if ep := sw.Epoch(); ep != 1 {
		t.Errorf("a refused load published a view (epoch %d)", ep)
	}
	if err := sw.LoadLPM("routes", []ir.LpmEntry{{PrefixLen: 0, Vals: hop}, {Key: 10 << 24, PrefixLen: 32, Vals: hop}}); err != nil {
		t.Fatalf("well-formed routes, /0 and /32 included: %v", err)
	}
	pkt := packet.BuildTCP(packet.MakeIPv4Addr(10, 0, 0, 1), packet.MakeIPv4Addr(9, 9, 9, 9), 1000, 80, packet.TCPOptions{})
	if _, err := sw.ProcessPreShard(pkt, 0, nil); err != nil {
		t.Fatal(err)
	}
}
