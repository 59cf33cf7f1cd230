package ctlplane_test

import (
	"encoding/json"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	gallium "gallium"
	"gallium/internal/ctlplane"
	"gallium/internal/engine"
	"gallium/internal/flowstate"
	"gallium/internal/ir"
	"gallium/internal/obs"
	"gallium/internal/packet"
	"gallium/internal/serverrt"
	"gallium/internal/switchsim"
)

// targetFor compiles a builtin middlebox into an offloaded pipeline stage.
func targetFor(t *testing.T, name string) engine.StageConfig {
	t.Helper()
	art, err := gallium.CompileBuiltin(name, gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return engine.StageConfig{Name: art.Name, Res: art.Res}
}

// freshState builds an initialized server shard state for the stage.
func freshState(t *testing.T, tg engine.StageConfig) *ir.State {
	t.Helper()
	return serverrt.New(tg.Res).State
}

func tuple(a, b, c, d byte, sport, dport uint16) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP: packet.MakeIPv4Addr(a, b, c, d), DstIP: packet.MakeIPv4Addr(198, 51, 100, 7),
		SrcPort: sport, DstPort: dport, Proto: packet.IPProtocolTCP,
	}
}

// TestCompileValidation: every typed op rejects a target whose compiled
// program lacks the state the op manipulates, with an error naming the
// mismatch.
func TestCompileValidation(t *testing.T) {
	firewall := targetFor(t, "firewall")
	l4lb := targetFor(t, "l4lb")
	mazunat := targetFor(t, "mazunat")
	cases := []struct {
		name    string
		op      ctlplane.Op
		tg      engine.StageConfig
		wantErr string
	}{
		{"swap-on-lb", ctlplane.FirewallRuleSwap{}, l4lb, "not a whitelist firewall"},
		{"pool-on-firewall", ctlplane.LBPoolChange{Backends: []ctlplane.Backend{{Addr: 1, Weight: 1}}}, firewall, "not a load balancer"},
		{"pool-negative-weight", ctlplane.LBPoolChange{Backends: []ctlplane.Backend{{Addr: 1, Weight: -1}}}, l4lb, "negative weight"},
		{"pool-empty", ctlplane.LBPoolChange{}, l4lb, "no backend with positive weight"},
		{"pool-all-zero-weights", ctlplane.LBPoolChange{Backends: []ctlplane.Backend{{Addr: 1, Weight: 0}}}, l4lb, "no backend with positive weight"},
		{"repartition-on-firewall", ctlplane.NATRepartition{}, firewall, "not a NAT"},
		{"repartition-base-count", ctlplane.NATRepartition{Bases: []uint16{0, 100}}, mazunat, "2 port bases for 4 shards"},
		{"replace-unknown-table", ctlplane.TableReplace{Table: "no_such"}, firewall, `no map "no_such"`},
		{"replace-bad-arity", ctlplane.TableReplace{
			Table:   "wl_out",
			Entries: map[ir.MapKey][]uint64{ir.MakeMapKey(1, 2): {1}},
		}, firewall, "key arity"},
		{"replace-bad-width", ctlplane.TableReplace{
			Table:   "wl_out",
			Entries: map[ir.MapKey][]uint64{ir.MakeMapKey(1, 2, 3, 4, 6): {1, 2}},
		}, firewall, `2 values do not match "wl_out"'s 1-part value`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ctlplane.Compile(tc.op, []engine.StageConfig{tc.tg}, 4)
			if err == nil {
				t.Fatalf("Compile accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestCompileStageRange: out-of-range stage addressing fails before op
// validation runs.
func TestCompileStageRange(t *testing.T) {
	fw := targetFor(t, "firewall")
	for _, stage := range []int{-1, 1, 7} {
		_, err := ctlplane.Compile(ctlplane.FirewallRuleSwap{At: stage}, []engine.StageConfig{fw}, 1)
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("stage %d: got %v, want out-of-range error", stage, err)
		}
	}
}

// TestFirewallSwapLowering: rules split by direction, both tables replaced
// in the switch updates, and the mutation installs fresh map copies on
// every shard.
func TestFirewallSwapLowering(t *testing.T) {
	fw := targetFor(t, "firewall")
	out := tuple(10, 0, 0, 1, 1000, 80)     // 10/8 source: outbound
	in := tuple(203, 0, 113, 50, 443, 1000) // external source: inbound
	r, err := ctlplane.Compile(ctlplane.FirewallRuleSwap{Rules: []packet.FiveTuple{out, in}}, []engine.StageConfig{fw}, 2)
	if err != nil {
		t.Fatal(err)
	}
	replaced := map[string]int{}
	for _, u := range r.Updates {
		if !u.Replace {
			t.Errorf("update for %q is not a whole-table replace", u.Table)
		}
		replaced[u.Table] = len(u.Entries)
	}
	if replaced["wl_out"] != 1 || replaced["wl_in"] != 1 {
		t.Errorf("switch updates = %v, want one rule in each direction table", replaced)
	}
	// The mutation rewrites every shard's maps with independent copies.
	st0, st1 := freshState(t, fw), freshState(t, fw)
	r.Mutate(0, st0)
	r.Mutate(1, st1)
	if st0.Table("wl_out").Len() != 1 || st0.Table("wl_in").Len() != 1 {
		t.Fatalf("shard 0 maps after swap: out=%d in=%d", st0.Table("wl_out").Len(), st0.Table("wl_in").Len())
	}
	out0 := st0.Table("wl_out")
	out0.Range(func(e int32) bool {
		out0.Vals(e)[0] = 99
		return true
	})
	out1 := st1.Table("wl_out")
	out1.Range(func(e int32) bool {
		if out1.Vals(e)[0] == 99 {
			t.Error("shards share whitelist storage; mutation must install fresh copies")
		}
		return true
	})
}

// TestLBPoolLoweringWeights: weights expand into the vector by
// repetition, and purge semantics follow Drain.
func TestLBPoolLoweringWeights(t *testing.T) {
	lb := targetFor(t, "l4lb")
	op := ctlplane.LBPoolChange{
		Backends: []ctlplane.Backend{{Addr: 7, Weight: 2}, {Addr: 9, Weight: 1}},
	}
	r, err := ctlplane.Compile(op, []engine.StageConfig{lb}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Updates) != 1 || r.Updates[0].Vec != "backends" {
		t.Fatalf("updates = %+v, want one backends vector flip", r.Updates)
	}
	want := []uint64{7, 7, 9}
	if got := r.Updates[0].VecVals; len(got) != 3 || got[0] != 7 || got[1] != 7 || got[2] != 9 {
		t.Errorf("weighted vector = %v, want %v", got, want)
	}
	// Without drain, connections pinned to absent backends are purged.
	st := freshState(t, lb)
	gone := ir.MakeMapKey(1, 2, 3, 4, 6)
	kept := ir.MakeMapKey(5, 6, 7, 8, 6)
	st.MapInsert("conns", gone, []uint64{42})
	st.MapInsert("conns", kept, []uint64{7})
	r.Mutate(0, st)
	if _, ok := st.MapFind("conns", gone); ok {
		t.Error("connection on removed backend survived a non-draining pool change")
	}
	if _, ok := st.MapFind("conns", kept); !ok {
		t.Error("connection on kept backend was purged")
	}

	// With drain, both survive.
	op.Drain = true
	r, err = ctlplane.Compile(op, []engine.StageConfig{lb}, 1)
	if err != nil {
		t.Fatal(err)
	}
	st = freshState(t, lb)
	st.MapInsert("conns", gone, []uint64{42})
	st.MapInsert("conns", kept, []uint64{7})
	r.Mutate(0, st)
	if st.Table("conns").Len() != 2 {
		t.Errorf("draining change left %d connections, want 2", st.Table("conns").Len())
	}
}

// TestNATRepartitionEvenSplit: nil Bases means an even split of the
// 16-bit port space across shards.
func TestNATRepartitionEvenSplit(t *testing.T) {
	nat := targetFor(t, "mazunat")
	const workers = 4
	r, err := ctlplane.Compile(ctlplane.NATRepartition{}, []engine.StageConfig{nat}, workers)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Updates) != 0 {
		t.Errorf("repartition emitted switch updates %v; the allocator is server-only", r.Updates)
	}
	for shard := 0; shard < workers; shard++ {
		st := freshState(t, nat)
		r.Mutate(shard, st)
		if got, want := st.Globals["next_port"], uint64(shard*16384); got != want {
			t.Errorf("shard %d allocator base = %d, want %d", shard, got, want)
		}
	}
}

// TestToOp covers the wire-to-typed lowering: stage-name resolution and
// unknown operations.
func TestToOp(t *testing.T) {
	names := []string{"firewall", "mazunat", "l4lb"}

	rule := tuple(10, 1, 2, 3, 1, 2)
	op, err := ctlplane.Request{
		Op: ctlplane.OpFirewallSwap, Stage: 2, StageName: "firewall",
		Rules: []packet.FiveTuple{rule},
	}.ToOp(names)
	if err != nil {
		t.Fatal(err)
	}
	swap, ok := op.(ctlplane.FirewallRuleSwap)
	if !ok || swap.Stage() != 0 {
		t.Errorf("stage name must win over index: got %T stage %d", op, op.Stage())
	}
	if len(swap.Rules) != 1 || swap.Rules[0] != rule {
		t.Errorf("lowered rules: %+v", swap.Rules)
	}

	lbop, err := ctlplane.Request{
		Op: ctlplane.OpLBPool, StageName: "l4lb",
		Backends: []ctlplane.Backend{{Addr: packet.MakeIPv4Addr(10, 0, 1, 1), Weight: 3}},
		Drain:    true,
	}.ToOp(names)
	if err != nil {
		t.Fatal(err)
	}
	pool := lbop.(ctlplane.LBPoolChange)
	if pool.Stage() != 2 || !pool.Drain || pool.Backends[0].Weight != 3 {
		t.Errorf("lowered pool change: %+v", pool)
	}

	if _, err := (ctlplane.Request{Op: ctlplane.OpFirewallSwap, StageName: "nope"}).ToOp(names); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("unknown stage name: %v", err)
	}
	if _, err := (ctlplane.Request{Op: "reboot"}).ToOp(names); err == nil || !strings.Contains(err.Error(), "unknown operation") {
		t.Errorf("unknown op: %v", err)
	}
	if _, err := (ctlplane.Request{Op: ctlplane.OpNATRepartition, Stage: 1, Bases: []uint16{1, 2}}).ToOp(names); err != nil {
		t.Errorf("repartition lowering: %v", err)
	}
}

// TestWireFormDecodes: request lines in the protocol's JSON form decode to
// the typed ops they name, and a malformed address or policy fails the
// decode itself, before any op exists.
func TestWireFormDecodes(t *testing.T) {
	names := []string{"firewall", "mazunat", "l4lb"}
	for _, tc := range []struct {
		line string
		want ctlplane.Op
	}{
		{`{"op":"firewall-swap","stage_name":"firewall","rules":[{"src":"10.1.2.3","dst":"8.8.8.8","sport":1,"dport":2,"proto":6}]}`,
			ctlplane.FirewallRuleSwap{Rules: []packet.FiveTuple{{
				SrcIP: packet.MakeIPv4Addr(10, 1, 2, 3), DstIP: packet.MakeIPv4Addr(8, 8, 8, 8),
				SrcPort: 1, DstPort: 2, Proto: packet.IPProtocolTCP,
			}}}},
		{`{"op":"lb-pool","stage":2,"backends":[{"addr":"10.0.1.1","weight":2},{"addr":"10.0.1.2","weight":1}],"drain":true}`,
			ctlplane.LBPoolChange{At: 2, Drain: true, Backends: []ctlplane.Backend{
				{Addr: packet.MakeIPv4Addr(10, 0, 1, 1), Weight: 2}, {Addr: packet.MakeIPv4Addr(10, 0, 1, 2), Weight: 1},
			}}},
		{`{"op":"nat-repartition","stage_name":"mazunat","bases":[1024,17408]}`,
			ctlplane.NATRepartition{At: 1, Bases: []uint16{1024, 17408}}},
		{`{"op":"flow-table","flow_table":{"capacity":4096,"tcp_syn_ns":2000000000,"tcp_established_ns":600000000000,"tcp_fin_ns":5000000000,"udp_ns":20000000000,"evict_policy":"none"}}`,
			ctlplane.FlowTableUpdate{Table: flowstate.Config{
				Capacity:    4096,
				TCPTimeouts: flowstate.TCPTimeouts{Syn: 2 * time.Second, Established: 10 * time.Minute, Fin: 5 * time.Second},
				UDPTimeout:  20 * time.Second, EvictPolicy: flowstate.EvictNone,
			}}},
		{`{"op":"flow-table","flow_table":{"capacity":64,"evict_policy":""}}`,
			ctlplane.FlowTableUpdate{Table: flowstate.Config{Capacity: 64}}},
	} {
		var req ctlplane.Request
		if err := json.Unmarshal([]byte(tc.line), &req); err != nil {
			t.Fatalf("%s: %v", tc.line, err)
		}
		op, err := req.ToOp(names)
		if err != nil {
			t.Fatalf("%s: %v", tc.line, err)
		}
		if !reflect.DeepEqual(op, tc.want) {
			t.Errorf("%s lowered to %+v, want %+v", tc.line, op, tc.want)
		}
	}
	for _, line := range []string{
		`{"op":"firewall-swap","rules":[{"src":"not-an-ip","dst":"1.2.3.4"}]}`,
		`{"op":"lb-pool","backends":[{"addr":"10.0.1.256","weight":1}]}`,
		`{"op":"flow-table","flow_table":{"capacity":10,"evict_policy":"fifo"}}`,
	} {
		var req ctlplane.Request
		if err := json.Unmarshal([]byte(line), &req); err == nil {
			t.Errorf("%s decoded to %+v", line, req)
		}
	}
}

// fakeRuntime records the ops the server hands it.
type fakeRuntime struct {
	mu       sync.Mutex
	ops      []ctlplane.Op
	applyErr error
}

func (f *fakeRuntime) Reconfigure(op ctlplane.Op) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.applyErr != nil {
		return f.applyErr
	}
	f.ops = append(f.ops, op)
	return nil
}

func (f *fakeRuntime) Stats() (*engine.Report, error) { return testReport(), nil }

// testReport is a stats payload with every field of a real one filled
// (per-worker counts, mean pulls, a bucketed latency histogram, flow-table
// gauges, per-stage table sizes), so the server's encoder carries them all.
func testReport() *engine.Report {
	w := engine.Stats{
		Injected: 21, Delivered: 20, MBDrops: 1, FastPath: 19, SlowPath: 2,
		BytesIn: 10500, BytesOut: 10000, ServerCycles: 3156.5,
		CtlBatches: 1, CtlOps: 2, CtlRejected: 1, FirstDeliverNs: 100, LastDeliverNs: 9000,
	}
	agg := w
	agg.Injected, agg.Delivered, agg.MBDrops = 42, 40, 2
	return &engine.Report{
		Stats: agg, PerWorker: []engine.Stats{w, w}, Workers: 2,
		WallNs: 5_000_000, PPS: 8400.25,
		Latency: obs.HistSnapshot{
			Count: 40, Sum: 720_000, Min: 9_000, Max: 40_000, Mean: 18_000,
			P50: 17_500, P95: 30_000, P99: 39_000,
			Buckets: []obs.Bucket{{UpperBound: 16_384, Count: 10}, {UpperBound: 32_768, Count: 28}, {UpperBound: 65_536, Count: 2}},
		},
		StageNames: []string{"firewall", "l4lb"},
		SwitchStages: []switchsim.Stats{
			{PrePackets: 42, PostPackets: 40, FastPath: 38, ToServer: 4, CtlOps: 2, CtlFlips: 1, Epoch: 3,
				TableEntries: map[string]int{"wl_in": 0, "wl_out": 10}},
			{PrePackets: 40, FastPath: 36, ToServer: 4, Punts: 1, Evictions: 2, Drops: 1, Expired: 3, Reconfigs: 1, Epoch: 5,
				TableEntries: map[string]int{"conns": 4}},
		},
		Reconfigs:  1,
		BatchSizes: []float64{1.5, 2.25},
		Flow:       &flowstate.Stats{Capacity: 1024, Occupancy: 700, Peak: 900, Expired: 55, Evicted: 7},
	}
}

func (f *fakeRuntime) StageNames() []string { return []string{"firewall", "l4lb"} }

// TestServerClientRoundTrip drives the unix-socket protocol end to end
// against a fake runtime: ping, stats, a typed op, error surfacing, and a
// malformed request line.
func TestServerClientRoundTrip(t *testing.T) {
	rt := &fakeRuntime{}
	srv := ctlplane.NewServer(rt)
	sock := t.TempDir() + "/ctl.sock"
	if err := srv.Listen(sock); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := ctlplane.Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Do(ctlplane.Request{Op: ctlplane.OpPing}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(ctlplane.Request{Op: ctlplane.OpStats})
	if err != nil {
		t.Fatal(err)
	}
	if want := testReport(); !reflect.DeepEqual(resp.Stats, want) {
		t.Fatalf("stats round trip:\n got %+v\nwant %+v", resp.Stats, want)
	}
	if _, err := c.Do(ctlplane.Request{
		Op: ctlplane.OpLBPool, StageName: "l4lb",
		Backends: []ctlplane.Backend{{Addr: packet.MakeIPv4Addr(10, 0, 1, 1), Weight: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	rt.mu.Lock()
	if len(rt.ops) != 1 {
		t.Fatalf("runtime saw %d ops, want 1", len(rt.ops))
	}
	if pool, ok := rt.ops[0].(ctlplane.LBPoolChange); !ok || pool.Stage() != 1 {
		t.Errorf("runtime received %T stage %d, want LBPoolChange stage 1", rt.ops[0], rt.ops[0].Stage())
	}
	rt.applyErr = fmt.Errorf("shard 3 rejected the flip")
	rt.mu.Unlock()
	if _, err := c.Do(ctlplane.Request{
		Op: ctlplane.OpLBPool, Backends: []ctlplane.Backend{{Addr: packet.MakeIPv4Addr(10, 0, 1, 1), Weight: 1}},
	}); err == nil || !strings.Contains(err.Error(), "shard 3 rejected") {
		t.Errorf("apply error did not surface: %v", err)
	}

	// A raw connection sending garbage gets an error response, not a
	// hangup.
	raw, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte("not json\n")); err != nil {
		t.Fatal(err)
	}
	var malformed ctlplane.Response
	if err := json.NewDecoder(raw).Decode(&malformed); err != nil {
		t.Fatal(err)
	}
	if malformed.OK || !strings.Contains(malformed.Error, "bad request") {
		t.Errorf("malformed line response: %+v", malformed)
	}
}

// TestServerCloseHangsUpOpenClients: Close returns promptly while a client
// keeps its connection open after a request, and that client is hung up.
func TestServerCloseHangsUpOpenClients(t *testing.T) {
	srv := ctlplane.NewServer(&fakeRuntime{})
	sock := t.TempDir() + "/ctl.sock"
	if err := srv.Listen(sock); err != nil {
		t.Fatal(err)
	}
	c, err := ctlplane.Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Do(ctlplane.Request{Op: ctlplane.OpPing}); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close has not returned after 2 s while a client holds its connection open")
	}
	if _, err := c.Do(ctlplane.Request{Op: ctlplane.OpPing}); err == nil {
		t.Error("a connection was still served after Close")
	}
}
