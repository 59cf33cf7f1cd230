package ctlplane_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"gallium/internal/ctlplane"
	"gallium/internal/engine"
	"gallium/internal/flowstate"
	"gallium/internal/ir"
)

// TestFlowTableToOp: the flow-table op needs its payload.
func TestFlowTableToOp(t *testing.T) {
	if _, err := (ctlplane.Request{Op: ctlplane.OpFlowTable}).ToOp([]string{"l4lb"}); err == nil ||
		!strings.Contains(err.Error(), "flow_table") {
		t.Errorf("missing payload not rejected: %v", err)
	}
}

// TestFlowTableWireRoundTrip: a config survives the JSON hop unchanged,
// except the sweep knobs, which the socket does not carry.
func TestFlowTableWireRoundTrip(t *testing.T) {
	cfg := flowstate.Config{
		Capacity: 1 << 20,
		TCPTimeouts: flowstate.TCPTimeouts{
			Syn: 5 * time.Second, Established: 5 * time.Minute, Fin: 10 * time.Second,
		},
		UDPTimeout:  30 * time.Second,
		EvictPolicy: flowstate.EvictNone,
	}
	sent := cfg
	sent.SweepEvery, sent.SweepLimit = 7, 9
	line, err := json.Marshal(ctlplane.Request{Op: ctlplane.OpFlowTable, FlowTable: &sent})
	if err != nil {
		t.Fatal(err)
	}
	var req ctlplane.Request
	if err := json.Unmarshal(line, &req); err != nil {
		t.Fatal(err)
	}
	op, err := req.ToOp([]string{"l4lb"})
	if err != nil {
		t.Fatal(err)
	}
	if got := op.(ctlplane.FlowTableUpdate).Table; got != cfg {
		t.Fatalf("round trip of %s drifted: %+v, want %+v", line, got, cfg)
	}
}

// TestFlowTableCompileValidation: compiling the typed op validates the
// config (Session.Reconfigure surfaces it before touching the engine).
func TestFlowTableCompileValidation(t *testing.T) {
	_, err := ctlplane.Compile(ctlplane.FlowTableUpdate{
		Table: flowstate.Config{Capacity: -1},
	}, []engine.StageConfig{{Name: "l4lb"}}, 1)
	if err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("invalid flow table compiled: %v", err)
	}
	r, err := ctlplane.Compile(ctlplane.FlowTableUpdate{
		Table: flowstate.Config{Capacity: 64},
	}, []engine.StageConfig{{Name: "l4lb"}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.FlowTable == nil || r.FlowTable.Capacity != 64 {
		t.Fatalf("compiled reconfig = %+v", r.FlowTable)
	}
}

// flowRuntime records the ops it gets and serves testReport.
type flowRuntime struct{ ops []ctlplane.Op }

func (f *flowRuntime) Reconfigure(op ctlplane.Op) error {
	f.ops = append(f.ops, op)
	return nil
}

func (f *flowRuntime) Stats() (*engine.Report, error) { return testReport(), nil }

func (f *flowRuntime) StageNames() []string { return []string{"l4lb"} }

// TestFlowTableServerRoundTrip drives a flow-table retune and a stats
// read through the unix-socket protocol: the typed op reaches the
// runtime intact and the flow gauges survive the JSON hop.
func TestFlowTableServerRoundTrip(t *testing.T) {
	rt := &flowRuntime{}
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

	if _, err := c.Do(ctlplane.Request{
		Op:        ctlplane.OpFlowTable,
		FlowTable: &flowstate.Config{Capacity: 2048, UDPTimeout: time.Minute},
	}); err != nil {
		t.Fatal(err)
	}
	if len(rt.ops) != 1 {
		t.Fatalf("runtime saw %d ops, want 1", len(rt.ops))
	}
	ft, ok := rt.ops[0].(ctlplane.FlowTableUpdate)
	if !ok || ft.Table.Capacity != 2048 || ft.Table.UDPTimeout != time.Minute {
		t.Fatalf("runtime received %#v", rt.ops[0])
	}

	resp, err := c.Do(ctlplane.Request{Op: ctlplane.OpStats})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats == nil || !reflect.DeepEqual(resp.Stats.Flow, testReport().Flow) {
		t.Fatalf("flow gauges lost on the wire: %+v", resp.Stats)
	}
}

// TestLBPoolPurgeKeepsLifecycleInStep: a non-draining pool change purges
// connections through the state's accessors, so the flow tracker's records
// go with them — occupancy matches the table straight away, and no later
// sweep reports a purged key as expired.
func TestLBPoolPurgeKeepsLifecycleInStep(t *testing.T) {
	lb := targetFor(t, "l4lb")
	st := freshState(t, lb)
	tr := flowstate.NewTracker(flowstate.Config{Capacity: 1000}, st, flowstate.DynamicMaps(lb.Res.Prog))

	const n = 20
	purged := map[ir.MapKey]bool{}
	st.Class = uint8(flowstate.ClassTCPEst)
	for i := 0; i < n; i++ {
		key := ir.MakeMapKey(uint64(i), 2, 3, 4, 6)
		backend := uint64(7)
		if i%2 == 1 {
			backend, purged[key] = 42, true
		}
		st.NowNs = int64(i)
		if err := st.MapInsert("conns", key, []uint64{backend}); err != nil {
			t.Fatal(err)
		}
	}

	r, err := ctlplane.Compile(ctlplane.LBPoolChange{Backends: []ctlplane.Backend{{Addr: 7, Weight: 1}}},
		[]engine.StageConfig{lb}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dels := r.Mutate(0, st); len(dels) != len(purged) {
		t.Fatalf("purge shipped %d switch deletions, want %d", len(dels), len(purged))
	}
	if rm := tr.Sweep(n, true); len(rm) != 0 {
		t.Fatalf("sweep right after the purge removed %+v", rm)
	}
	if got := tr.Stats().Occupancy; got != uint64(st.Table("conns").Len()) || got != n-uint64(len(purged)) {
		t.Fatalf("occupancy %d, table holds %d, want %d", got, st.Table("conns").Len(), n-len(purged))
	}
	// Past the established timeout everything left expires — and only that.
	rm := tr.Sweep(int64(time.Hour), true)
	if len(rm) != n-len(purged) {
		t.Fatalf("expiry removed %d entries, want the %d survivors", len(rm), n-len(purged))
	}
	for _, x := range rm {
		if purged[x.Key] {
			t.Fatalf("sweep reported purged key %v", x.Key)
		}
	}
}
