package ctlplane_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"gallium/internal/ctlplane"
	"gallium/internal/flowstate"
)

// FuzzCtlRequest feeds arbitrary bytes to the control socket's request
// path: split into lines the way the server reads them, each line decoded
// as a JSON Request and lowered with ToOp against a fixed pipeline. No
// input may panic, and every decoded request must lower to exactly one
// of an Op or an error.
func FuzzCtlRequest(f *testing.F) {
	seeds := []ctlplane.Request{
		{Op: ctlplane.OpFirewallSwap, Stage: 2, StageName: "firewall",
			Rules: []ctlplane.Rule{{Src: "10.1.2.3", Dst: "8.8.8.8", Sport: 1, Dport: 2, Proto: 6}}},
		{Op: ctlplane.OpLBPool, StageName: "l4lb",
			Backends: []ctlplane.PoolMember{{Addr: "10.0.1.1", Weight: 3}}, Drain: true},
		{Op: ctlplane.OpFirewallSwap, StageName: "nope"},
		{Op: ctlplane.OpFirewallSwap, Rules: []ctlplane.Rule{{Src: "not-an-ip", Dst: "1.2.3.4"}}},
		{Op: "reboot"},
		{Op: ctlplane.OpNATRepartition, Stage: 1, Bases: []uint16{1, 2}},
		{Op: ctlplane.OpFlowTable},
		{Op: ctlplane.OpFlowTable, FlowTable: ctlplane.FromConfig(flowstate.Config{
			Capacity: 64, UDPTimeout: time.Second, EvictPolicy: flowstate.EvictNone})},
		{Op: ctlplane.OpFlowTable, FlowTable: &ctlplane.FlowTableConfig{Capacity: 8, EvictPolicy: "fifo"}},
		{Op: ctlplane.OpPing},
		{Op: ctlplane.OpStats},
	}
	var all []byte
	for _, r := range seeds {
		line, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
		all = append(append(all, line...), '\n')
	}
	f.Add(all)
	f.Add([]byte("not json\n"))
	f.Add([]byte(`{"op":"lb-pool","stage":-1,"backends":[{"addr":"","weight":-5}]}`))
	f.Add([]byte(`{"op":"flow-table","flow_table":{"capacity":-1,"udp_ns":-9223372036854775808}}`))

	names := []string{"firewall", "mazunat", "l4lb"}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			var req ctlplane.Request
			if json.Unmarshal(sc.Bytes(), &req) != nil {
				continue
			}
			op, err := req.ToOp(names)
			if (op == nil) == (err == nil) {
				t.Fatalf("ToOp(%+v) = %v, %v: want exactly one of an op and an error", req, op, err)
			}
		}
	})
}
