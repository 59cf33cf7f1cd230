package ctlplane_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"gallium/internal/ctlplane"
	"gallium/internal/flowstate"
	"gallium/internal/packet"
)

// FuzzCtlRequest feeds arbitrary bytes to the control socket's request
// path: split into lines the way the server reads them, each line decoded
// as a JSON Request and lowered with ToOp against a fixed pipeline. No
// input may panic, and every decoded request must lower to exactly one
// of an Op or an error.
func FuzzCtlRequest(f *testing.F) {
	seeds := []ctlplane.Request{
		{Op: ctlplane.OpFirewallSwap, Stage: 2, StageName: "firewall",
			Rules: []packet.FiveTuple{{SrcIP: packet.MakeIPv4Addr(10, 1, 2, 3), DstIP: packet.MakeIPv4Addr(8, 8, 8, 8), SrcPort: 1, DstPort: 2, Proto: 6}}},
		{Op: ctlplane.OpLBPool, StageName: "l4lb",
			Backends: []ctlplane.Backend{{Addr: packet.MakeIPv4Addr(10, 0, 1, 1), Weight: 3}}, Drain: true},
		{Op: ctlplane.OpFirewallSwap, StageName: "nope"},
		{Op: "reboot"},
		{Op: ctlplane.OpNATRepartition, Stage: 1, Bases: []uint16{1, 2}},
		{Op: ctlplane.OpFlowTable},
		{Op: ctlplane.OpFlowTable, FlowTable: &flowstate.Config{
			Capacity: 64, UDPTimeout: time.Second, EvictPolicy: flowstate.EvictNone}},
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
	f.Add([]byte(`{"op":"firewall-swap","rules":[{"src":"not-an-ip","dst":"1.2.3.4"}]}`))
	f.Add([]byte(`{"op":"flow-table","flow_table":{"capacity":8,"evict_policy":"fifo"}}`))

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

// FuzzCtlServe writes arbitrary bytes to a real unix socket served by a
// ctlplane.Server over the fake runtime. Nothing may panic, every
// non-empty line must get exactly one response, in order, and a ping on a
// fresh connection must still answer afterwards.
func FuzzCtlServe(f *testing.F) {
	for _, seed := range []string{
		`{"op":"ping"}` + "\n" + `{"op":"stats"}` + "\n",
		"not json\n\n\r\n{\"op\":\"ping\"}",
		`{"op":"lb-pool","stage_name":"l4lb","backends":[{"addr":"10.0.1.1","weight":1}]}` + "\n",
		`{"op":"firewall-swap","stage_name":"nope"}` + "\r\n" + `{"op":"reboot"}`,
		"\n\n\n",
		"{\"op\":\"ping\"}\x00\n\xff\xfe\n",
	} {
		f.Add([]byte(seed))
	}
	rt := &fakeRuntime{}
	sock := serve(f, rt)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkServe(t, rt, sock, data)
	})
}

// TestServeAnswersOverlongLine: a line over MaxLine gets an error response
// before the server closes the connection, and the lines before it are
// answered as usual.
func TestServeAnswersOverlongLine(t *testing.T) {
	rt := &fakeRuntime{}
	sock := serve(t, rt)
	data := `{"op":"ping"}` + "\n" + strings.Repeat("x", ctlplane.MaxLine) + "\n" + `{"op":"ping"}` + "\n"
	if got := checkServe(t, rt, sock, []byte(data)); got != 2 {
		t.Fatalf("%d responses, want 2: the ping's and the overlong line's error", got)
	}
}

// serve starts a control server for rt on a socket in a temporary
// directory and returns the socket's path.
func serve(tb testing.TB, rt *fakeRuntime) string {
	srv := ctlplane.NewServer(rt)
	sock := tb.TempDir() + "/ctl.sock"
	if err := srv.Listen(sock); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	return sock
}

// checkServe writes data to a fresh connection and checks the responses
// against the ones the server must give, line by line, as the server
// frames them; then it checks that a new connection answers a ping. It
// returns how many responses came back.
func checkServe(t *testing.T, rt *fakeRuntime, sock string, data []byte) int {
	t.Helper()
	var want [][]byte
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, ctlplane.MaxLine)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			want = append(want, expectedResponse(t, rt, sc.Bytes()))
		}
	}
	if sc.Err() != nil {
		want = append(want, marshal(t, ctlplane.Response{Error: fmt.Sprintf("bad request: line exceeds %d bytes", ctlplane.MaxLine)}))
	}

	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	// Write from a second goroutine: a server that answers faster than the
	// responses are read must not deadlock the test. After an overlong line
	// the server hangs up mid-write, so a write error is expected then.
	go func() {
		conn.Write(data)
		conn.(*net.UnixConn).CloseWrite()
	}()
	var got [][]byte
	rd := bufio.NewScanner(conn)
	rd.Buffer(nil, ctlplane.MaxLine)
	for rd.Scan() {
		got = append(got, bytes.Clone(rd.Bytes()))
	}
	if len(got) != len(want) {
		t.Fatalf("%d lines got %d responses", len(want), len(got))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("response %d = %s, want %s", i, got[i], want[i])
		}
	}

	rt.mu.Lock()
	rt.ops = nil
	rt.mu.Unlock()
	c, err := ctlplane.Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Do(ctlplane.Request{Op: ctlplane.OpPing}); err != nil {
		t.Fatalf("ping on a fresh connection: %v", err)
	}
	return len(got)
}

// expectedResponse is the server's answer to one request line, derived
// from the protocol: a decode error, a ping, the fake's stats, or the
// outcome of lowering the request (the fake applies every op it gets).
func expectedResponse(t *testing.T, rt *fakeRuntime, line []byte) []byte {
	var req ctlplane.Request
	resp := ctlplane.Response{OK: true}
	if err := json.Unmarshal(line, &req); err != nil {
		resp = ctlplane.Response{Error: "bad request: " + err.Error()}
	} else if req.Op == ctlplane.OpStats {
		resp.Stats, _ = rt.Stats()
	} else if req.Op != ctlplane.OpPing {
		if _, err := req.ToOp(rt.StageNames()); err != nil {
			resp = ctlplane.Response{Error: err.Error()}
		}
	}
	return marshal(t, resp)
}

func marshal(t *testing.T, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
