package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gallium"
	"gallium/internal/ctlplane"
	"gallium/internal/packet"
	"gallium/internal/trafficgen"
)

// TestRefusedFlags checks that a command line the flag set cannot parse,
// a -cache value the run could not honour, and a flag the selected mode
// would never read each fail before anything runs, with an error that
// names the flag; and that -h asks for help rather than failing.
func TestRefusedFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-nosuch"}, "-nosuch"},
		{[]string{"-workers", "two"}, "-workers"},
		{[]string{"-mb", "minilb", "-cache", "conn=512x"}, "-cache"},
		{[]string{"-mb", "minilb", "-cache", "conn=0"}, "-cache"},
		{[]string{"-mb", "minilb", "-cache", "conn=-5"}, "-cache"},
		{[]string{"-mb", "minilb", "-cache", "=8"}, "-cache"},
		{[]string{"-mb", "minilb", "-cache", "nosuch=8"}, "-cache"},
		{[]string{"-mb", "firewall,minilb", "-cache", "nosuch=8"}, "-cache"},
		{[]string{"-listen", "127.0.0.1:0", "-serve", "/nonexistent/g.sock"}, "-listen and -serve"},
		{[]string{"-pcap", "/nonexistent/out.pcap", "-listen", "127.0.0.1:0"}, "-pcap"},
		{[]string{"-pcap", "/nonexistent/out.pcap", "-serve", "/nonexistent/g.sock"}, "-pcap"},
		{[]string{"-send", "127.0.0.1:9", "-listen", "127.0.0.1:0"}, "-listen"},
		{[]string{"-send", "127.0.0.1:9", "-serve", "/nonexistent/g.sock"}, "-serve"},
		{[]string{"-send", "127.0.0.1:9", "-mb", "mazunat"}, "-mb"},
		{[]string{"-send", "127.0.0.1:9", "-mode", "software"}, "-mode"},
		{[]string{"-send", "127.0.0.1:9", "-workers", "2"}, "-workers"},
		{[]string{"-send", "127.0.0.1:9", "-cache", "conn=512"}, "-cache"},
		{[]string{"-send", "127.0.0.1:9", "-pcap", "/nonexistent/out.pcap"}, "-pcap"},
		{[]string{"-send", "127.0.0.1:9", "-metrics", "/nonexistent/m.json"}, "-metrics"},
		{[]string{"-send", "127.0.0.1:9", "-trace", "2"}, "-trace"},
	}
	for _, c := range cases {
		err := run(context.Background(), c.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("galliumsim %s: error %v, want one naming %q", strings.Join(c.args, " "), err, c.want)
		}
		if c.args[0] == "-send" && err != nil && !strings.Contains(err.Error(), "-send") {
			t.Errorf("galliumsim %s: error %v does not name -send", strings.Join(c.args, " "), err)
		}
	}
	if err := run(context.Background(), []string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("galliumsim -h: error %v, want flag.ErrHelp", err)
	}
}

// TestFailedSetup checks that a value only the run itself can refuse — an
// unknown middlebox or mode, an address or socket path that cannot be
// bound or dialled — fails the run with an error naming it.
func TestFailedSetup(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-mb", "nosuchbox"}, "nosuchbox"},
		{[]string{"-mode", "sideways", "-ms", "1"}, "sideways"},
		{[]string{"-listen", "127.0.0.1:nosuchport"}, "nosuchport"},
		{[]string{"-serve", filepath.Join(t.TempDir(), "missing", "g.sock")}, "g.sock"},
		{[]string{"-send", "127.0.0.1:nosuchport"}, "nosuchport"},
	}
	for _, c := range cases {
		err := run(context.Background(), c.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("galliumsim %s: error %v, want one naming %q", strings.Join(c.args, " "), err, c.want)
		}
	}
}

// TestInterruptedRunStops checks that a cancelled context (Ctrl-C) stops a
// generated run and a sender at once instead of running them out; the
// sender's peer takes its datagrams and never echoes.
func TestInterruptedRunStops(t *testing.T) {
	mute, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{"-ms", "1000000"},
		{"-send", mute.LocalAddr().String(), "-pps", "1000", "-ms", "100"},
	} {
		start := time.Now()
		if err := run(ctx, args, io.Discard); !errors.Is(err, context.Canceled) {
			t.Errorf("galliumsim %s after cancel: error %v, want context.Canceled", strings.Join(args, " "), err)
		}
		if d := time.Since(start); d > 3*time.Second {
			t.Errorf("galliumsim %s took %v after cancel", strings.Join(args, " "), d)
		}
	}
}

// TestCacheRuns checks that a map the middlebox declares still runs as a
// switch cache.
func TestCacheRuns(t *testing.T) {
	if err := run(context.Background(), []string{"-mb", "minilb", "-cache", "conn=512", "-ms", "1"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestTracePrints checks that -trace records traces on whatever run the
// flags select: one worker, and a chain on two.
func TestTracePrints(t *testing.T) {
	for _, args := range [][]string{
		{"-trace", "2", "-ms", "1"},
		{"-trace", "2", "-workers", "2", "-mb", "firewall,mazunat", "-ms", "1"},
	} {
		var out bytes.Buffer
		if err := run(context.Background(), args, &out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "trace #1") {
			t.Errorf("galliumsim %s printed no \"trace #1\":\n%s", strings.Join(args, " "), out.String())
		}
	}
}

// TestPcapHoldsDeliveries checks that a generated run's -pcap file holds
// exactly the packets the run delivered — as many as its report counts,
// byte for byte those an identical session hands its delivery callback —
// in non-decreasing time order.
func TestPcapHoldsDeliveries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.pcap")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-mb", "mazunat", "-workers", "2", "-ms", "1", "-pcap", path}, &out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := packet.ReadPcap(f)
	if err != nil {
		t.Fatal(err)
	}
	delivered := atoi(t, match(t, out.String(), `delivered (\d+)`))
	if wrote := atoi(t, match(t, out.String(), `wrote (\d+) delivered packets`)); len(recs) != delivered || wrote != delivered {
		t.Errorf("pcap holds %d packets, run says it wrote %d, report says %d delivered", len(recs), wrote, delivered)
	}
	var got []string
	for i, r := range recs {
		if i > 0 && r.TNs < recs[i-1].TNs {
			t.Fatalf("pcap record %d at %d ns follows one at %d ns", i, r.TNs, recs[i-1].TNs)
		}
		got = append(got, string(r.Data))
	}

	art, err := gallium.CompileBuiltin("mazunat", gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var want []string
	gen := trafficgen.IperfConfig{Conns: 10, PacketSize: 500, PPS: 4e6, DurationNs: 1_000_000, Seed: 7}
	_, err = art.Run(context.Background(), gen, gallium.WithWorkers(2), gallium.WithScenario(),
		gallium.WithDeliveries(func(d gallium.Delivery) {
			if d.Delivered {
				mu.Lock()
				want = append(want, string(d.Pkt.Serialize()))
				mu.Unlock()
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("pcap packets differ from the session's deliveries (%d vs %d packets)", len(got), len(want))
	}
}

// TestListenEchoes is the UDP wire path end to end: a two-worker -listen
// deployment on a loopback socket, fed by a -send in the same process,
// echoes every datagram; cancelled, it drains and reports all of them.
func TestListenEchoes(t *testing.T) {
	sim := start(t, "-mb", "mazunat", "-workers", "2", "-listen", "127.0.0.1:0")
	addr := sim.waitFor(t, `listening on udp://(\S+)`)
	var send bytes.Buffer
	if err := run(context.Background(), []string{"-send", addr, "-pps", "100000", "-ms", "20"}, &send); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(send.String(), "received 2000 echoes (100.0%)") {
		t.Errorf("-send did not get every echo back:\n%s", send.String())
	}
	out := sim.stop(t)
	for _, want := range []string{"galliumsim: interrupted, draining\n", "udp: rx 2000 datagrams", "tx 2000 in", "injected 2000  delivered 2000"} {
		if !strings.Contains(out, want) {
			t.Errorf("-listen output lacks %q:\n%s", want, out)
		}
	}
}

// TestServeAnswersControl is a live -serve deployment driven through its
// control socket: it answers ping, stats and one LB pool change while it
// feeds segments; cancelled, it drains, prints the final report (one
// reconfiguration), its traces and its metrics, and removes its socket.
func TestServeAnswersControl(t *testing.T) {
	dir := t.TempDir()
	sock, metrics := filepath.Join(dir, "g.sock"), filepath.Join(dir, "m.json")
	sim := start(t, "-mb", "firewall,l4lb", "-workers", "2", "-ms", "1", "-trace", "2", "-metrics", metrics, "-serve", sock)
	sim.waitFor(t, `feeding 4.0 Mpps in (1) ms segments until interrupted`)

	c, err := ctlplane.Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(ctlplane.Request{Op: ctlplane.OpPing}); err != nil {
		t.Fatal(err)
	}
	awaitTraffic(t, c, "firewall", "l4lb")
	pool := []ctlplane.Backend{{Addr: packet.MakeIPv4Addr(10, 0, 1, 9), Weight: 1}}
	if _, err := c.Do(ctlplane.Request{Op: ctlplane.OpLBPool, StageName: "l4lb", Backends: pool}); err != nil {
		t.Fatal(err)
	}
	c.Close()

	out := sim.stop(t)
	match(t, out, `galliumsim: interrupted after [1-9]\d* segment\(s\), draining\n`)
	match(t, out, `(?m)^  injected [1-9]\d*  delivered [1-9]\d*  mb-drops \d+  queue-drops \d+  reconfigs (1)$`)
	for _, want := range []string{"trace #1", "counters", metrics} {
		if !strings.Contains(out, want) {
			t.Errorf("-serve output lacks %q:\n%s", want, out)
		}
	}
	if _, err := os.Stat(metrics); err != nil {
		t.Errorf("metrics file: %v", err)
	}
	if _, err := os.Stat(sock); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("control socket still there after drain: %v", err)
	}
}

// TestServeInterruptIsPrompt checks that interrupting -serve stops the
// segment it is feeding: the drain settles only the packets in flight, so
// the final report follows within seconds however long -ms makes a
// segment (a 10 s segment is 40 M packets).
func TestServeInterruptIsPrompt(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "g.sock")
	sim := start(t, "-ms", "10000", "-serve", sock)
	sim.waitFor(t, `feeding 4.0 Mpps in (10000) ms segments until interrupted`)
	c, err := ctlplane.Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	awaitTraffic(t, c, "mazunat")
	c.Close()

	begin := time.Now()
	out := sim.stop(t)
	if d := time.Since(begin); d > 3*time.Second {
		t.Errorf("-serve took %v to drain after the interrupt", d)
	}
	match(t, out, `galliumsim: interrupted after (1) segment\(s\), draining\n`)
	match(t, out, `(?m)^  injected [1-9]\d*  delivered [1-9]\d*  `)
}

// awaitTraffic asks a -serve run for stats until a packet has been
// injected, requiring each report to name stages.
func awaitTraffic(t *testing.T, c *ctlplane.Client, stages ...string) {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); ; {
		resp, err := c.Do(ctlplane.Request{Op: ctlplane.OpStats})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Stats == nil || !slices.Equal(resp.Stats.StageNames, stages) {
			t.Fatalf("stats: %+v, want a report on stages %v", resp.Stats, stages)
		}
		if resp.Stats.Stats.Injected > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no packet injected within a minute")
		}
		time.Sleep(time.Millisecond)
	}
}

// background is galliumsim running in the background, as -listen or -serve
// do until interrupted.
type background struct {
	mu     sync.Mutex
	out    bytes.Buffer
	cancel context.CancelFunc
	done   chan error
}

func (r *background) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.out.Write(p)
}

func (r *background) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.out.String()
}

// start runs galliumsim with args until stop; the test fails if it is
// still running when the test ends.
func start(t *testing.T, args ...string) *background {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	r := &background{cancel: cancel, done: make(chan error, 1)}
	go func() { r.done <- run(ctx, args, r) }()
	t.Cleanup(func() {
		cancel()
		<-r.done
	})
	return r
}

// waitFor waits until the output has a line matching pattern and returns
// the pattern's first group; it fails the test if the run ends first or
// nothing matches within a minute.
func (r *background) waitFor(t *testing.T, pattern string) string {
	t.Helper()
	re := regexp.MustCompile(pattern)
	deadline := time.After(time.Minute)
	for {
		if m := re.FindStringSubmatch(r.String()); m != nil {
			return m[1]
		}
		select {
		case err := <-r.done:
			r.done <- err
			t.Fatalf("galliumsim ended (%v) before printing %q:\n%s", err, pattern, r.String())
		case <-deadline:
			t.Fatalf("galliumsim printed no %q within a minute:\n%s", pattern, r.String())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop interrupts the run, as Ctrl-C does, and returns all it printed.
func (r *background) stop(t *testing.T) string {
	t.Helper()
	r.cancel()
	err := <-r.done
	r.done <- err
	if err != nil {
		t.Fatalf("galliumsim: %v\n%s", err, r.String())
	}
	return r.String()
}

// match returns pattern's first group in s, failing the test if s has no
// match.
func match(t *testing.T, s, pattern string) string {
	t.Helper()
	m := regexp.MustCompile(pattern).FindStringSubmatch(s)
	if m == nil {
		t.Fatalf("output has no %q:\n%s", pattern, s)
	}
	if len(m) < 2 {
		return m[0]
	}
	return m[1]
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}
