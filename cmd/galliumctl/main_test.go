package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"gallium"
	"gallium/internal/trafficgen"
)

// TestCommandsAgainstSession serves a firewall→mazunat→l4lb session on a
// unix socket, feeds it traffic, and drives galliumctl against it in
// process: ping, stats, an LB pool swap addressed by name, a firewall swap
// from a rules file, a flow-table retune and a NAT repartition. Every
// counter stats prints must be the session's own, and it must name every
// stage; a malformed rules file must fail before anything is sent.
func TestCommandsAgainstSession(t *testing.T) {
	var arts []*gallium.Artifacts
	for _, name := range []string{"firewall", "mazunat", "l4lb"} {
		art, err := gallium.CompileBuiltin(name, gallium.Options{})
		if err != nil {
			t.Fatal(err)
		}
		arts = append(arts, art)
	}
	chain, err := gallium.Chain(arts...)
	if err != nil {
		t.Fatal(err)
	}
	gen := trafficgen.IperfConfig{Conns: 8, PacketSize: 500, PPS: 1e6, DurationNs: 2_000_000, Seed: 7}
	s, err := chain.Open(gallium.WithWorkers(2), gallium.WithScenario(), gallium.WithFlows(gen.Tuples()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sock := t.TempDir() + "/ctl.sock"
	srv, err := s.Serve(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := s.Feed(gen); err != nil {
		t.Fatal(err)
	}

	ctl := func(want int, args ...string) (stdout, stderr string) {
		t.Helper()
		var out, errOut bytes.Buffer
		if code := run(append([]string{"-s", sock}, args...), &out, &errOut); code != want {
			t.Fatalf("galliumctl %v: exit %d, want %d (stderr %q)", args, code, want, errOut.String())
		}
		return out.String(), errOut.String()
	}
	// checkStats requires every counter line of a stats printout to match
	// the session's own report, read after it (no traffic is in flight).
	checkStats := func(out string) {
		t.Helper()
		rep, err := s.Stats()
		if err != nil {
			t.Fatal(err)
		}
		st := rep.Stats
		if st.Injected == 0 || st.Injected != st.Delivered+st.MBDrops+st.QueueDrops {
			t.Errorf("session loses packets: %+v", st)
		}
		want := []string{
			fmt.Sprintf("  injected %d  delivered %d  mb-drops %d  queue-drops %d  reconfigs %d\n",
				st.Injected, st.Delivered, st.MBDrops, st.QueueDrops, rep.Reconfigs),
			fmt.Sprintf("slow path: %d  control plane: %d ops in %d batches, %d rejected\n",
				st.SlowPath, st.CtlOps, st.CtlBatches, st.CtlRejected),
		}
		for i, name := range chain.Stages() {
			sw := rep.SwitchStages[i]
			want = append(want, fmt.Sprintf("  %s: fast %d  to-server %d  ctl-ops %d  flips %d  reconfigs %d  epoch %d  tables %v\n",
				name, sw.FastPath, sw.ToServer, sw.CtlOps, sw.CtlFlips, sw.Reconfigs, sw.Epoch, sw.TableEntries))
		}
		for _, w := range want {
			if !strings.Contains(out, w) {
				t.Errorf("stats output lacks %q:\n%s", w, out)
			}
		}
	}

	if out, _ := ctl(0, "ping"); out != "ok\n" {
		t.Fatalf("ping printed %q", out)
	}
	out, _ := ctl(0, "stats")
	checkStats(out)
	if out, _ := ctl(0, "lb-pool", "-mb", "l4lb", "10.0.1.1=2,10.0.1.2=1"); out != "replaced LB pool: 2 backend(s), purging stale connections\n" {
		t.Fatalf("lb-pool printed %q", out)
	}
	out, _ = ctl(0, "stats")
	checkStats(out)
	if !strings.Contains(out, "reconfigs 1\n") || !strings.Contains(out, "  l4lb: ") {
		t.Errorf("the pool swap is not in the stats:\n%s", out)
	}

	// A rules file in the {src,dst,sport,dport,proto} form: one outbound
	// and two inbound rules land in the firewall's two tables.
	dir := t.TempDir()
	rules := dir + "/rules.json"
	writeFile(t, rules, `[
  {"src": "10.0.0.10", "dst": "93.184.216.34", "sport": 40000, "dport": 5001, "proto": 6},
  {"src": "93.184.216.34", "dst": "10.0.0.10", "sport": 5001, "dport": 40000, "proto": 6},
  {"src": "198.51.100.7", "dst": "10.0.0.11", "sport": 53, "dport": 3333, "proto": 17}
]`)
	if out, _ := ctl(0, "firewall-swap", "-f", rules); out != "swapped firewall whitelist: 3 rule(s)\n" {
		t.Fatalf("firewall-swap printed %q", out)
	}
	rep, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if fw := rep.SwitchStages[0]; fw.TableEntries["wl_out"] != 1 || fw.TableEntries["wl_in"] != 2 || fw.Reconfigs != 1 {
		t.Errorf("firewall after the swap: tables %v, %d reconfigs", fw.TableEntries, fw.Reconfigs)
	}

	if out, _ := ctl(0, "flow-table", "-capacity", "4096", "-udp", "20s", "-policy", "none"); out != "retuned flow table: capacity 4096\n" {
		t.Fatalf("flow-table printed %q", out)
	}
	if rep, err = s.Stats(); err != nil {
		t.Fatal(err)
	}
	if rep.Flow == nil || rep.Flow.Capacity != 4096 {
		t.Errorf("flow table after the retune: %+v", rep.Flow)
	}

	if out, _ := ctl(0, "nat-repartition", "-mb", "mazunat", "-bases", "1024,33792"); out != "repartitioned NAT port space: bases [1024 33792]\n" {
		t.Fatalf("nat-repartition printed %q", out)
	}
	out, _ = ctl(0, "stats")
	checkStats(out)
	if !strings.Contains(out, "reconfigs 4\n") {
		t.Errorf("the four reconfigurations are not in the stats:\n%s", out)
	}

	// A malformed address in a rules file fails in galliumctl itself: the
	// error names the file, the session sees no request, and no socket is
	// needed to find out.
	bad := dir + "/bad.json"
	writeFile(t, bad, `[{"src": "10.0.0.300", "dst": "93.184.216.34", "sport": 1, "dport": 2, "proto": 6}]`)
	for _, sockArg := range []string{sock, dir + "/no-such.sock"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-s", sockArg, "firewall-swap", "-f", bad}, &stdout, &stderr); code != 1 ||
			!strings.Contains(stderr.String(), bad) || !strings.Contains(stderr.String(), "10.0.0.300") {
			t.Errorf("-s %s: malformed rules file: exit %d, stderr %q", sockArg, code, stderr.String())
		}
	}
	if rep, err = s.Stats(); err != nil {
		t.Fatal(err)
	}
	if rep.Reconfigs != 4 {
		t.Errorf("%d reconfigurations after the malformed file, want 4", rep.Reconfigs)
	}

	// Errors: a server-side refusal exits 1 with the reason on stderr; a
	// missing command is a usage error.
	if _, errOut := ctl(1, "nat-repartition", "-mb", "firewall"); !strings.Contains(errOut, "not a NAT") {
		t.Errorf("nat-repartition on the firewall: stderr %q", errOut)
	}
	ctl(1, "reboot")
	ctl(2)
}

func writeFile(t *testing.T, path, data string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}
