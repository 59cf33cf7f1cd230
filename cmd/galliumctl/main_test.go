package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"gallium"
	"gallium/internal/trafficgen"
)

// TestCommandsAgainstSession serves a firewall→mazunat→l4lb session on a
// unix socket, feeds it traffic, and drives galliumctl against it in
// process: ping, stats, and an LB pool swap addressed by name. Every
// counter stats prints must be the session's own, and it must name every
// stage.
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

	// Errors: a server-side refusal exits 1 with the reason on stderr; a
	// missing command is a usage error.
	if _, errOut := ctl(1, "nat-repartition", "-mb", "firewall"); !strings.Contains(errOut, "not a NAT") {
		t.Errorf("nat-repartition on the firewall: stderr %q", errOut)
	}
	ctl(1, "reboot")
	ctl(2)
}
