package middleboxes

import (
	"math/rand"
	"testing"

	"gallium/internal/ir"
	"gallium/internal/packet"
	"gallium/internal/partition"
)

func TestAllCompile(t *testing.T) {
	names := []string{"minilb", "mazunat", "l4lb", "firewall", "proxy", "trojandetector",
		"tunlb", "synproxy", "mssclamp", "firewall6"}
	for _, name := range names {
		p, err := Compile(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: invalid IR: %v", name, err)
		}
		if p.Fn.NumStmts < 10 {
			t.Errorf("%s: suspiciously small (%d stmts)", name, p.Fn.NumStmts)
		}
	}
	if _, err := Compile("nosuch"); err == nil {
		t.Error("want error for unknown middlebox")
	}
}

func TestAllPartition(t *testing.T) {
	for _, s := range All() {
		p, err := Compile(s.Name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := partition.Partition(p, partition.DefaultConstraints())
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if res.Report.NumPre == 0 {
			t.Errorf("%s: nothing offloaded to pre-processing", s.Name)
		}
		t.Logf("%s: pre=%d srv=%d post=%d offload=%.0f%% globals=%v",
			s.Name, res.Report.NumPre, res.Report.NumSrv, res.Report.NumPost,
			100*res.Report.OffloadFraction(), res.OffloadedGlobals)
	}
}

func TestFirewallAndProxyFullyOffloaded(t *testing.T) {
	// Paper §6.3: "For the firewall and the proxy, all packet processing
	// happens in the programmable switch."
	for _, name := range []string{"firewall", "proxy"} {
		p, err := Compile(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := partition.Partition(p, partition.DefaultConstraints())
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.NumSrv != 0 {
			t.Errorf("%s: %d statements left on the server, want 0", name, res.Report.NumSrv)
		}
	}
}

func TestMazuNATOutboundAndInbound(t *testing.T) {
	p, err := Compile("mazunat")
	if err != nil {
		t.Fatal(err)
	}
	st := ir.NewState(p)
	extIP := packet.MakeIPv4Addr(203, 0, 113, 1)

	// Outbound: internal host to external server.
	out := packet.BuildTCP(packet.MakeIPv4Addr(10, 0, 0, 5), packet.MakeIPv4Addr(93, 184, 216, 34), 4321, 443, packet.TCPOptions{Flags: packet.TCPFlagSYN})
	r, err := p.Exec(&ir.Env{State: st, Pkt: out})
	if err != nil {
		t.Fatal(err)
	}
	if r.Action != ir.ActionSent {
		t.Fatalf("outbound action = %v", r.Action)
	}
	if out.IP.SrcIP != extIP {
		t.Errorf("outbound saddr = %v, want %v", out.IP.SrcIP, extIP)
	}
	allocated := out.TCP.SrcPort // first allocation: next_port was 0
	if allocated != 0 {
		t.Errorf("first allocated port = %d, want 0", allocated)
	}
	if st.Globals["next_port"] != 1 {
		t.Errorf("next_port = %d, want 1", st.Globals["next_port"])
	}

	// Second packet of the same connection reuses the mapping.
	out2 := packet.BuildTCP(packet.MakeIPv4Addr(10, 0, 0, 5), packet.MakeIPv4Addr(93, 184, 216, 34), 4321, 443, packet.TCPOptions{})
	if _, err := p.Exec(&ir.Env{State: st, Pkt: out2}); err != nil {
		t.Fatal(err)
	}
	if out2.TCP.SrcPort != allocated {
		t.Errorf("second packet got port %d, want %d", out2.TCP.SrcPort, allocated)
	}
	if st.Globals["next_port"] != 1 {
		t.Errorf("next_port advanced on existing connection")
	}

	// Inbound response: translated back to the internal host.
	in := packet.BuildTCP(packet.MakeIPv4Addr(93, 184, 216, 34), extIP, 443, allocated, packet.TCPOptions{Flags: packet.TCPFlagSYN | packet.TCPFlagACK})
	r, err = p.Exec(&ir.Env{State: st, Pkt: in})
	if err != nil {
		t.Fatal(err)
	}
	if r.Action != ir.ActionSent {
		t.Fatalf("inbound action = %v", r.Action)
	}
	if in.IP.DstIP != packet.MakeIPv4Addr(10, 0, 0, 5) || in.TCP.DstPort != 4321 {
		t.Errorf("inbound translated to %v:%d, want 10.0.0.5:4321", in.IP.DstIP, in.TCP.DstPort)
	}

	// Inbound with no mapping drops.
	bad := packet.BuildTCP(packet.MakeIPv4Addr(93, 184, 216, 34), extIP, 443, 999, packet.TCPOptions{})
	r, _ = p.Exec(&ir.Env{State: st, Pkt: bad})
	if r.Action != ir.ActionDropped {
		t.Errorf("unmapped inbound action = %v, want dropped", r.Action)
	}

	// Non-TCP/UDP drops.
	icmp := packet.BuildTCP(packet.MakeIPv4Addr(10, 0, 0, 5), 2, 1, 2, packet.TCPOptions{})
	icmp.IP.Protocol = 1
	icmp.HasTCP = false
	r, _ = p.Exec(&ir.Env{State: st, Pkt: icmp})
	if r.Action != ir.ActionDropped {
		t.Errorf("icmp action = %v, want dropped", r.Action)
	}
}

func TestL4LBConnectionConsistencyAndGC(t *testing.T) {
	p, err := Compile("l4lb")
	if err != nil {
		t.Fatal(err)
	}
	st := ir.NewState(p)
	ConfigureState("l4lb", st)
	vip := packet.MakeIPv4Addr(10, 0, 2, 2)
	client := packet.MakeIPv4Addr(172, 16, 0, 9)

	syn := packet.BuildTCP(client, vip, 5000, 80, packet.TCPOptions{Flags: packet.TCPFlagSYN})
	if _, err := p.Exec(&ir.Env{State: st, Pkt: syn}); err != nil {
		t.Fatal(err)
	}
	chosen := syn.IP.DstIP
	found := false
	for _, b := range Backends {
		if uint64(chosen) == b {
			found = true
		}
	}
	if !found {
		t.Fatalf("daddr %v is not a backend", chosen)
	}
	if st.Table("conns").Len() != 1 {
		t.Fatalf("conns entries = %d", st.Table("conns").Len())
	}

	// Data packets stick to the same backend.
	for i := 0; i < 5; i++ {
		data := packet.BuildTCP(client, vip, 5000, 80, packet.TCPOptions{Flags: packet.TCPFlagACK})
		if _, err := p.Exec(&ir.Env{State: st, Pkt: data}); err != nil {
			t.Fatal(err)
		}
		if data.IP.DstIP != chosen {
			t.Fatalf("data packet steered to %v, want %v", data.IP.DstIP, chosen)
		}
	}

	// FIN tears the entry down.
	fin := packet.BuildTCP(client, vip, 5000, 80, packet.TCPOptions{Flags: packet.TCPFlagFIN | packet.TCPFlagACK})
	if _, err := p.Exec(&ir.Env{State: st, Pkt: fin}); err != nil {
		t.Fatal(err)
	}
	if fin.IP.DstIP != chosen {
		t.Errorf("FIN steered to %v, want %v", fin.IP.DstIP, chosen)
	}
	if st.Table("conns").Len() != 0 {
		t.Errorf("conns entries = %d after FIN, want 0", st.Table("conns").Len())
	}

	// UDP flows balance too.
	udp := packet.BuildUDP(client, vip, 6000, 53, nil)
	if _, err := p.Exec(&ir.Env{State: st, Pkt: udp}); err != nil {
		t.Fatal(err)
	}
	if st.Table("conns").Len() != 1 {
		t.Errorf("udp flow not tracked")
	}
}

func TestFirewallWhitelist(t *testing.T) {
	p, err := Compile("firewall")
	if err != nil {
		t.Fatal(err)
	}
	st := ir.NewState(p)
	allowed := packet.FiveTuple{
		SrcIP: packet.MakeIPv4Addr(10, 0, 0, 1), DstIP: packet.MakeIPv4Addr(8, 8, 8, 8),
		SrcPort: 1234, DstPort: 53, Proto: packet.IPProtocolUDP,
	}
	AllowFlow(st, allowed)

	ok := packet.BuildUDP(allowed.SrcIP, allowed.DstIP, allowed.SrcPort, allowed.DstPort, nil)
	r, err := p.Exec(&ir.Env{State: st, Pkt: ok})
	if err != nil {
		t.Fatal(err)
	}
	if r.Action != ir.ActionSent {
		t.Errorf("whitelisted flow action = %v", r.Action)
	}

	// Same packet, different port: dropped.
	bad := packet.BuildUDP(allowed.SrcIP, allowed.DstIP, allowed.SrcPort, 54, nil)
	r, _ = p.Exec(&ir.Env{State: st, Pkt: bad})
	if r.Action != ir.ActionDropped {
		t.Errorf("non-whitelisted flow action = %v", r.Action)
	}

	// Inbound direction uses wl_in.
	inbound := packet.FiveTuple{
		SrcIP: packet.MakeIPv4Addr(8, 8, 8, 8), DstIP: packet.MakeIPv4Addr(10, 0, 0, 1),
		SrcPort: 53, DstPort: 1234, Proto: packet.IPProtocolUDP,
	}
	AllowFlow(st, inbound)
	inPkt := packet.BuildUDP(inbound.SrcIP, inbound.DstIP, inbound.SrcPort, inbound.DstPort, nil)
	r, _ = p.Exec(&ir.Env{State: st, Pkt: inPkt})
	if r.Action != ir.ActionSent {
		t.Errorf("inbound whitelisted flow action = %v", r.Action)
	}
}

func TestProxyRedirect(t *testing.T) {
	p, err := Compile("proxy")
	if err != nil {
		t.Fatal(err)
	}
	st := ir.NewState(p)
	RedirectPort(st, 80)

	web := packet.BuildTCP(packet.MakeIPv4Addr(172, 16, 0, 1), packet.MakeIPv4Addr(5, 5, 5, 5), 1111, 80, packet.TCPOptions{})
	if _, err := p.Exec(&ir.Env{State: st, Pkt: web}); err != nil {
		t.Fatal(err)
	}
	if web.IP.DstIP != packet.MakeIPv4Addr(10, 0, 0, 99) || web.TCP.DstPort != 3128 {
		t.Errorf("web traffic not redirected: %v:%d", web.IP.DstIP, web.TCP.DstPort)
	}

	ssh := packet.BuildTCP(packet.MakeIPv4Addr(172, 16, 0, 1), packet.MakeIPv4Addr(5, 5, 5, 5), 1111, 22, packet.TCPOptions{})
	if _, err := p.Exec(&ir.Env{State: st, Pkt: ssh}); err != nil {
		t.Fatal(err)
	}
	if ssh.IP.DstIP != packet.MakeIPv4Addr(5, 5, 5, 5) || ssh.TCP.DstPort != 22 {
		t.Errorf("ssh traffic modified: %v:%d", ssh.IP.DstIP, ssh.TCP.DstPort)
	}
}

func TestTrojanDetectorStateMachine(t *testing.T) {
	p, err := Compile("trojandetector")
	if err != nil {
		t.Fatal(err)
	}
	st := ir.NewState(p)
	host := packet.MakeIPv4Addr(10, 0, 0, 77)
	server := packet.MakeIPv4Addr(44, 44, 44, 44)

	exec := func(pkt *packet.Packet) ir.Action {
		t.Helper()
		r, err := p.Exec(&ir.Env{State: st, Pkt: pkt})
		if err != nil {
			t.Fatal(err)
		}
		return r.Action
	}

	// (1) SSH connection marks the host.
	exec(packet.BuildTCP(host, server, 4000, 22, packet.TCPOptions{Flags: packet.TCPFlagSYN}))
	if v, _ := st.MapFind("hoststate", ir.MakeMapKey(uint64(host))); len(v) == 0 || v[0] != 1 {
		t.Fatalf("hoststate after SSH = %v, want [1]", v)
	}

	// (2) HTTP download of an exe advances the machine (flow must be
	// established first via SYN).
	exec(packet.BuildTCP(host, server, 4001, 8080, packet.TCPOptions{Flags: packet.TCPFlagSYN}))
	a := exec(packet.BuildTCP(host, server, 4001, 8080, packet.TCPOptions{Flags: packet.TCPFlagACK, Payload: []byte("GET /malware.exe HTTP/1.1")}))
	if a != ir.ActionSent {
		t.Fatalf("download packet action = %v", a)
	}
	if v, _ := st.MapFind("hoststate", ir.MakeMapKey(uint64(host))); len(v) == 0 || v[0] != 2 {
		t.Fatalf("hoststate after download = %v, want [2]", v)
	}

	// (3) IRC traffic from the suspect host is blocked.
	exec(packet.BuildTCP(host, server, 4002, 6667, packet.TCPOptions{Flags: packet.TCPFlagSYN}))
	a = exec(packet.BuildTCP(host, server, 4002, 6667, packet.TCPOptions{Flags: packet.TCPFlagACK, Payload: []byte("JOIN #botnet")}))
	if a != ir.ActionDropped {
		t.Errorf("IRC packet action = %v, want dropped", a)
	}

	// An innocent host's data packets pass.
	clean := packet.MakeIPv4Addr(10, 0, 0, 78)
	exec(packet.BuildTCP(clean, server, 4003, 80, packet.TCPOptions{Flags: packet.TCPFlagSYN}))
	a = exec(packet.BuildTCP(clean, server, 4003, 80, packet.TCPOptions{Flags: packet.TCPFlagACK, Payload: []byte("GET / HTTP/1.1")}))
	if a != ir.ActionSent {
		t.Errorf("clean host packet action = %v", a)
	}

	// Data packets with no established flow drop.
	a = exec(packet.BuildTCP(clean, server, 4999, 80, packet.TCPOptions{Flags: packet.TCPFlagACK}))
	if a != ir.ActionDropped {
		t.Errorf("unestablished flow action = %v, want dropped", a)
	}
}

// TestAllMiddleboxesPartitionedEquivalence drives randomized realistic
// traffic through the reference interpreter and the partitioned pipeline
// for every middlebox and demands identical behaviour and state — the
// paper's functional-equivalence goal, end to end through the real
// compiler front end.
func TestAllMiddleboxesPartitionedEquivalence(t *testing.T) {
	for _, s := range append(All(), Spec{Name: "minilb", Source: MiniLBSource}) {
		t.Run(s.Name, func(t *testing.T) {
			p, err := Compile(s.Name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := partition.Partition(p, partition.DefaultConstraints())
			if err != nil {
				t.Fatal(err)
			}
			stRef := ir.NewState(p)
			stPart := ir.NewState(p)
			ConfigureState(s.Name, stRef)
			ConfigureState(s.Name, stPart)

			rng := rand.New(rand.NewSource(99))
			if s.Name == "firewall" {
				// Pre-install rules for half the flows we will generate.
				for i := 0; i < 32; i++ {
					tup := genTuple(rng, i)
					AllowFlow(stRef, tup)
					AllowFlow(stPart, tup)
				}
				rng = rand.New(rand.NewSource(99)) // regenerate same flows
			}
			if s.Name == "proxy" {
				RedirectPort(stRef, 80)
				RedirectPort(stPart, 80)
			}

			fast := 0
			for i := 0; i < 3000; i++ {
				tup := genTuple(rng, i)
				flags := packet.TCPFlagACK
				switch rng.Intn(10) {
				case 0:
					flags = packet.TCPFlagSYN
				case 1:
					flags = packet.TCPFlagFIN | packet.TCPFlagACK
				}
				payloads := []string{"", "GET / HTTP/1.1", "GET /a.exe HTTP/1.1", "randomdata"}
				var pktRef *packet.Packet
				if tup.Proto == packet.IPProtocolUDP {
					pktRef = packet.BuildUDP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort, []byte(payloads[rng.Intn(4)]))
				} else {
					pktRef = packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort,
						packet.TCPOptions{Flags: flags, Payload: []byte(payloads[rng.Intn(4)])})
				}
				pktPart := pktRef.Clone()

				rRef, err := p.Exec(&ir.Env{State: stRef, Pkt: pktRef})
				if err != nil {
					t.Fatalf("pkt %d (%v): reference: %v", i, tup, err)
				}
				tr, err := res.ExecPipeline(stPart, pktPart)
				if err != nil {
					t.Fatalf("pkt %d (%v): pipeline: %v", i, tup, err)
				}
				if rRef.Action != tr.Action {
					t.Fatalf("pkt %d (%v): action ref=%v part=%v", i, tup, rRef.Action, tr.Action)
				}
				for _, f := range []string{"ip.saddr", "ip.daddr", "l4.sport", "l4.dport"} {
					a, _ := pktRef.GetField(f)
					b, _ := pktPart.GetField(f)
					if a != b {
						t.Fatalf("pkt %d (%v): field %s ref=%d part=%d", i, tup, f, a, b)
					}
				}
				if tr.FastPath {
					fast++
				}
			}
			if !stRef.Equal(stPart) {
				t.Fatal("final state mismatch")
			}
			t.Logf("%s: %.1f%% fast path", s.Name, 100*float64(fast)/3000)
		})
	}
}

func genTuple(rng *rand.Rand, i int) packet.FiveTuple {
	proto := packet.IPProtocolTCP
	if rng.Intn(5) == 0 {
		proto = packet.IPProtocolUDP
	}
	// Mix of internal->external and external->internal traffic.
	src := packet.MakeIPv4Addr(10, 0, 0, byte(1+rng.Intn(30)))
	dst := packet.MakeIPv4Addr(93, 184, byte(rng.Intn(4)), byte(rng.Intn(30)))
	if rng.Intn(3) == 0 {
		src, dst = dst, packet.MakeIPv4Addr(203, 0, 113, 1)
	}
	ports := []uint16{80, 22, 443, 6667, 8080, 53}
	return packet.FiveTuple{
		SrcIP: src, DstIP: dst,
		SrcPort: uint16(1024 + rng.Intn(64)), DstPort: ports[rng.Intn(len(ports))],
		Proto: proto,
	}
}

func TestIPGatewayLPMRouting(t *testing.T) {
	p, err := Compile("ipgateway")
	if err != nil {
		t.Fatal(err)
	}
	st := ir.NewState(p)
	ConfigureState("ipgateway", st)

	exec := func(dst packet.IPv4Addr) (*packet.Packet, ir.Action) {
		t.Helper()
		pkt := packet.BuildTCP(packet.MakeIPv4Addr(1, 1, 1, 1), dst, 1, 2, packet.TCPOptions{})
		r, err := p.Exec(&ir.Env{State: st, Pkt: pkt})
		if err != nil {
			t.Fatal(err)
		}
		return pkt, r.Action
	}

	// Longest prefix wins: /24 beats /8 beats default.
	pkt, a := exec(packet.MakeIPv4Addr(10, 0, 1, 200))
	if a != ir.ActionSent || pkt.IP.DstIP != packet.MakeIPv4Addr(192, 168, 0, 3) {
		t.Errorf("/24 route: action=%v hop=%v", a, pkt.IP.DstIP)
	}
	pkt, a = exec(packet.MakeIPv4Addr(10, 9, 9, 9))
	if a != ir.ActionSent || pkt.IP.DstIP != packet.MakeIPv4Addr(192, 168, 0, 2) {
		t.Errorf("/8 route: action=%v hop=%v", a, pkt.IP.DstIP)
	}
	pkt, a = exec(packet.MakeIPv4Addr(55, 5, 5, 5))
	if a != ir.ActionSent || pkt.IP.DstIP != packet.MakeIPv4Addr(192, 168, 0, 1) {
		t.Errorf("default route: action=%v hop=%v", a, pkt.IP.DstIP)
	}
	if pkt.IP.TTL != 63 {
		t.Errorf("ttl = %d, want decremented 63", pkt.IP.TTL)
	}

	// Blocklisted source drops.
	st.MapInsert("blocklist", ir.MakeMapKey(uint64(packet.MakeIPv4Addr(6, 6, 6, 6))), []uint64{1})
	bad := packet.BuildTCP(packet.MakeIPv4Addr(6, 6, 6, 6), packet.MakeIPv4Addr(10, 0, 0, 1), 1, 2, packet.TCPOptions{})
	r, _ := p.Exec(&ir.Env{State: st, Pkt: bad})
	if r.Action != ir.ActionDropped {
		t.Errorf("blocklisted action = %v", r.Action)
	}

	// TTL 0 drops.
	dead := packet.BuildTCP(1, packet.MakeIPv4Addr(10, 0, 0, 1), 1, 2, packet.TCPOptions{})
	dead.IP.TTL = 0
	r, _ = p.Exec(&ir.Env{State: st, Pkt: dead})
	if r.Action != ir.ActionDropped {
		t.Errorf("ttl0 action = %v", r.Action)
	}
}

func TestIPGatewayFullyOffloaded(t *testing.T) {
	p, err := Compile("ipgateway")
	if err != nil {
		t.Fatal(err)
	}
	res, err := partition.Partition(p, partition.DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	// LPM matching is P4-native (§7): everything runs on the switch.
	if res.Report.NumSrv != 0 {
		t.Errorf("ipgateway: %d statements on the server, want 0", res.Report.NumSrv)
	}
	if len(res.OffloadedGlobals) != 2 {
		t.Errorf("offloaded globals = %v", res.OffloadedGlobals)
	}
}

func TestDDoSDetector(t *testing.T) {
	p, err := Compile("ddosdetector")
	if err != nil {
		t.Fatal(err)
	}
	st := ir.NewState(p)
	attacker := packet.MakeIPv4Addr(66, 6, 6, 6)
	victim := packet.MakeIPv4Addr(10, 0, 0, 1)

	exec := func(flags uint8, sport uint16) ir.Action {
		t.Helper()
		pkt := packet.BuildTCP(attacker, victim, sport, 80, packet.TCPOptions{Flags: flags})
		r, err := p.Exec(&ir.Env{State: st, Pkt: pkt})
		if err != nil {
			t.Fatal(err)
		}
		return r.Action
	}

	// 100 SYNs pass and are counted; the 101st crosses the threshold.
	for i := 0; i < 101; i++ {
		if a := exec(packet.TCPFlagSYN, uint16(1000+i)); a != ir.ActionSent {
			t.Fatalf("SYN %d action = %v", i, a)
		}
	}
	if v, _ := st.MapFind("syn_count", ir.MakeMapKey(uint64(attacker))); len(v) == 0 || v[0] != 101 {
		t.Fatalf("syn_count = %v, want 101", v)
	}
	if _, blocked := st.MapFind("blocklist", ir.MakeMapKey(uint64(attacker))); !blocked {
		t.Fatal("attacker not blocklisted after crossing the threshold")
	}
	// Every further packet from the attacker drops — including non-SYNs.
	if a := exec(packet.TCPFlagSYN, 2000); a != ir.ActionDropped {
		t.Errorf("post-block SYN action = %v", a)
	}
	if a := exec(packet.TCPFlagACK, 2000); a != ir.ActionDropped {
		t.Errorf("post-block data action = %v", a)
	}

	// A benign host is unaffected.
	benign := packet.BuildTCP(packet.MakeIPv4Addr(7, 7, 7, 7), victim, 1, 80, packet.TCPOptions{Flags: packet.TCPFlagACK})
	r, _ := p.Exec(&ir.Env{State: st, Pkt: benign})
	if r.Action != ir.ActionSent {
		t.Errorf("benign action = %v", r.Action)
	}
}

func TestExtendedPartition(t *testing.T) {
	for _, s := range Extended() {
		p, err := Compile(s.Name)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		res, err := partition.Partition(p, partition.DefaultConstraints())
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if res.Report.NumPre == 0 {
			t.Errorf("%s: nothing offloaded to pre-processing", s.Name)
		}
		t.Logf("%s: pre=%d srv=%d post=%d offload=%.0f%% affinity=%s",
			s.Name, res.Report.NumPre, res.Report.NumSrv, res.Report.NumPost,
			100*res.Report.OffloadFraction(), res.Affinity.Verdict())
	}
}

func TestTunnelLB(t *testing.T) {
	p, err := Compile("tunlb")
	if err != nil {
		t.Fatal(err)
	}
	st := ir.NewState(p)
	ConfigureState("tunlb", st)
	self := packet.MakeIPv4Addr(10, 0, 0, 1)

	exec := func(pkt *packet.Packet) {
		t.Helper()
		r, err := p.Exec(&ir.Env{State: st, Pkt: pkt})
		if err != nil {
			t.Fatal(err)
		}
		if r.Action != ir.ActionSent {
			t.Fatalf("action = %v, want sent", r.Action)
		}
	}

	// A v4 TCP flow gets GRE-encapsulated toward some backend.
	syn := packet.BuildTCP(packet.MakeIPv4Addr(172, 16, 0, 9), packet.MakeIPv4Addr(10, 0, 2, 2), 5000, 80, packet.TCPOptions{Flags: packet.TCPFlagSYN})
	exec(syn)
	if !syn.HasOuter || !syn.HasGRE {
		t.Fatal("v4 flow not GRE-encapsulated")
	}
	if syn.Outer.SrcIP != self {
		t.Errorf("outer src = %v, want %v", syn.Outer.SrcIP, self)
	}
	chosen := syn.Outer.DstIP
	found := false
	for _, b := range Backends {
		if uint64(chosen) == b {
			found = true
		}
	}
	if !found {
		t.Fatalf("outer dst %v is not a backend", chosen)
	}
	if syn.GRE.Key != 7 || !syn.GRE.HasKey {
		t.Errorf("GRE key = %d (has=%v), want 7", syn.GRE.Key, syn.GRE.HasKey)
	}
	// The inner header must be untouched — that is the point of tunneling.
	if syn.IP.DstIP != packet.MakeIPv4Addr(10, 0, 2, 2) {
		t.Errorf("inner daddr rewritten to %v", syn.IP.DstIP)
	}

	// Later packets of the flow stick to the same backend.
	for i := 0; i < 5; i++ {
		data := packet.BuildTCP(packet.MakeIPv4Addr(172, 16, 0, 9), packet.MakeIPv4Addr(10, 0, 2, 2), 5000, 80, packet.TCPOptions{Flags: packet.TCPFlagACK})
		exec(data)
		if data.Outer.DstIP != chosen {
			t.Fatalf("flow moved backend: %v then %v", chosen, data.Outer.DstIP)
		}
	}

	// A v6 flow takes the conns6 path and is encapsulated the same way
	// (outer is always IPv4).
	src6, _ := packet.ParseIPv6Addr("2001:db8::9")
	dst6, _ := packet.ParseIPv6Addr("2001:db8::80")
	p6 := packet.BuildTCP6(src6, dst6, 5000, 80, packet.TCPOptions{Flags: packet.TCPFlagSYN})
	exec(p6)
	if !p6.HasOuter || !p6.HasGRE {
		t.Fatal("v6 flow not GRE-encapsulated")
	}
	chosen6 := p6.Outer.DstIP
	for i := 0; i < 3; i++ {
		d6 := packet.BuildTCP6(src6, dst6, 5000, 80, packet.TCPOptions{Flags: packet.TCPFlagACK})
		exec(d6)
		if d6.Outer.DstIP != chosen6 {
			t.Fatalf("v6 flow moved backend")
		}
	}
	if st.Table("conns6").Len() != 1 {
		t.Errorf("conns6 entries = %d, want 1", st.Table("conns6").Len())
	}

	// Non-TCP/UDP traffic passes through unencapsulated.
	icmp := packet.BuildTCP(1, 2, 0, 0, packet.TCPOptions{})
	icmp.IP.Protocol = 1
	icmp.HasTCP = false
	exec(icmp)
	if icmp.HasOuter {
		t.Error("non-TCP/UDP traffic was encapsulated")
	}
}

// synCookie replicates the proxy's ALU-only cookie in Go.
func synCookie(src, dst packet.IPv4Addr, sport, dport uint16, secret uint32) uint32 {
	ports := uint32(sport)<<16 | uint32(dport)
	mix := uint32(src) ^ (uint32(dst) << 7) ^ (uint32(dst) >> 3)
	return (mix + ports) ^ secret
}

func TestSynProxyHandshake(t *testing.T) {
	p, err := Compile("synproxy")
	if err != nil {
		t.Fatal(err)
	}
	st := ir.NewState(p)
	ConfigureState("synproxy", st)
	secret := uint32(st.Globals["syn_secret"])
	client := packet.MakeIPv4Addr(172, 16, 0, 9)
	server := packet.MakeIPv4Addr(10, 0, 2, 2)

	exec := func(pkt *packet.Packet) ir.Action {
		t.Helper()
		r, err := p.Exec(&ir.Env{State: st, Pkt: pkt})
		if err != nil {
			t.Fatal(err)
		}
		return r.Action
	}

	// (1) First SYN: reflected as a SYN-ACK back at the client, stamped
	// with the cookie; no state is touched.
	syn := packet.BuildTCP(client, server, 5000, 80, packet.TCPOptions{Flags: packet.TCPFlagSYN, Seq: 1000})
	if a := exec(syn); a != ir.ActionSent {
		t.Fatalf("SYN action = %v", a)
	}
	if syn.IP.SrcIP != server || syn.IP.DstIP != client {
		t.Fatalf("SYN not reflected: %v -> %v", syn.IP.SrcIP, syn.IP.DstIP)
	}
	if syn.TCP.SrcPort != 80 || syn.TCP.DstPort != 5000 {
		t.Fatalf("ports not swapped: %d -> %d", syn.TCP.SrcPort, syn.TCP.DstPort)
	}
	wantCookie := synCookie(client, server, 5000, 80, secret)
	if syn.TCP.Seq != wantCookie {
		t.Fatalf("reflected seq = %#x, want cookie %#x", syn.TCP.Seq, wantCookie)
	}
	if syn.TCP.Ack != 1001 {
		t.Errorf("reflected ack = %d, want 1001", syn.TCP.Ack)
	}
	if syn.TCP.Flags != packet.TCPFlagSYN|packet.TCPFlagACK {
		t.Errorf("reflected flags = %#x", syn.TCP.Flags)
	}
	if st.Table("proven").Len() != 0 {
		t.Error("SYN touched the proven table")
	}

	// (2) ACK echoing the cookie: flow becomes proven.
	ack := packet.BuildTCP(client, server, 5000, 80, packet.TCPOptions{Flags: packet.TCPFlagACK, Ack: wantCookie + 1})
	if a := exec(ack); a != ir.ActionSent {
		t.Fatalf("valid ACK action = %v", a)
	}
	if st.Table("proven").Len() != 1 {
		t.Fatalf("proven entries = %d, want 1", st.Table("proven").Len())
	}
	if st.Globals["validated_total"] != 1 {
		t.Errorf("validated_total = %d, want 1", st.Globals["validated_total"])
	}

	// (3) Data packets of the proven flow pass.
	data := packet.BuildTCP(client, server, 5000, 80, packet.TCPOptions{Flags: packet.TCPFlagACK, Payload: []byte("GET /")})
	if a := exec(data); a != ir.ActionSent {
		t.Errorf("proven data action = %v", a)
	}
	if st.Globals["validated_total"] != 1 {
		t.Errorf("validated_total advanced on proven flow")
	}

	// (4) An ACK with a bogus cookie from an unproven flow drops.
	spoof := packet.BuildTCP(client, server, 5001, 80, packet.TCPOptions{Flags: packet.TCPFlagACK, Ack: 42})
	if a := exec(spoof); a != ir.ActionDropped {
		t.Errorf("spoofed ACK action = %v", a)
	}

	// (5) Non-TCP traffic passes untouched.
	udp := packet.BuildUDP(client, server, 53, 53, nil)
	if a := exec(udp); a != ir.ActionSent {
		t.Errorf("UDP action = %v", a)
	}
}

// TestSynProxyRule7 is the partition-shape property the scrubber exists
// to stress: validated_total is written on the server leg, so partition
// rule 7 must keep every read of it off the switch. Generalized: no
// switch-assigned statement may load a scalar global the program writes
// anywhere on its data path.
func TestSynProxyRule7(t *testing.T) {
	p, err := Compile("synproxy")
	if err != nil {
		t.Fatal(err)
	}
	res, err := partition.Partition(p, partition.DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	written := map[string]bool{}
	for _, s := range p.Fn.Stmts() {
		if s.Kind == ir.GlobalStore {
			written[s.Obj] = true
		}
	}
	if !written["validated_total"] {
		t.Fatal("synproxy no longer writes validated_total; the rule-7 property is vacuous")
	}
	for _, s := range p.Fn.Stmts() {
		if s.Kind != ir.GlobalLoad || !written[s.Obj] {
			continue
		}
		if res.Assign[s.ID] != partition.NonOff {
			t.Errorf("stmt %d loads server-written global %q on partition %v (rule 7 violation)",
				s.ID, s.Obj, res.Assign[s.ID])
		}
	}
	// The read-only secret, by contrast, is allowed on the switch; the
	// SYN-reflection leg depends on it, so requiring it on the server
	// would drag the whole scrubber off the fast path.
	if written["syn_secret"] {
		t.Error("syn_secret must stay read-only on the data path")
	}
}

func TestMSSClamp(t *testing.T) {
	p, err := Compile("mssclamp")
	if err != nil {
		t.Fatal(err)
	}
	st := ir.NewState(p)

	exec := func(pkt *packet.Packet) {
		t.Helper()
		r, err := p.Exec(&ir.Env{State: st, Pkt: pkt})
		if err != nil {
			t.Fatal(err)
		}
		if r.Action != ir.ActionSent {
			t.Fatalf("action = %v, want sent", r.Action)
		}
	}

	// Oversized MSS is clamped.
	big := packet.BuildTCP(1, 2, 3, 4, packet.TCPOptions{Flags: packet.TCPFlagSYN, MSS: 1460})
	exec(big)
	if big.TCP.MSS != 1400 {
		t.Errorf("MSS = %d, want clamped 1400", big.TCP.MSS)
	}

	// An already-small MSS is untouched.
	small := packet.BuildTCP(1, 2, 3, 4, packet.TCPOptions{Flags: packet.TCPFlagSYN, MSS: 536})
	exec(small)
	if small.TCP.MSS != 536 {
		t.Errorf("MSS = %d, want untouched 536", small.TCP.MSS)
	}

	// A SYN without the option stays without it (the accessor drops the
	// write; mss reads 0 so the clamp branch is never taken anyway).
	bare := packet.BuildTCP(1, 2, 3, 4, packet.TCPOptions{Flags: packet.TCPFlagSYN})
	exec(bare)
	if bare.TCP.HasMSS {
		t.Error("MSS option conjured onto a bare SYN")
	}

	// IPv6 SYNs are clamped through the ip6.nexthdr guard.
	src6, _ := packet.ParseIPv6Addr("2001:db8::9")
	dst6, _ := packet.ParseIPv6Addr("2001:db8::80")
	v6 := packet.BuildTCP6(src6, dst6, 3, 4, packet.TCPOptions{Flags: packet.TCPFlagSYN, MSS: 9000})
	exec(v6)
	if v6.TCP.MSS != 1400 {
		t.Errorf("v6 MSS = %d, want clamped 1400", v6.TCP.MSS)
	}

	// Non-TCP passes.
	udp := packet.BuildUDP(1, 2, 3, 4, nil)
	exec(udp)
}

func TestMSSClampFullyOffloaded(t *testing.T) {
	p, err := Compile("mssclamp")
	if err != nil {
		t.Fatal(err)
	}
	res, err := partition.Partition(p, partition.DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	// Zero state, header-only rewrites: nothing may remain on the server.
	if res.Report.NumSrv != 0 {
		t.Errorf("mssclamp: %d statements on the server, want 0", res.Report.NumSrv)
	}
}

func TestFirewall6(t *testing.T) {
	p, err := Compile("firewall6")
	if err != nil {
		t.Fatal(err)
	}
	st := ir.NewState(p)
	src6, _ := packet.ParseIPv6Addr("2001:db8::9")
	dst6, _ := packet.ParseIPv6Addr("2001:db8:1::80")
	allowed := packet.SixTuple{SrcIP: src6, DstIP: dst6, SrcPort: 1234, DstPort: 53, Proto: packet.IPProtocolUDP}
	AllowFlow6(st, allowed)

	ok6 := packet.BuildUDP6(src6, dst6, 1234, 53, nil)
	r, err := p.Exec(&ir.Env{State: st, Pkt: ok6})
	if err != nil {
		t.Fatal(err)
	}
	if r.Action != ir.ActionSent {
		t.Errorf("whitelisted v6 flow action = %v", r.Action)
	}

	// Different port: dropped.
	bad6 := packet.BuildUDP6(src6, dst6, 1234, 54, nil)
	r, _ = p.Exec(&ir.Env{State: st, Pkt: bad6})
	if r.Action != ir.ActionDropped {
		t.Errorf("non-whitelisted v6 flow action = %v", r.Action)
	}

	// v4 traffic passes through untouched (dual-stack chain position).
	v4 := packet.BuildUDP(1, 2, 3, 4, nil)
	r, _ = p.Exec(&ir.Env{State: st, Pkt: v4})
	if r.Action != ir.ActionSent {
		t.Errorf("v4 passthrough action = %v", r.Action)
	}
}

// TestNewMiddleboxesPartitionedEquivalence drives mixed v4/v6 traffic
// through the reference interpreter and the partitioned pipeline for the
// scenario-diversity middleboxes.
func TestNewMiddleboxesPartitionedEquivalence(t *testing.T) {
	for _, s := range []Spec{
		{"tunlb", TunnelLBSource},
		{"synproxy", SynProxySource},
		{"mssclamp", MSSClampSource},
		{"firewall6", FirewallV6Source},
	} {
		t.Run(s.Name, func(t *testing.T) {
			p, err := Compile(s.Name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := partition.Partition(p, partition.DefaultConstraints())
			if err != nil {
				t.Fatal(err)
			}
			stRef := ir.NewState(p)
			stPart := ir.NewState(p)
			ConfigureState(s.Name, stRef)
			ConfigureState(s.Name, stPart)

			rng := rand.New(rand.NewSource(77))
			if s.Name == "firewall6" {
				for i := 0; i < 32; i++ {
					tup := genTuple6(rng)
					AllowFlow6(stRef, tup)
					AllowFlow6(stPart, tup)
				}
				rng = rand.New(rand.NewSource(77))
			}
			secret := uint32(stRef.Globals["syn_secret"])

			fast := 0
			for i := 0; i < 3000; i++ {
				var pktRef *packet.Packet
				if rng.Intn(2) == 0 {
					tup := genTuple(rng, i)
					opt := packet.TCPOptions{Flags: packet.TCPFlagACK}
					switch rng.Intn(5) {
					case 0:
						opt.Flags = packet.TCPFlagSYN
						opt.MSS = uint16(500 + rng.Intn(9000))
					case 1:
						// A well-formed cookie echo so synproxy's insert
						// leg is exercised.
						opt.Ack = synCookie(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort, secret) + 1
					}
					if tup.Proto == packet.IPProtocolUDP {
						pktRef = packet.BuildUDP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort, nil)
					} else {
						pktRef = packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort, opt)
					}
				} else {
					tup := genTuple6(rng)
					opt := packet.TCPOptions{Flags: packet.TCPFlagACK}
					if rng.Intn(5) == 0 {
						opt.Flags = packet.TCPFlagSYN
						opt.MSS = uint16(500 + rng.Intn(9000))
					}
					if tup.Proto == packet.IPProtocolUDP {
						pktRef = packet.BuildUDP6(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort, nil)
					} else {
						pktRef = packet.BuildTCP6(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort, opt)
					}
				}
				pktPart := pktRef.Clone()

				rRef, err := p.Exec(&ir.Env{State: stRef, Pkt: pktRef})
				if err != nil {
					t.Fatalf("pkt %d: reference: %v", i, err)
				}
				tr, err := res.ExecPipeline(stPart, pktPart)
				if err != nil {
					t.Fatalf("pkt %d: pipeline: %v", i, err)
				}
				if rRef.Action != tr.Action {
					t.Fatalf("pkt %d: action ref=%v part=%v", i, rRef.Action, tr.Action)
				}
				for _, f := range []string{"ip.saddr", "ip.daddr", "l4.sport", "l4.dport",
					"ip6.saddr_lo", "ip6.daddr_lo", "tun.mode", "tun.dst", "tun.key", "tcp.mss"} {
					a, _ := pktRef.GetField(f)
					b, _ := pktPart.GetField(f)
					if a != b {
						t.Fatalf("pkt %d: field %s ref=%d part=%d", i, f, a, b)
					}
				}
				if tr.FastPath {
					fast++
				}
			}
			if !stRef.Equal(stPart) {
				t.Fatal("final state mismatch")
			}
			t.Logf("%s: %.1f%% fast path", s.Name, 100*float64(fast)/3000)
		})
	}
}

func genTuple6(rng *rand.Rand) packet.SixTuple {
	proto := packet.IPProtocolTCP
	if rng.Intn(5) == 0 {
		proto = packet.IPProtocolUDP
	}
	src := packet.MakeIPv6Addr(0x20010db8<<32, uint64(1+rng.Intn(30)))
	dst := packet.MakeIPv6Addr(0x20010db8<<32|1, uint64(1+rng.Intn(8)))
	ports := []uint16{80, 22, 443, 6667, 8080, 53}
	return packet.SixTuple{
		SrcIP: src, DstIP: dst,
		SrcPort: uint16(1024 + rng.Intn(64)), DstPort: ports[rng.Intn(len(ports))],
		Proto: proto,
	}
}

func TestDDoSDetectorPartitionAndEquivalence(t *testing.T) {
	p, err := Compile("ddosdetector")
	if err != nil {
		t.Fatal(err)
	}
	res, err := partition.Partition(p, partition.DefaultConstraints())
	if err != nil {
		t.Fatal(err)
	}
	// The blocklist check and the SYN test run on the switch; counting
	// (map writes) stays on the server. Blocked-source drops and non-SYN
	// forwards are fast paths.
	blockStmt, ok := res.SwitchAccess["blocklist"]
	if !ok {
		t.Fatal("blocklist not offloaded")
	}
	if res.Prog.Fn.Stmt(blockStmt).Kind != ir.MapFind {
		t.Error("offloaded blocklist access should be the lookup")
	}

	stRef := ir.NewState(p)
	stPart := ir.NewState(p)
	rng := rand.New(rand.NewSource(21))
	fast := 0
	for i := 0; i < 3000; i++ {
		src := packet.MakeIPv4Addr(50, 0, 0, byte(1+rng.Intn(6)))
		flags := packet.TCPFlagACK
		if rng.Intn(3) == 0 {
			flags = packet.TCPFlagSYN
		}
		pktRef := packet.BuildTCP(src, packet.MakeIPv4Addr(10, 0, 0, 1), uint16(rng.Intn(100)), 80, packet.TCPOptions{Flags: flags})
		pktPart := pktRef.Clone()
		rRef, err := p.Exec(&ir.Env{State: stRef, Pkt: pktRef})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := res.ExecPipeline(stPart, pktPart)
		if err != nil {
			t.Fatal(err)
		}
		if rRef.Action != tr.Action {
			t.Fatalf("pkt %d: action ref=%v part=%v", i, rRef.Action, tr.Action)
		}
		if tr.FastPath {
			fast++
		}
	}
	if !stRef.Equal(stPart) {
		t.Fatal("state mismatch")
	}
	// With ~1/3 SYNs and six hot sources crossing the threshold quickly,
	// most traffic ends up fast-pathed (blocked drops + data forwards).
	if float64(fast)/3000 < 0.5 {
		t.Errorf("fast path only %d/3000", fast)
	}
	t.Logf("ddosdetector: %.1f%% fast path, blocked=%d sources", 100*float64(fast)/3000, stRef.Table("blocklist").Len())
}

// TestStateSeedingHelpers checks that every helper that installs state by
// hand (AllowFlow, AllowFlow6, ProveFlow, RedirectPort) uses the same key
// layout as the middlebox source it targets: seed state through the
// helper, run the real program, and require the seeded entry to match.
func TestStateSeedingHelpers(t *testing.T) {
	exec := func(t *testing.T, name string, st *ir.State, pkt *packet.Packet) ir.Action {
		t.Helper()
		p, err := Compile(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := p.Exec(&ir.Env{State: st, Pkt: pkt})
		if err != nil {
			t.Fatal(err)
		}
		return r.Action
	}
	newState := func(t *testing.T, name string) *ir.State {
		t.Helper()
		p, err := Compile(name)
		if err != nil {
			t.Fatal(err)
		}
		return ir.NewState(p)
	}

	t.Run("AllowFlow", func(t *testing.T) {
		// External source → wl_in; internal (10.x) source → wl_out.
		ext := packet.FiveTuple{SrcIP: packet.MakeIPv4Addr(50, 0, 0, 1), DstIP: packet.MakeIPv4Addr(10, 0, 0, 2),
			SrcPort: 9999, DstPort: 80, Proto: packet.IPProtocolTCP}
		intl := ext.Reverse()
		st := newState(t, "firewall")
		AllowFlow(st, ext)
		AllowFlow(st, intl)
		if st.Table("wl_in").Len() != 1 || st.Table("wl_out").Len() != 1 {
			t.Fatalf("wl_in=%d wl_out=%d entries", st.Table("wl_in").Len(), st.Table("wl_out").Len())
		}
		pkt := packet.BuildTCP(ext.SrcIP, ext.DstIP, ext.SrcPort, ext.DstPort, packet.TCPOptions{})
		if got := exec(t, "firewall", st, pkt); got != ir.ActionSent {
			t.Errorf("allowed inbound flow got %v", got)
		}
	})

	t.Run("AllowFlow6", func(t *testing.T) {
		tup := packet.SixTuple{
			SrcIP: packet.MakeIPv6Addr(0x20010DB8<<32, 1), DstIP: packet.MakeIPv6Addr(0x20010DB8<<32, 2),
			SrcPort: 1234, DstPort: 80, Proto: packet.IPProtocolTCP,
		}
		st := newState(t, "firewall6")
		AllowFlow6(st, tup)
		allowed := packet.BuildTCP6(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort, packet.TCPOptions{})
		if got := exec(t, "firewall6", st, allowed); got != ir.ActionSent {
			t.Errorf("whitelisted v6 flow got %v", got)
		}
		other := packet.BuildTCP6(tup.SrcIP, tup.DstIP, tup.SrcPort+1, tup.DstPort, packet.TCPOptions{})
		if got := exec(t, "firewall6", st, other); got != ir.ActionDropped {
			t.Errorf("non-whitelisted v6 flow got %v", got)
		}
	})

	t.Run("ProveFlow", func(t *testing.T) {
		tup := packet.FiveTuple{SrcIP: packet.MakeIPv4Addr(50, 0, 0, 1), DstIP: packet.MakeIPv4Addr(10, 0, 0, 2),
			SrcPort: 1234, DstPort: 80, Proto: packet.IPProtocolTCP}
		data := packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort,
			packet.TCPOptions{Flags: packet.TCPFlagPSH, Payload: []byte("data")})
		st := newState(t, "synproxy")
		ConfigureState("synproxy", st)
		if got := exec(t, "synproxy", st, data.Clone()); got != ir.ActionDropped {
			t.Fatalf("unproven data packet got %v, want drop", got)
		}
		ProveFlow(st, tup)
		if got := exec(t, "synproxy", st, data.Clone()); got != ir.ActionSent {
			t.Errorf("proven data packet got %v, want send", got)
		}
	})

	t.Run("RedirectPort", func(t *testing.T) {
		st := newState(t, "proxy")
		RedirectPort(st, 80)
		RedirectPort(st, 8080)
		if st.Table("redirect_ports").Len() != 2 {
			t.Fatalf("redirect_ports has %d entries", st.Table("redirect_ports").Len())
		}
	})
}

// TestConfigureShard checks the per-shard partitioning of the NAT's port
// allocator: disjoint starting offsets per shard, and no partitioning for
// single-shard runs or middleboxes without scalar allocators.
func TestConfigureShard(t *testing.T) {
	seen := map[uint64]bool{}
	for shard := 0; shard < 4; shard++ {
		st := newStateFor(t, "mazunat")
		ConfigureShard("mazunat", shard, 4, st)
		start := st.Globals["next_port"]
		if seen[start] {
			t.Fatalf("shard %d reuses allocator start %d", shard, start)
		}
		seen[start] = true
	}
	single := newStateFor(t, "mazunat")
	ConfigureShard("mazunat", 0, 1, single)
	if single.Globals["next_port"] != 0 {
		t.Error("single-shard run repartitioned the allocator")
	}
	oob := newStateFor(t, "mazunat")
	ConfigureShard("mazunat", 9, 4, oob)
	if oob.Globals["next_port"] != 0 {
		t.Error("out-of-range shard index repartitioned the allocator")
	}
	lb := newStateFor(t, "l4lb")
	ConfigureShard("l4lb", 1, 4, lb)
	if len(lb.Vecs["backends"]) == 0 {
		t.Error("ConfigureShard skipped ConfigureState")
	}
}

func newStateFor(t *testing.T, name string) *ir.State {
	t.Helper()
	p, err := Compile(name)
	if err != nil {
		t.Fatal(err)
	}
	return ir.NewState(p)
}
