// Package middleboxes contains the MiniClick sources of the paper's five
// evaluation middleboxes (§6.1) — MazuNAT, an L4 load balancer, a
// firewall, a transparent proxy, and a Trojan detector — plus the MiniLB
// running example of §4, together with the runtime configuration each one
// needs (backend pools, whitelists, redirect ports).
package middleboxes

import (
	"fmt"

	"gallium/internal/ir"
	"gallium/internal/lang"
	"gallium/internal/packet"
)

// MiniLBSource is the §4 running example: consistent-hash load balancing
// with a connection-consistency map.
const MiniLBSource = `
middlebox minilb {
    map<u16 -> u32> conn(max = 65536);
    vec<u32> backends(max = 16);

    proc process(pkt p) {
        u32 hash32 = p.ip.saddr ^ p.ip.daddr;
        u16 key = (u16)(hash32 & 0xFFFF);
        let bk = conn.find(key);
        if (bk.ok) {
            p.ip.daddr = bk.v0;
            send(p);
        } else {
            u32 idx = hash32 % backends.size();
            u32 addr = backends[idx];
            p.ip.daddr = addr;
            conn.insert(key, addr);
            send(p);
        }
    }
}
`

// MazuNATSource is the NAT gateway: traffic from the internal network gets
// a fresh external port from a monotonic counter and both direction
// mappings are recorded; traffic from outside is translated back through
// the reverse table or dropped (§6.1).
const MazuNATSource = `
middlebox mazunat {
    // Bidirectional address translation tables.
    map<u32,u16 -> u16> nat_fwd(max = 65536);
    map<u16 -> u32,u16> nat_rev(max = 65536);
    // Monotonic external-port allocator (offloaded as a P4 register).
    global u16 next_port;
    const u32 EXT_IP = ip(203, 0, 113, 1);
    const u32 INTERNAL_NET = 10;

    proc process(pkt p) {
        if (p.ip.proto != PROTO_TCP && p.ip.proto != PROTO_UDP) {
            drop(p);
        }
        u32 srcnet = p.ip.saddr >> 24;
        if (srcnet == INTERNAL_NET) {
            u32 isrc = p.ip.saddr;
            u16 iport = p.l4.sport;
            let m = nat_fwd.find(isrc, iport);
            if (m.ok) {
                p.ip.saddr = EXT_IP;
                p.l4.sport = m.v0;
                send(p);
            } else {
                u16 port = next_port;
                next_port = port + 1;
                nat_fwd.insert(isrc, iport, port);
                nat_rev.insert(port, isrc, iport);
                p.ip.saddr = EXT_IP;
                p.l4.sport = port;
                send(p);
            }
        } else {
            let m = nat_rev.find(p.l4.dport);
            if (m.ok) {
                p.ip.daddr = m.v0;
                p.l4.dport = m.v1;
                send(p);
            } else {
                drop(p);
            }
        }
    }
}
`

// LoadBalancerSource is the L4 load balancer: five-tuple connection
// consistency with hash-based backend assignment; FIN/RST garbage-collect
// the connection entry on the server (§6.1). Idle-timeout GC runs as a
// control-plane sweep in the runtime, not per packet.
const LoadBalancerSource = `
middlebox l4lb {
    map<u32,u32,u16,u16,u8 -> u32> conns(max = 65536);
    vec<u32> backends(max = 64);

    proc process(pkt p) {
        u8 proto = p.ip.proto;
        if (proto != PROTO_TCP && proto != PROTO_UDP) {
            send(p);
        }
        let c = conns.find(p.ip.saddr, p.ip.daddr, p.l4.sport, p.l4.dport, proto);
        u8 fin = p.tcp.flags & (u8)(TCP_FIN | TCP_RST);
        if (c.ok) {
            if (fin != 0) {
                // Connection teardown: garbage-collect (keyed on the
                // original headers), then rewrite.
                conns.remove(p.ip.saddr, p.ip.daddr, p.l4.sport, p.l4.dport, proto);
                p.ip.daddr = c.v0;
                send(p);
            } else {
                p.ip.daddr = c.v0;
                send(p);
            }
        } else {
            u32 h = hash(p.ip.saddr, p.ip.daddr, p.l4.sport, p.l4.dport, proto);
            u32 idx = h % backends.size();
            u32 bk = backends[idx];
            conns.insert(p.ip.saddr, p.ip.daddr, p.l4.sport, p.l4.dport, proto, bk);
            p.ip.daddr = bk;
            send(p);
        }
    }
}
`

// FirewallSource is the whitelist firewall adapted from the Click paper:
// two match tables filter the two traffic directions; misses drop (§6.1).
const FirewallSource = `
middlebox firewall {
    map<u32,u32,u16,u16,u8 -> u8> wl_out(max = 4096);
    map<u32,u32,u16,u16,u8 -> u8> wl_in(max = 4096);
    const u32 INTERNAL_NET = 10;

    proc process(pkt p) {
        u32 srcnet = p.ip.saddr >> 24;
        if (srcnet == INTERNAL_NET) {
            if (wl_out.contains(p.ip.saddr, p.ip.daddr, p.l4.sport, p.l4.dport, p.ip.proto)) {
                send(p);
            } else {
                drop(p);
            }
        } else {
            if (wl_in.contains(p.ip.saddr, p.ip.daddr, p.l4.sport, p.l4.dport, p.ip.proto)) {
                send(p);
            } else {
                drop(p);
            }
        }
    }
}
`

// ProxySource is the transparent proxy: TCP packets to registered ports
// are steered to the web proxy; everything else passes through (§6.1).
const ProxySource = `
middlebox proxy {
    map<u16 -> u8> redirect_ports(max = 1024);
    const u32 PROXY_IP = ip(10, 0, 0, 99);
    const u16 PROXY_PORT = 3128;

    proc process(pkt p) {
        if (p.ip.proto != PROTO_TCP) {
            send(p);
        }
        if (redirect_ports.contains(p.tcp.dport)) {
            p.ip.daddr = PROXY_IP;
            p.tcp.dport = PROXY_PORT;
            send(p);
        } else {
            send(p);
        }
    }
}
`

// TrojanDetectorSource tracks per-flow TCP state plus a per-host state
// machine for the SSH → file-download → IRC trojan signature (§6.1): data
// packets of established flows from unsuspicious hosts take the fast path;
// control packets and suspect-host packets visit the server.
const TrojanDetectorSource = `
middlebox trojandetector {
    map<u32,u32,u16,u16 -> u8> flows(max = 65536);
    map<u32 -> u8> hoststate(max = 65536);
    const u16 SSH_PORT = 22;
    const u16 IRC_PORT = 6667;

    proc process(pkt p) {
        if (p.ip.proto != PROTO_TCP) {
            send(p);
        }
        u8 ctl = p.tcp.flags & (u8)(TCP_SYN | TCP_FIN | TCP_RST);
        if (ctl != 0) {
            // Connection control: maintain the flow table and advance the
            // per-host machine when an SSH connection starts.
            if ((p.tcp.flags & (u8)TCP_SYN) != 0) {
                flows.insert(p.ip.saddr, p.ip.daddr, p.tcp.sport, p.tcp.dport, 1);
                if (p.tcp.dport == SSH_PORT) {
                    hoststate.insert(p.ip.saddr, 1);
                }
            } else {
                flows.remove(p.ip.saddr, p.ip.daddr, p.tcp.sport, p.tcp.dport);
            }
            send(p);
        } else {
            let f = flows.find(p.ip.saddr, p.ip.daddr, p.tcp.sport, p.tcp.dport);
            if (!f.ok) {
                drop(p);
            } else {
                let h = hoststate.find(p.ip.saddr);
                if (!h.ok) {
                    send(p);
                } else {
                    if (h.v0 == 1) {
                        if (payload_contains(".exe") || payload_contains(".zip") || payload_contains("HTTP")) {
                            hoststate.insert(p.ip.saddr, 2);
                        }
                        send(p);
                    } else {
                        if (p.tcp.dport == IRC_PORT) {
                            drop(p);
                        } else {
                            send(p);
                        }
                    }
                }
            }
        }
    }
}
`

// IPGatewaySource is a sixth middlebox exercising the §7 LPM extension:
// an IP gateway that blocklists sources, drops expired packets, and
// routes by longest destination prefix to a next hop — entirely on the
// switch (P4 supports LPM match natively).
const IPGatewaySource = `
middlebox ipgateway {
    lpm<u32 -> u32> routes(max = 256);
    map<u32 -> u8> blocklist(max = 4096);

    proc process(pkt p) {
        if (blocklist.contains(p.ip.saddr)) {
            drop(p);
        }
        if (p.ip.ttl == 0) {
            drop(p);
        }
        let r = routes.lookup(p.ip.daddr);
        if (r.ok) {
            p.ip.ttl = p.ip.ttl - 1;
            p.ip.daddr = r.v0;
            send(p);
        } else {
            drop(p);
        }
    }
}
`

// DDoSDetectorSource implements the paper's §1 motivating use case of
// in-network DDoS detection: per-source SYN counting with a threshold.
// Sources that exceed the threshold land on a blocklist the switch
// enforces — once a source is blocked, every further packet from it is
// dropped on the fast path, which is exactly the attack traffic you want
// off the server. Counting itself is state-update-heavy, so SYNs visit
// the server; established-flow data packets pass on the switch.
const DDoSDetectorSource = `
middlebox ddosdetector {
    map<u32 -> u32> syn_count(max = 65536);
    map<u32 -> u8> blocklist(max = 65536);
    const u32 THRESHOLD = 100;

    // Count one SYN and block the source when it crosses the threshold;
    // inlined into process().
    proc count_syn(pkt q) {
        let c = syn_count.find(q.ip.saddr);
        if (c.ok) {
            u32 n = c.v0 + 1;
            syn_count.insert(q.ip.saddr, n);
            if (n > THRESHOLD) {
                blocklist.insert(q.ip.saddr, 1);
            }
        } else {
            syn_count.insert(q.ip.saddr, 1);
        }
        send(q);
    }

    proc process(pkt p) {
        if (blocklist.contains(p.ip.saddr)) {
            drop(p);
        }
        if (p.ip.proto != PROTO_TCP) {
            send(p);
        }
        if ((p.tcp.flags & (u8)TCP_SYN) != 0) {
            count_syn(p);
        }
        send(p);
    }
}
`

// TunnelLBSource is a tunneling L4 load balancer: instead of rewriting
// the destination address (which breaks direct server return), it GRE-
// encapsulates each packet toward its backend, keeping per-flow backend
// affinity in a connection table. IPv4 flows key the table on the exact
// five-tuple — the flow-affinity certificate proves those entries are
// flow-owned — while IPv6 flows key a second table on the 128-bit
// addresses split into hi/lo halves.
const TunnelLBSource = `
middlebox tunlb {
    map<u32,u32,u16,u16,u8 -> u32> conns4(max = 65536);
    map<u64,u64,u64,u64,u16,u16,u8 -> u32> conns6(max = 65536);
    vec<u32> reals(max = 64);
    const u32 SELF_IP = ip(10, 0, 0, 1);
    const u32 VIP_KEY = 7;

    proc process(pkt p) {
        if (p.ip6.present) {
            u8 nh = p.ip6.nexthdr;
            if (nh != PROTO_TCP && nh != PROTO_UDP) {
                send(p);
            }
            let c6 = conns6.find(p.ip6.saddr_hi, p.ip6.saddr_lo, p.ip6.daddr_hi, p.ip6.daddr_lo, p.l4.sport, p.l4.dport, nh);
            if (c6.ok) {
                p.tun.mode = TUN_GRE;
                p.tun.src = SELF_IP;
                p.tun.dst = c6.v0;
                p.tun.key = VIP_KEY;
                send(p);
            } else {
                u32 h6 = hash(p.ip6.saddr_hi, p.ip6.saddr_lo, p.ip6.daddr_hi, p.ip6.daddr_lo, p.l4.sport, p.l4.dport, nh);
                u32 idx6 = h6 % reals.size();
                u32 real6 = reals[idx6];
                conns6.insert(p.ip6.saddr_hi, p.ip6.saddr_lo, p.ip6.daddr_hi, p.ip6.daddr_lo, p.l4.sport, p.l4.dport, nh, real6);
                p.tun.mode = TUN_GRE;
                p.tun.src = SELF_IP;
                p.tun.dst = real6;
                p.tun.key = VIP_KEY;
                send(p);
            }
        }
        u8 proto = p.ip.proto;
        if (proto != PROTO_TCP && proto != PROTO_UDP) {
            send(p);
        }
        let c = conns4.find(p.ip.saddr, p.ip.daddr, p.l4.sport, p.l4.dport, proto);
        if (c.ok) {
            p.tun.mode = TUN_GRE;
            p.tun.src = SELF_IP;
            p.tun.dst = c.v0;
            p.tun.key = VIP_KEY;
            send(p);
        } else {
            u32 h = hash(p.ip.saddr, p.ip.daddr, p.l4.sport, p.l4.dport, proto);
            u32 idx = h % reals.size();
            u32 real = reals[idx];
            conns4.insert(p.ip.saddr, p.ip.daddr, p.l4.sport, p.l4.dport, proto, real);
            p.tun.mode = TUN_GRE;
            p.tun.src = SELF_IP;
            p.tun.dst = real;
            p.tun.key = VIP_KEY;
            send(p);
        }
    }
}
`

// SynProxySource is a SYN-cookie DDoS scrubber. A first SYN never reaches
// the protected server: the proxy reflects a SYN-ACK whose sequence
// number is an ALU-only cookie over the flow tuple and a secret (shifts
// and xors, no hash() — the whole reflection leg must stay on the
// switch). A client that echoes the cookie in its ACK is recorded in the
// proven table; data packets of proven flows pass on the switch via the
// replicated table (§4.3.3 write-back). The validated_total counter is a
// scalar global written on the server leg and read on the admission
// check — partition rule 7 must therefore keep that read off the switch.
const SynProxySource = `
middlebox synproxy {
    map<u32,u32,u16,u16,u8 -> u8> proven(max = 65536);
    global u32 syn_secret;
    global u32 validated_total;
    const u32 CAPACITY = 60000;

    proc process(pkt p) {
        if (p.ip.proto != PROTO_TCP) {
            send(p);
        }
        u32 ports = ((u32)p.l4.sport << 16) | (u32)p.l4.dport;
        u32 mix = p.ip.saddr ^ (p.ip.daddr << 7) ^ (p.ip.daddr >> 3);
        u32 cookie = (mix + ports) ^ syn_secret;
        u8 ctl = p.tcp.flags & (u8)(TCP_SYN | TCP_ACK);
        if (ctl == (u8)TCP_SYN) {
            // First SYN: reflect a SYN-ACK carrying the cookie back at the
            // client without touching any state.
            u32 osrc = p.ip.saddr;
            u16 oport = p.tcp.sport;
            p.ip.saddr = p.ip.daddr;
            p.ip.daddr = osrc;
            p.tcp.sport = p.tcp.dport;
            p.tcp.dport = oport;
            p.tcp.ack = p.tcp.seq + 1;
            p.tcp.seq = cookie;
            p.tcp.flags = (u8)(TCP_SYN | TCP_ACK);
            send(p);
        }
        if (proven.contains(p.ip.saddr, p.ip.daddr, p.l4.sport, p.l4.dport, p.ip.proto)) {
            send(p);
        }
        if (ctl == (u8)(TCP_SYN | TCP_ACK)) {
            send(p);
        }
        if ((p.tcp.flags & (u8)TCP_ACK) != 0) {
            u32 echo = p.tcp.ack - 1;
            if (echo == cookie && validated_total < CAPACITY) {
                validated_total = validated_total + 1;
                proven.insert(p.ip.saddr, p.ip.daddr, p.l4.sport, p.l4.dport, p.ip.proto, 1);
                send(p);
            } else {
                drop(p);
            }
        }
        drop(p);
    }
}
`

// MSSClampSource rewrites oversized TCP MSS options down to a tunnel-
// safe maximum — the classic fix for PMTU blackholes behind an encap
// hop. It keeps no state at all, so the whole program lands on the
// switch, and the clamp gives the interval analysis a field whose range
// provably narrows to [0, MSS_MAX]. The tcp.mss accessor reads 0 when
// the segment carries no MSS option, so non-SYN segments fall through
// the comparison untouched.
const MSSClampSource = `
middlebox mssclamp {
    const u16 MSS_MAX = 1400;

    proc process(pkt p) {
        if (p.ip.proto != PROTO_TCP && p.ip6.nexthdr != PROTO_TCP) {
            send(p);
        }
        u16 mss = p.tcp.mss;
        if (mss > MSS_MAX) {
            p.tcp.mss = MSS_MAX;
        }
        send(p);
    }
}
`

// FirewallV6Source is the whitelist firewall's IPv6 variant: one match
// table keyed on the 128-bit addresses as hi/lo u64 halves plus the
// transport ports and next header. Non-IPv6 traffic passes untouched so
// the box can sit in a dual-stack chain in front of the v4 firewall.
const FirewallV6Source = `
middlebox firewall6 {
    map<u64,u64,u64,u64,u16,u16,u8 -> u8> wl6(max = 4096);

    proc process(pkt p) {
        if (!p.ip6.present) {
            send(p);
        }
        if (wl6.contains(p.ip6.saddr_hi, p.ip6.saddr_lo, p.ip6.daddr_hi, p.ip6.daddr_lo, p.l4.sport, p.l4.dport, p.ip6.nexthdr)) {
            send(p);
        } else {
            drop(p);
        }
    }
}
`

// Spec names one middlebox and its source.
type Spec struct {
	Name   string
	Source string
}

// All returns the five evaluation middleboxes in the paper's Table 1
// order.
func All() []Spec {
	return []Spec{
		{"mazunat", MazuNATSource},
		{"l4lb", LoadBalancerSource},
		{"firewall", FirewallSource},
		{"proxy", ProxySource},
		{"trojandetector", TrojanDetectorSource},
	}
}

// Extended returns every middlebox the harnesses exercise: the paper
// five plus the scenario-diversity additions — the tunneling load
// balancer, the SYN-cookie scrubber, the MSS clamper, and the IPv6
// firewall variant. Evaluation outputs that reproduce the paper's
// tables keep using All(); tests that want breadth use this.
func Extended() []Spec {
	return append(All(),
		Spec{"tunlb", TunnelLBSource},
		Spec{"synproxy", SynProxySource},
		Spec{"mssclamp", MSSClampSource},
		Spec{"firewall6", FirewallV6Source},
	)
}

// Builtins returns every middlebox Lookup accepts: "minilb", the
// LPM-based "ipgateway", the extended set, and "ddosdetector".
func Builtins() []Spec {
	specs := append([]Spec{
		{"minilb", MiniLBSource},
		{"ipgateway", IPGatewaySource},
	}, Extended()...)
	return append(specs, Spec{"ddosdetector", DDoSDetectorSource})
}

// Lookup returns the named middlebox spec, one of Builtins.
func Lookup(name string) (Spec, error) {
	for _, s := range Builtins() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("middleboxes: unknown middlebox %q", name)
}

// Compile parses and lowers the named middlebox.
func Compile(name string) (*ir.Program, error) {
	s, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return lang.Compile(s.Source)
}

// The simulated deployment: internal hosts live in 10.0.0.0/8, backends in
// 10.0.1.0/24, external peers outside.
var (
	// Backends is the server pool used by the load balancers.
	Backends = []uint64{
		uint64(packet.MakeIPv4Addr(10, 0, 1, 1)),
		uint64(packet.MakeIPv4Addr(10, 0, 1, 2)),
		uint64(packet.MakeIPv4Addr(10, 0, 1, 3)),
		uint64(packet.MakeIPv4Addr(10, 0, 1, 4)),
	}
)

// ConfigureState seeds the middlebox's runtime state: backend pools for
// the load balancers; nothing for the others (firewall rules and proxy
// ports are installed per scenario via AllowFlow / RedirectPort).
func ConfigureState(name string, st *ir.State) {
	switch name {
	case "minilb", "l4lb":
		st.Vecs["backends"] = append([]uint64(nil), Backends...)
	case "tunlb":
		st.Vecs["reals"] = append([]uint64(nil), Backends...)
	case "synproxy":
		// A fixed nonzero secret: deterministic across runs so the oracle,
		// the sharded engine, and the difftest traces all agree on cookies.
		st.Globals["syn_secret"] = 0x5EC2E7
	case "ipgateway":
		// Default route plus two nested prefixes (longest wins).
		st.AddRoute("routes", 0, 0, uint64(packet.MakeIPv4Addr(192, 168, 0, 1)))
		st.AddRoute("routes", uint64(packet.MakeIPv4Addr(10, 0, 0, 0)), 8, uint64(packet.MakeIPv4Addr(192, 168, 0, 2)))
		st.AddRoute("routes", uint64(packet.MakeIPv4Addr(10, 0, 1, 0)), 24, uint64(packet.MakeIPv4Addr(192, 168, 0, 3)))
	}
}

// ConfigureShard seeds one shard of a multi-worker deployment:
// ConfigureState plus per-shard partitioning of allocator globals. Flow
// state (NAT bindings, LB connections) shards cleanly under flow-hash
// dispatch, but the NAT's monotonic external-port allocator is a scalar:
// identical copies on every shard would hand out colliding external
// ports. Each shard therefore starts its allocator in a disjoint slice of
// the port space — the way multi-core NATs partition port ranges per
// core — so concurrently allocated ports never collide across shards.
func ConfigureShard(name string, shard, total int, st *ir.State) {
	ConfigureState(name, st)
	if total <= 1 || shard < 0 || shard >= total {
		return
	}
	if name == "mazunat" {
		st.Globals["next_port"] = uint64(shard) * uint64(65536/total)
	}
}

// AllowFlow installs a firewall whitelist rule for the given five-tuple
// (both tables keep the same orientation as the packet headers).
func AllowFlow(st *ir.State, t packet.FiveTuple) {
	table := "wl_in"
	if byte(t.SrcIP>>24) == 10 {
		table = "wl_out"
	}
	mark(st, table, ir.MakeMapKey(uint64(t.SrcIP), uint64(t.DstIP), uint64(t.SrcPort), uint64(t.DstPort), uint64(t.Proto)))
}

// AllowFlow6 installs an IPv6 whitelist rule for firewall6, keyed the
// way wl6 is: address hi/lo halves, transport ports, next header.
func AllowFlow6(st *ir.State, t packet.SixTuple) {
	mark(st, "wl6", ir.MakeMapKey(t.SrcIP.Hi(), t.SrcIP.Lo(), t.DstIP.Hi(), t.DstIP.Lo(),
		uint64(t.SrcPort), uint64(t.DstPort), uint64(t.Proto)))
}

// ProveFlow marks a flow as having completed the SYN-cookie handshake,
// keyed the way synproxy's proven table is. Installing it directly puts
// the flow on the scrubber's steady-state pass-through path without
// replaying the cookie exchange.
func ProveFlow(st *ir.State, t packet.FiveTuple) {
	mark(st, "proven", ir.MakeMapKey(uint64(t.SrcIP), uint64(t.DstIP), uint64(t.SrcPort), uint64(t.DstPort), uint64(t.Proto)))
}

// RedirectPort registers a destination port with the transparent proxy.
func RedirectPort(st *ir.State, port uint16) {
	mark(st, "redirect_ports", ir.MakeMapKey(uint64(port)))
}

// mark stores the value 1 under key in the named map, as configuration:
// no lifecycle hears of it (a flow-state tracker adopts it at its next
// sweep). A state whose program declares no such map, or one of another
// shape, is left alone.
func mark(st *ir.State, table string, key ir.MapKey) {
	if tb := st.Table(table); tb != nil {
		_, _ = tb.Put(&key, []uint64{1})
	}
}
