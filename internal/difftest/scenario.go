package difftest

import (
	"fmt"
	"strconv"

	"gallium/internal/packet"
)

// ---------------------------------------------------------------------------
// Scenario diversity
//
// The plain generator exercises the v4 substrate. The scenario layer,
// drawn after every other GenProgram decision, steers a fraction of the
// seeds toward the IPv6 / tunnel-encapsulation substrate and toward the
// scenario-middlebox shapes (tunneling LB, SYN proxy, MSS clamper), with
// a matching trace transformation so the new code paths actually execute
// rather than sitting behind never-true guards.
// ---------------------------------------------------------------------------

// applyScenario runs the scenario draws at the end of GenProgram. Modes
// whose traces carry IPv6 packets clear ShardSafe and Expiry: the
// captured v4 flow tuple reads zero on v6 packets, so distinct v6 flows
// would alias onto one "shard-safe" map key while dispatch separates
// them, and the flow lifecycle is specified over the same v4 tuple. The
// encap overlay keeps both — outer headers never feed map keys.
func applyScenario(spec *ProgramSpec, r *rng) {
	switch {
	case r.pct(5):
		synProxyTemplate(spec, r)
	case r.pct(5):
		tunLBTemplate(spec, r)
	case r.pct(5):
		mssClampTemplate(spec, r)
	case r.pct(9):
		v6Overlay(spec, r)
	case r.pct(9):
		encapOverlay(spec, r)
	}
}

// insertBeforeSend splices extra statements in front of the body's final
// send terminator.
func insertBeforeSend(spec *ProgramSpec, extra []Stmt) {
	n := len(spec.Body.Stmts)
	stmts := append([]Stmt{}, spec.Body.Stmts[:n-1]...)
	stmts = append(stmts, extra...)
	spec.Body.Stmts = append(stmts, spec.Body.Stmts[n-1])
}

// v6Overlay keeps the random body and appends IPv6-aware statements; the
// trace mixes v6 packets in.
func v6Overlay(spec *ProgramSpec, r *rng) {
	spec.traceMode = "v6"
	spec.ShardSafe = false
	spec.Expiry = nil
	menu := []func() Stmt{
		func() Stmt {
			return &IfStmt{Cond: "p.ip6.present", Then: &Block{Stmts: []Stmt{
				&RawStmt{Text: "p.ip6.hoplimit = (p.ip6.hoplimit - 1);"},
			}}}
		},
		func() Stmt {
			return &IfStmt{Cond: "(p.ip6.nexthdr == 17)", Then: &Block{Stmts: []Stmt{
				&RawStmt{Text: fmt.Sprintf("p.ip6.tclass = %d;", r.intn(64))},
			}}}
		},
		func() Stmt {
			return &RawStmt{Text: fmt.Sprintf(
				"p.ip.id = (u16)((p.ip6.saddr_lo ^ p.ip6.daddr_lo) %% %d);", pick(r, []int{251, 4093, 9973}))}
		},
		func() Stmt {
			m := r.rangen(400, 1400)
			return &IfStmt{Cond: fmt.Sprintf("(p.tcp.mss > %d)", m), Then: &Block{Stmts: []Stmt{
				&RawStmt{Text: fmt.Sprintf("p.tcp.mss = %d;", m)},
			}}}
		},
		func() Stmt {
			return &IfStmt{Cond: "(p.ip6.saddr_hi == p.ip6.daddr_hi)", Then: &Block{Stmts: []Stmt{
				&RawStmt{Text: fmt.Sprintf("p.ip6.flow = %d;", r.intn(1000))},
			}}}
		},
	}
	n := r.rangen(2, 3)
	extra := make([]Stmt, n)
	for i := range extra {
		extra[i] = pick(r, menu)()
	}
	insertBeforeSend(spec, extra)
}

// encapOverlay keeps the random body (and the drawn shard-safety) and
// appends tunnel-header statements; the trace GRE/IPIP-wraps packets.
func encapOverlay(spec *ProgramSpec, r *rng) {
	spec.traceMode = "encap"
	menu := []func() Stmt{
		func() Stmt {
			return &IfStmt{Cond: fmt.Sprintf("(p.tun.mode == %d)", r.rangen(1, 2)), Then: &Block{Stmts: []Stmt{
				&RawStmt{Text: "p.tun.mode = 0;"},
			}}}
		},
		func() Stmt {
			return &IfStmt{Cond: "(p.tun.mode == 1)", Then: &Block{Stmts: []Stmt{
				&RawStmt{Text: fmt.Sprintf("p.tun.key = (p.tun.key + %d);", r.rangen(1, 9))},
			}}}
		},
		func() Stmt {
			// 167772161 = 10.0.0.1, 168364297 = 10.9.9.9.
			return &IfStmt{Cond: "(p.tun.mode == 0)", Then: &Block{Stmts: []Stmt{
				&RawStmt{Text: "p.tun.mode = 2;"},
				&RawStmt{Text: "p.tun.src = 167772161;"},
				&RawStmt{Text: fmt.Sprintf("p.tun.dst = %d;", 168364296+r.rangen(1, 5))},
			}}}
		},
		func() Stmt {
			// 168430090 = 10.10.10.10, one of encapify's outer endpoints.
			return &IfStmt{Cond: "(p.tun.dst == 168430090)", Then: &Block{Stmts: []Stmt{
				&RawStmt{Text: fmt.Sprintf("p.ip.tos = %d;", r.intn(8))},
			}}}
		},
	}
	n := r.rangen(1, 2)
	extra := make([]Stmt, n)
	for i := range extra {
		extra[i] = pick(r, menu)()
	}
	insertBeforeSend(spec, extra)
}

// tunLBTemplate replaces the program with a randomized instance of the
// tunneling-LB shape: a v6-keyed connection table, a backend vector, and
// GRE encapsulation toward the chosen backend.
func tunLBTemplate(spec *ProgramSpec, r *rng) {
	spec.traceMode = "tunlb"
	spec.ShardSafe = false
	spec.Expiry = nil
	spec.Maps = []MapDecl{{
		Name:     "c6",
		KeyTypes: []string{"u64", "u64", "u16", "u16"},
		ValTypes: []string{"u32"},
		Max:      8192,
		KeyExprs: []string{"p.ip6.saddr_lo", "p.ip6.daddr_lo", "p.l4.sport", "p.l4.dport"},
	}}
	backends := make([]uint64, r.rangen(2, 5))
	for i := range backends {
		backends[i] = uint64(168430080 + r.rangen(1, 250)) // 10.10.0.x
	}
	spec.Vecs = []VecDecl{{Name: "reals", Max: 16, Seed: backends}}
	spec.Lpms, spec.Globals = nil, nil
	spec.Consts = []ConstDecl{{Name: "TKEY", Type: "u32", Expr: strconv.Itoa(r.rangen(1, 500))}}
	encap := func(dst string) []Stmt {
		return []Stmt{
			&RawStmt{Text: "p.tun.mode = 1;"},
			&RawStmt{Text: "p.tun.src = 167772161;"},
			&RawStmt{Text: "p.tun.dst = " + dst + ";"},
			&RawStmt{Text: "p.tun.key = TKEY;"},
			&TermStmt{Op: "send"},
		}
	}
	missStmts := []Stmt{
		&RawStmt{Text: "u32 hx = hash(p.ip6.saddr_lo, p.ip6.daddr_lo, p.l4.sport);"},
		&RawStmt{Text: "u32 bi = (hx % reals.size());"},
		&RawStmt{Text: "u32 bk = reals[bi];"},
		&RawStmt{Text: "c6.insert(p.ip6.saddr_lo, p.ip6.daddr_lo, p.l4.sport, p.l4.dport, bk);"},
	}
	missStmts = append(missStmts, encap("bk")...)
	spec.Body = &Block{Stmts: []Stmt{
		&IfStmt{Cond: "p.ip6.present", Then: &Block{Stmts: append([]Stmt{
			&RawStmt{Text: "let e = c6.find(p.ip6.saddr_lo, p.ip6.daddr_lo, p.l4.sport, p.l4.dport);"},
			&IfStmt{Cond: "e.ok", Then: &Block{Stmts: encap("e.v0")}},
		}, missStmts...)}},
		&TermStmt{Op: "send"},
	}}
}

// synProxyTemplate replaces the program with a randomized SYN-cookie
// proxy: reflect SYNs with a cookie built from switch-friendly ALU ops,
// admit flows whose ACK echoes it, pass proven flows, drop the rest. The
// trace transformation crafts matching cookie echoes (synCookie below is
// the same arithmetic over Go uint32).
func synProxyTemplate(spec *ProgramSpec, r *rng) {
	spec.traceMode = "synproxy"
	spec.ShardSafe = false
	spec.Expiry = nil
	spec.Maps = []MapDecl{{
		Name:     "ok4",
		KeyTypes: []string{"u32", "u32", "u16", "u16"},
		ValTypes: []string{"u8"},
		Max:      8192,
		KeyExprs: []string{"p.ip.saddr", "p.ip.daddr", "p.l4.sport", "p.l4.dport"},
	}}
	spec.Vecs, spec.Lpms, spec.Consts = nil, nil, nil
	spec.Globals = []GlobalDecl{{Name: "sps", Type: "u32", Init: uint64(r.next() & 0xFFFFFFFF)}}
	spec.Body = &Block{Stmts: []Stmt{
		&RawStmt{Text: "u32 pts = (((u32)p.l4.sport << 16) | (u32)p.l4.dport);"},
		&RawStmt{Text: "u32 mix = ((p.ip.saddr ^ (p.ip.daddr << 7)) ^ (p.ip.daddr >> 3));"},
		&RawStmt{Text: "u32 ck = ((mix + pts) ^ sps);"},
		&RawStmt{Text: "u8 ctl = (p.tcp.flags & 18);"},
		&IfStmt{Cond: "(p.ip.proto != 6)", Then: &Block{Stmts: []Stmt{&TermStmt{Op: "send"}}}},
		&IfStmt{Cond: "(ctl == 2)", Then: &Block{Stmts: []Stmt{
			&RawStmt{Text: "u32 osrc = p.ip.saddr;"},
			&RawStmt{Text: "p.ip.saddr = p.ip.daddr;"},
			&RawStmt{Text: "p.ip.daddr = osrc;"},
			&RawStmt{Text: "u16 osp = p.l4.sport;"},
			&RawStmt{Text: "p.l4.sport = p.l4.dport;"},
			&RawStmt{Text: "p.l4.dport = osp;"},
			&RawStmt{Text: "p.tcp.ack = (p.tcp.seq + 1);"},
			&RawStmt{Text: "p.tcp.seq = ck;"},
			&RawStmt{Text: "p.tcp.flags = 18;"},
			&TermStmt{Op: "send"},
		}}},
		&IfStmt{Cond: "ok4.contains(p.ip.saddr, p.ip.daddr, p.l4.sport, p.l4.dport)", Then: &Block{Stmts: []Stmt{
			&TermStmt{Op: "send"},
		}}},
		&IfStmt{Cond: "(ctl == 16)", Then: &Block{Stmts: []Stmt{
			&RawStmt{Text: "u32 echo = (p.tcp.ack - 1);"},
			&IfStmt{Cond: "(echo == ck)", Then: &Block{Stmts: []Stmt{
				&RawStmt{Text: "ok4.insert(p.ip.saddr, p.ip.daddr, p.l4.sport, p.l4.dport, 1);"},
				&TermStmt{Op: "send"},
			}}},
		}}},
		&TermStmt{Op: "drop"},
	}}
}

// mssClampTemplate replaces the program with a stateless MSS clamper
// over mixed v4/v6 traffic.
func mssClampTemplate(spec *ProgramSpec, r *rng) {
	spec.traceMode = "mssclamp"
	spec.ShardSafe = false
	spec.Expiry = nil
	spec.Maps, spec.Vecs, spec.Lpms, spec.Globals = nil, nil, nil, nil
	spec.Consts = []ConstDecl{{Name: "MMAX", Type: "u16", Expr: strconv.Itoa(r.rangen(500, 1400))}}
	spec.Body = &Block{Stmts: []Stmt{
		&IfStmt{Cond: "((p.ip.proto != 6) && (p.ip6.nexthdr != 6))", Then: &Block{Stmts: []Stmt{
			&TermStmt{Op: "send"},
		}}},
		&RawStmt{Text: "u16 sm = p.tcp.mss;"},
		&IfStmt{Cond: "(sm > MMAX)", Then: &Block{Stmts: []Stmt{
			&RawStmt{Text: "p.tcp.mss = MMAX;"},
		}}},
		&TermStmt{Op: "send"},
	}}
}

// ---------------------------------------------------------------------------
// Trace transformations
// ---------------------------------------------------------------------------

// applyTraceScenario rewrites the canonical trace to match the spec's
// scenario mode. It draws from its own rng stream so the base trace stays
// identical to what GenTrace always produced.
func applyTraceScenario(spec *ProgramSpec, tr *Trace, seed uint64) {
	if spec.traceMode == "" {
		return
	}
	r := newRNG(seed ^ 0x5CE9A810)
	switch spec.traceMode {
	case "v6":
		v6ify(tr, r, 60)
		addMSS(tr, r)
	case "tunlb":
		v6ify(tr, r, 70)
	case "encap":
		encapify(tr, r)
	case "synproxy":
		synProxyTraffic(tr, r, spec)
	case "mssclamp":
		v6ify(tr, r, 35)
		addMSS(tr, r)
	}
}

// v6ify converts roughly pctV6 percent of the trace's flows to IPv6,
// whole flows at a time (a flow that switched families mid-trace would
// stop revisiting its own map state). The v4 addresses move into the low
// half of a fixed documentation prefix, so distinct v4 flows stay
// distinct v6 flows while same-port flows still collide on any map key
// that ignores the 128-bit addresses.
func v6ify(tr *Trace, r *rng, pctV6 int) {
	salt := r.next()
	for i := range tr.Packets {
		tp := &tr.Packets[i]
		h := flowHash(tp, salt)
		if int(h%100) >= pctV6 {
			continue
		}
		tp.V6 = true
		tp.Src6 = packet.MakeIPv6Addr(0x20010DB8<<32, uint64(tp.Src))
		tp.Dst6 = packet.MakeIPv6Addr(0x20010DB8<<32, uint64(tp.Dst))
		tp.Src, tp.Dst = 0, 0
	}
}

// flowHash mixes a packet's flow identity with a salt (splitmix64
// finalizer) so per-flow decisions are deterministic per seed but vary
// across seeds.
func flowHash(tp *TracePacket, salt uint64) uint64 {
	z := uint64(tp.Src)<<32 | uint64(tp.Dst)
	z ^= uint64(tp.Sport)<<24 ^ uint64(tp.Dport)<<8 ^ uint64(tp.Proto)
	z ^= salt
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// addMSS attaches an MSS option to most TCP SYNs.
func addMSS(tr *Trace, r *rng) {
	for i := range tr.Packets {
		tp := &tr.Packets[i]
		if tp.Proto == uint8(packet.IPProtocolTCP) && tp.Flags&packet.TCPFlagSYN != 0 && r.pct(70) {
			tp.MSS = pick(r, []uint16{536, 1200, 1460, 9000})
		}
	}
}

// encapify GRE- or IPIP-wraps a slice of the packets in an outer v4
// tunnel.
func encapify(tr *Trace, r *rng) {
	outerSrc := packet.MakeIPv4Addr(172, 16, 0, 1)
	outerDsts := []packet.IPv4Addr{
		packet.MakeIPv4Addr(172, 16, 0, 2),
		packet.MakeIPv4Addr(10, 10, 10, 10),
	}
	for i := range tr.Packets {
		tp := &tr.Packets[i]
		if !r.pct(55) {
			continue
		}
		tp.EncSrc = outerSrc
		tp.EncDst = pick(r, outerDsts)
		if r.pct(70) {
			tp.Encap = "gre"
			tp.GREKey = uint32(r.intn(1000))
		} else {
			tp.Encap = "ipip"
		}
	}
}

// synCookie is the Go replica of the synProxyTemplate cookie arithmetic
// (everything is u32 with wraparound, matching the IR's typed ops).
func synCookie(src, dst packet.IPv4Addr, sport, dport uint16, secret uint32) uint32 {
	pts := uint32(sport)<<16 | uint32(dport)
	mix := uint32(src) ^ (uint32(dst) << 7) ^ (uint32(dst) >> 3)
	return (mix + pts) ^ secret
}

// synProxyTraffic turns the trace's TCP packets into SYN-proxy
// handshake traffic: bare SYNs, valid cookie echoes (which admit the
// flow and exercise the map write-back), and bogus echoes (dropped).
// UDP packets stay as chaff for the non-TCP passthrough leg.
func synProxyTraffic(tr *Trace, r *rng, spec *ProgramSpec) {
	var secret uint32
	for _, g := range spec.Globals {
		if g.Name == "sps" {
			secret = uint32(g.Init)
		}
	}
	for i := range tr.Packets {
		tp := &tr.Packets[i]
		if tp.Proto != uint8(packet.IPProtocolTCP) {
			continue
		}
		switch r.intn(4) {
		case 0:
			tp.Flags = packet.TCPFlagSYN
			tp.Ack = 0
		case 1, 2:
			tp.Flags = packet.TCPFlagACK
			tp.Ack = synCookie(tp.Src, tp.Dst, tp.Sport, tp.Dport, secret) + 1
		case 3:
			tp.Flags = packet.TCPFlagACK
			tp.Ack = uint32(r.next())
		}
	}
}
