package gallium_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"gallium"
	"gallium/internal/ir"
	"gallium/internal/middleboxes"
	"gallium/internal/netsim"
	"gallium/internal/packet"
)

// vtRNG is a splitmix64 stream, so the trace never depends on math/rand.
type vtRNG uint64

func (r *vtRNG) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *vtRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// vtFlow is one connection of the trace.
type vtFlow struct {
	v6      bool
	udp     bool
	tup     packet.FiveTuple
	tup6    packet.SixTuple
	allowed bool // whitelisted / cookie-honest
	sent    int  // packets of the current connection incarnation
}

// vtPacket is one trace entry; build materializes a fresh packet.
type vtPacket struct {
	tNs     int64
	flow    int
	flags   uint8
	seq     uint32
	ack     uint32
	mss     uint16
	payload string
	pad     int
}

// vtTrace is a seeded workload: long back-to-back bursts (server queueing,
// stale write-back windows, queue drops) separated by pauses long enough
// for control-plane flips to land.
type vtTrace struct {
	flows []vtFlow
	pkts  []vtPacket
}

var vtDports = []uint16{80, 22, 5001, 6667, 443}
var vtPayloads = []string{"", "hello middlebox", "GET /setup.exe HTTP/1.1", "xxxxxxxxxxxxxxxxxxxxxxxx"}

// synCookie mirrors synproxy's ALU-only cookie.
func synCookie(t packet.FiveTuple) uint32 {
	ports := uint32(t.SrcPort)<<16 | uint32(t.DstPort)
	mix := uint32(t.SrcIP) ^ (uint32(t.DstIP) << 7) ^ (uint32(t.DstIP) >> 3)
	return (mix + ports) ^ 0x5EC2E7
}

// newVTTrace derives the trace for one middlebox. minGapNs > 0 replaces
// the bursts with evenly spread arrivals (the §7 cache leg: FIFO eviction
// order is only deterministic when at most one key folds per flip).
func newVTTrace(name string, n int, minGapNs int64) *vtTrace {
	r := vtRNG(0xC0FFEE)
	for _, c := range name {
		r += vtRNG(c) * 131
	}
	tr := &vtTrace{}
	wantV6 := name == "firewall6" || name == "tunlb" || name == "mssclamp"
	for i := 0; i < 24; i++ {
		f := vtFlow{udp: i%4 == 3, allowed: i%5 != 2}
		proto := packet.IPProtocolTCP
		if f.udp {
			proto = packet.IPProtocolUDP
		}
		src := packet.MakeIPv4Addr(10, 0, byte(i/8), byte(1+i))
		if i%6 == 5 {
			src = packet.MakeIPv4Addr(198, 51, 100, byte(1+i)) // outside the NAT
		}
		f.tup = packet.FiveTuple{SrcIP: src, DstIP: packet.MakeIPv4Addr(93, 184, 216, byte(34+i%3)),
			SrcPort: uint16(40000 + i), DstPort: vtDports[i%len(vtDports)], Proto: proto}
		if wantV6 && i%3 == 1 {
			f.v6 = true
			f.tup6 = packet.SixTuple{SrcIP: packet.MakeIPv6Addr(0x20010DB8<<32, uint64(1+i)),
				DstIP: packet.MakeIPv6Addr(0x20010DB8<<32|1, 2), SrcPort: f.tup.SrcPort, DstPort: f.tup.DstPort, Proto: proto}
		}
		tr.flows = append(tr.flows, f)
	}
	var tNs int64
	burst := 0
	for i := 0; i < n; i++ {
		switch {
		case minGapNs > 0:
			tNs += minGapNs + int64(r.intn(200_000))
		case burst == 0:
			burst = 20 + r.intn(100)
			tNs += 100_000 + int64(r.intn(1_900_000))
		default:
			burst--
			tNs += 50 + int64(r.intn(200))
		}
		fi := r.intn(len(tr.flows))
		f := &tr.flows[fi]
		p := vtPacket{tNs: tNs, flow: fi, seq: uint32(1000 + i), payload: vtPayloads[r.intn(len(vtPayloads))]}
		if r.intn(4) == 0 {
			p.pad = 200 + r.intn(1300)
		}
		if !f.udp {
			switch {
			case f.sent == 0:
				p.flags, p.mss, p.payload = packet.TCPFlagSYN, 9000, ""
			case f.sent == 1 && name == "synproxy":
				// The client echoes the cookie; dishonest flows echo garbage.
				p.flags, p.ack = packet.TCPFlagACK, synCookie(f.tup)+1
				if !f.allowed {
					p.ack ^= 0xBAD
				}
			case f.sent > 3 && r.intn(12) == 0:
				p.flags = packet.TCPFlagACK | packet.TCPFlagFIN
				f.sent = -1 // next packet re-opens the connection
			default:
				p.flags = packet.TCPFlagACK
			}
		}
		f.sent++
		tr.pkts = append(tr.pkts, p)
	}
	return tr
}

func (tr *vtTrace) build(i int) *packet.Packet {
	tp := tr.pkts[i]
	f := tr.flows[tp.flow]
	opt := packet.TCPOptions{Flags: tp.flags, Seq: tp.seq, Ack: tp.ack, MSS: tp.mss, Payload: []byte(tp.payload)}
	var p *packet.Packet
	switch {
	case f.v6 && f.udp:
		p = packet.BuildUDP6(f.tup6.SrcIP, f.tup6.DstIP, f.tup6.SrcPort, f.tup6.DstPort, opt.Payload)
	case f.v6:
		p = packet.BuildTCP6(f.tup6.SrcIP, f.tup6.DstIP, f.tup6.SrcPort, f.tup6.DstPort, opt)
	case f.udp:
		p = packet.BuildUDP(f.tup.SrcIP, f.tup.DstIP, f.tup.SrcPort, f.tup.DstPort, opt.Payload)
	default:
		p = packet.BuildTCP(f.tup.SrcIP, f.tup.DstIP, f.tup.SrcPort, f.tup.DstPort, opt)
	}
	if tp.pad > 0 {
		p.PadTo(tp.pad)
	}
	return p
}

// Tuples announces only the allowed v4 flows, so scenario seeding leaves
// the rest for the firewall to drop.
func (tr *vtTrace) Tuples() []packet.FiveTuple {
	var out []packet.FiveTuple
	for _, f := range tr.flows {
		if f.allowed && !f.v6 {
			out = append(out, f.tup)
		}
	}
	return out
}

func (tr *vtTrace) Generate(emit func(int64, *packet.Packet) error) error {
	for i := range tr.pkts {
		if err := emit(tr.pkts[i].tNs, tr.build(i)); err != nil {
			return err
		}
	}
	return nil
}

// setup seeds the middlebox's standard scenario plus the per-flow state
// ScenarioSetup does not cover (v6 whitelist).
func (tr *vtTrace) setup(art *gallium.Artifacts) func(*ir.State) {
	base := art.ScenarioSetup(tr.Tuples())
	return func(st *ir.State) {
		base(st)
		if art.Name == "firewall6" {
			for _, f := range tr.flows {
				if f.v6 && f.allowed {
					middleboxes.AllowFlow6(st, f.tup6)
				}
			}
		}
	}
}

// seedOnce adapts a one-worker setup function to WithState, which visits
// the shard twice: it seeds on the first visit and hands the settled state
// to *final on the second.
func seedOnce(setup func(*ir.State), final **ir.State) gallium.Option {
	seeded := false
	return gallium.WithState(func(_ int, st *ir.State) {
		if !seeded {
			seeded = true
			setup(st)
			return
		}
		*final = st.Clone()
	})
}

// vtModel is the default cost model (jitter on) with a short server
// ingress queue, so a few hundred packets reach the queue-drop path.
func vtModel() netsim.CostModel {
	m := netsim.DefaultModel()
	m.MaxQueueDelayNs = 6_000
	return m
}

// vtDigest accumulates per-packet fates.
type vtDigest struct {
	lines []string
}

func (d *vtDigest) add(seq int64, delivered, mbDropped, queueDropped, fast bool, deliverNs int64) {
	for int64(len(d.lines)) <= seq {
		d.lines = append(d.lines, "")
	}
	d.lines[seq] = fmt.Sprintf("%t %t %t %t %d", delivered, mbDropped, queueDropped, fast, deliverNs)
}

func (d *vtDigest) sum(st netsim.Stats) string {
	h := sha256.Sum256([]byte(strings.Join(d.lines, "\n")))
	return fmt.Sprintf("%x stats=%+v", h[:8], st)
}

func vtTestbed(t *testing.T, art *gallium.Artifacts, tr *vtTrace, mode gallium.Mode, cores int) string {
	t.Helper()
	model := vtModel()
	tb, err := art.NewTestbed(gallium.TestbedConfig{Mode: mode, Cores: cores, Model: &model, Setup: tr.setup(art)})
	if err != nil {
		t.Fatal(err)
	}
	var d vtDigest
	for i := range tr.pkts {
		del, err := tb.Inject(tr.pkts[i].tNs, tr.build(i))
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		d.add(int64(i), del.Delivered, del.MBDropped, del.QueueDropped, del.FastPath, del.DeliverNs)
	}
	return d.sum(tb.Stats())
}

// vtEngine runs the trace through the engine at one worker — the
// configuration whose virtual time is deterministic. The worker flips each
// write-back before its next packet, so the golden's "batch1" label holds
// at any pull size.
func vtEngine(t *testing.T, tr *vtTrace, run func(opts ...gallium.Option) (*gallium.Report, error), seed gallium.Option) string {
	t.Helper()
	var d vtDigest
	rep, err := run(seed,
		gallium.WithWorkers(1), gallium.WithCostModel(vtModel()),
		gallium.WithDeliveries(func(del gallium.Delivery) {
			d.add(del.Seq, del.Delivered, del.MBDropped, del.QueueDropped, del.FastPath, del.DeliverNs)
		}))
	if err != nil {
		t.Fatal(err)
	}
	return d.sum(rep.Stats)
}

// TestVirtualTimeGolden pins the cost model end to end: every packet's
// fate and delivery time, and the final counters, for each bundled
// middlebox through the sequential testbed (offloaded at 1 and 4 cores,
// software baseline), the engine at one worker, a §7 cache-mode program
// and the three-stage chain. The walk that produces these numbers is
// shared by every runtime, so a refactor of it must leave this file
// byte-identical. Re-bless with `go test -run VirtualTimeGolden -update .`
// only for an intentional cost-model change.
func TestVirtualTimeGolden(t *testing.T) {
	var b strings.Builder
	ctx := context.Background()
	for _, spec := range middleboxes.Extended() {
		art, err := gallium.Compile(spec.Source, gallium.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tr := newVTTrace(spec.Name, 800, 0)
		fmt.Fprintf(&b, "%s testbed/offloaded/1c %s\n", spec.Name, vtTestbed(t, art, tr, gallium.Offloaded, 1))
		fmt.Fprintf(&b, "%s testbed/offloaded/4c %s\n", spec.Name, vtTestbed(t, art, tr, gallium.Offloaded, 4))
		fmt.Fprintf(&b, "%s testbed/software/2c %s\n", spec.Name, vtTestbed(t, art, tr, gallium.Software, 2))
		var final *ir.State
		fmt.Fprintf(&b, "%s engine/1w/batch1 %s\n", spec.Name, vtEngine(t, tr,
			func(opts ...gallium.Option) (*gallium.Report, error) { return art.Run(ctx, tr, opts...) },
			seedOnce(tr.setup(art), &final)))
	}

	cached, err := gallium.Compile(middleboxes.LoadBalancerSource, gallium.Options{CacheEntries: map[string]int{"conns": 8}})
	if err != nil {
		t.Fatal(err)
	}
	tr := newVTTrace("l4lb-cache", 400, 400_000)
	fmt.Fprintf(&b, "l4lb cache8/testbed/1c %s\n", vtTestbed(t, cached, tr, gallium.Offloaded, 1))

	var stages []*gallium.Artifacts
	for _, name := range []string{"firewall", "mazunat", "l4lb"} {
		art, err := gallium.CompileBuiltin(name, gallium.Options{})
		if err != nil {
			t.Fatal(err)
		}
		stages = append(stages, art)
	}
	chain, err := gallium.Chain(stages...)
	if err != nil {
		t.Fatal(err)
	}
	tr = newVTTrace("chain", 800, 0)
	fmt.Fprintf(&b, "firewall,mazunat,l4lb engine/1w/batch1 %s\n", vtEngine(t, tr,
		func(opts ...gallium.Option) (*gallium.Report, error) { return chain.Run(ctx, tr, opts...) }, gallium.WithScenario()))

	compareGolden(t, filepath.Join("testdata", "golden", "vtime.txt"), b.String())
}
