// Allocation-regression tests for the per-packet execution path. The
// engine's throughput scaling depends on the fast path staying off the
// allocator (and therefore off the GC): compiled scratchpad slots, pooled
// execution contexts, and reusable server scratch are all asserted here
// via testing.AllocsPerRun, across every bundled middlebox.
package gallium_test

import (
	"fmt"
	"runtime"
	"testing"

	"gallium"
	"gallium/internal/engine"
	"gallium/internal/ir"
	"gallium/internal/middleboxes"
	"gallium/internal/packet"
	"gallium/internal/serverrt"
	"gallium/internal/switchsim"
)

// allocBudget is the per-packet allocation budget for the steady-state
// pipeline: pre-pass + server execution + post-pass. All nine middleboxes
// measure zero, so zero is the gate.
const allocBudget = 0

// slowPathAllocBudget is the budget for one new mazunat flow through
// serverrt.Server.Process whose caller recycles the Result, as both
// drivers do: the update list and the arena holding its two table
// inserts' value tuples are reused, and the inserts copy into the state's
// packed tables.
const slowPathAllocBudget = 0

// newFlowBudget is the budget for one new mazunat flow through the whole
// slow path of a Testbed under engine.InstantModel: pre-pass, the hop to
// the server, the server, output commit (stage + flip), the hop back,
// post-pass. It is the two table nodes the server's inserts stage and the
// successor view, which carries the flip's undo records; the hops decode
// in place and the pending batch is reused.
const newFlowBudget = slowPathAllocBudget + 3

// feedAllocBudget is the allocations per packet Session.Feed may make on
// the fast path: each Feed's settle barrier allocates a few objects, so a
// round of packets shares them, and a packet itself must allocate none.
const feedAllocBudget = 0.001

// resetPacket restores dst to the pristine packet while keeping dst's
// gallium buffer capacity, so the measured loop replays the same flow
// without per-iteration packet construction.
func resetPacket(dst, src *packet.Packet) {
	gal := dst.GalData
	*dst = *src
	dst.GalData = gal[:0]
}

func TestFastPathAllocs(t *testing.T) {
	for _, spec := range middleboxes.Extended() {
		t.Run(spec.Name, func(t *testing.T) {
			art, err := gallium.Compile(spec.Source, gallium.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sw := switchsim.New(art.Res)
			srv := serverrt.New(art.Res)
			middleboxes.ConfigureState(spec.Name, srv.State)
			tup := packet.FiveTuple{
				SrcIP: packet.MakeIPv4Addr(10, 0, 0, 1), DstIP: packet.MakeIPv4Addr(9, 9, 9, 9),
				SrcPort: 1234, DstPort: 80, Proto: packet.IPProtocolTCP,
			}
			tup6 := packet.SixTuple{
				SrcIP: packet.MakeIPv6Addr(0x20010DB8<<32, 1), DstIP: packet.MakeIPv6Addr(0x20010DB8<<32, 2),
				SrcPort: 1234, DstPort: 80, Proto: packet.IPProtocolTCP,
			}
			switch spec.Name {
			case "firewall":
				middleboxes.AllowFlow(srv.State, tup)
			case "proxy":
				middleboxes.RedirectPort(srv.State, 5001)
			case "synproxy":
				// Steady state for the scrubber is a proven flow passing on
				// the switch; the cookie handshake itself is a one-time cost.
				middleboxes.ProveFlow(srv.State, tup)
			case "firewall6":
				middleboxes.AllowFlow6(srv.State, tup6)
			}
			if err := sw.SeedFrom(srv.State); err != nil {
				t.Fatal(err)
			}
			// firewall6's interesting path only exists for IPv6 traffic, and
			// mssclamp's only for SYNs carrying an MSS option — everything
			// else measures the same v4 TCP flow, which for tunlb lands on
			// the conns4 + GRE-encap leg.
			var pristine *packet.Packet
			switch spec.Name {
			case "firewall6":
				pristine = packet.BuildTCP6(tup6.SrcIP, tup6.DstIP, tup6.SrcPort, tup6.DstPort,
					packet.TCPOptions{Payload: []byte("hello middlebox")})
			case "mssclamp":
				pristine = packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort,
					packet.TCPOptions{Flags: packet.TCPFlagSYN, MSS: 9000})
			default:
				pristine = packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort,
					packet.TCPOptions{Payload: []byte("hello middlebox")})
			}
			buf := &packet.Packet{}
			// An owned pass, as a walker holds one: the pooled
			// ProcessPreShard wrapper may build a fresh Pass under -race,
			// which drops sync.Pool Puts at random.
			pass := sw.NewPass(0)

			// run pushes one packet of the flow through the partitioned
			// pipeline. During warmup (apply=true) recorded write-backs go
			// through the control plane so the flow's state replicates to
			// the switch and later packets reach steady state.
			run := func(apply bool) error {
				resetPacket(buf, pristine)
				defer pass.Flush()
				pre, err := pass.Pre(buf, nil)
				if err != nil {
					return err
				}
				if pre.Action != ir.ActionNext || pre.Punt {
					return nil
				}
				res, err := srv.Process(buf)
				if err != nil {
					return err
				}
				if apply && len(res.Updates) > 0 {
					for _, u := range res.Updates {
						if err := sw.StageShard(0, u); err != nil {
							return err
						}
					}
					sw.FlipShard(0)
				}
				if res.Action != ir.ActionNext {
					return nil
				}
				_, err = pass.Post(buf, nil)
				return err
			}

			// Warm the flow: first packets allocate connection state,
			// replicate it, and grow the reusable buffers.
			for i := 0; i < 3; i++ {
				if err := run(true); err != nil {
					t.Fatal(err)
				}
			}
			var failed error
			allocs := testing.AllocsPerRun(200, func() {
				if failed != nil {
					return
				}
				failed = run(false)
			})
			if failed != nil {
				t.Fatal(failed)
			}
			if allocs > allocBudget {
				t.Fatalf("steady-state pipeline allocates %.1f objects/packet, budget is %d", allocs, allocBudget)
			}
		})
	}
}

// TestFeedAllocs gates the whole engine fast path through Session.Feed
// at one worker, where each burst runs on the feeding goroutine: mazunat,
// established flows, every packet on the switch fast path. A packet that
// allocates shows as at least one allocation per packet.
func TestFeedAllocs(t *testing.T) {
	const flows, round, rounds = 4096, 32768, 4
	r := newFeedRig(t, 1, flows, round)
	defer r.sess.Close()
	r.prepare()
	if err := r.feed(); err != nil { // warm: grow the bursts and the register files
		t.Fatal(err)
	}
	r.fast.Store(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		r.prepare()
		if err := r.feed(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got, want := r.fast.Load(), int64(rounds*round); got != want {
		t.Fatalf("%d of %d packets took the fast path", got, want)
	}
	perPkt := float64(after.Mallocs-before.Mallocs) / float64(rounds*round)
	t.Logf("%.5f allocations per packet", perPkt)
	if perPkt > feedAllocBudget {
		t.Fatalf("Session.Feed allocates %.4f objects per packet, budget is %g", perPkt, feedAllocBudget)
	}
}

// TestSlowPathAllocs gates the server's cost for a new flow: every run
// sends the first packet of a flow the NAT has not seen.
func TestSlowPathAllocs(t *testing.T) {
	art, err := gallium.Compile(middleboxes.MazuNATSource, gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sw := switchsim.New(art.Res)
	srv := serverrt.New(art.Res)
	pristine := packet.BuildTCP(packet.MakeIPv4Addr(10, 0, 0, 1), packet.MakeIPv4Addr(9, 9, 9, 9), 1234, 80, packet.TCPOptions{})
	buf := &packet.Packet{}
	var failed error
	flow := uint32(0)
	newFlow := func() {
		if failed != nil {
			return
		}
		resetPacket(buf, pristine)
		flow++
		buf.IP.SrcIP = packet.IPv4Addr(10<<24 | flow)
		pre, err := sw.ProcessPreShard(buf, 0, nil)
		if err != nil || pre.Action != ir.ActionNext {
			failed = fmt.Errorf("pre-pass of a new flow: %v %v", pre.Action, err)
			return
		}
		res, err := srv.Process(buf)
		if err != nil || len(res.Updates) != 2 {
			failed = fmt.Errorf("new flow recorded %d updates (want its two table inserts): %v", len(res.Updates), err)
		}
		srv.Recycle()
	}
	// Pre-size the state's maps so their growth is not charged to a packet.
	for i := 0; i < 2000; i++ {
		newFlow()
	}
	allocs := testing.AllocsPerRun(200, newFlow)
	if failed != nil {
		t.Fatal(failed)
	}
	if allocs > slowPathAllocBudget {
		t.Fatalf("a new flow's Server.Process allocates %.1f objects, budget is %d", allocs, slowPathAllocBudget)
	}
}

// newFlowRig sends never-seen mazunat flows through a Testbed under the
// zero-cost model, one retained SYN each: the first packet of a flow takes
// the whole slow path and comes back from the switch post-pass with its two
// table inserts staged and flipped.
type newFlowRig struct {
	tb            *gallium.Testbed
	pristine, buf *packet.Packet
	flows         uint32
}

func newNewFlowRig(t testing.TB) *newFlowRig {
	art, err := gallium.Compile(middleboxes.MazuNATSource, gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := art.NewTestbed(gallium.TestbedConfig{Setup: func(st *ir.State) { middleboxes.ConfigureState("mazunat", st) }},
		gallium.WithCostModel(engine.InstantModel()))
	if err != nil {
		t.Fatal(err)
	}
	return &newFlowRig{tb: tb, buf: &packet.Packet{},
		pristine: packet.BuildTCP(packet.MakeIPv4Addr(10, 0, 0, 1), packet.MakeIPv4Addr(9, 9, 9, 9), 1234, 80,
			packet.TCPOptions{Flags: packet.TCPFlagSYN})}
}

// next sends the first packet of the rig's next flow.
func (r *newFlowRig) next() error {
	resetPacket(r.buf, r.pristine)
	r.flows++
	r.buf.IP.SrcIP = packet.IPv4Addr(10<<24 | r.flows)
	d, err := r.tb.Inject(0, r.buf)
	if err != nil || d.FastPath || !d.Delivered {
		return fmt.Errorf("new flow: %+v, %v (want a slow-path delivery)", d, err)
	}
	return nil
}

// TestTestbedNewFlowAllocs gates a new flow's whole slow path, end to end
// through a Testbed under the zero-cost model: every run sends the first
// packet of a flow the NAT has not seen.
func TestTestbedNewFlowAllocs(t *testing.T) {
	rig := newNewFlowRig(t)
	var failed error
	newFlow := func() {
		if failed == nil {
			failed = rig.next()
		}
	}
	// Pre-size the state's maps and the switch tables so their growth is
	// not charged to a packet.
	for i := 0; i < 2000; i++ {
		newFlow()
	}
	allocs := testing.AllocsPerRun(200, newFlow)
	if failed != nil {
		t.Fatal(failed)
	}
	if st := rig.tb.Report().Stats; st.CtlOps != 2*int(rig.flows) || st.CtlBatches != int(rig.flows) {
		t.Fatalf("%d new flows staged %d updates in %d flips, want two inserts and one flip each", rig.flows, st.CtlOps, st.CtlBatches)
	}
	if allocs > newFlowBudget {
		t.Fatalf("a new flow's slow path allocates %.1f objects, budget is %d", allocs, newFlowBudget)
	}
}
