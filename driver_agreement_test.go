package gallium_test

import (
	"context"
	"testing"

	"gallium"
	"gallium/internal/ir"
	"gallium/internal/middleboxes"
	"gallium/internal/packet"
	"gallium/internal/serverrt"
)

// TestDriverAgreement holds the two runtimes to the unpartitioned program.
// The sequential Testbed and the engine at one worker are the same walker
// behind two committers. With arrivals spaced past the control plane's
// flip latency (10 ms, as difftest's inject leg), every packet must meet
// the fate, with the same output bytes, that the unpartitioned IR gives it
// (serverrt.Software on identically seeded state), and both servers must
// end in the oracle's state — for every bundled middlebox, on the golden
// test's per-middlebox traffic.
func TestDriverAgreement(t *testing.T) {
	for _, spec := range middleboxes.Extended() {
		t.Run(spec.Name, func(t *testing.T) {
			art, err := gallium.Compile(spec.Source, gallium.Options{})
			if err != nil {
				t.Fatal(err)
			}
			tr := newVTTrace(spec.Name, 300, 10_000_000)
			// The transfer header, if a runtime left one attached, is not
			// part of the middlebox's observable output.
			fate := func(sent bool, p *packet.Packet) string {
				if !sent {
					return "dropped"
				}
				q := p.Clone()
				q.StripGallium()
				return string(q.Serialize())
			}
			oracle := serverrt.NewSoftware(art.Prog)
			tr.setup(art)(oracle.State)
			want := make([]string, len(tr.pkts))
			for i := range tr.pkts {
				p := tr.build(i)
				res, err := oracle.Process(p)
				if err != nil {
					t.Fatalf("oracle packet %d: %v", i, err)
				}
				want[i] = fate(res.Action == ir.ActionSent, p)
			}
			agree := func(driver string, got []string, state *ir.State) {
				t.Helper()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("packet %d: %s and the unpartitioned program disagree:\n%q\n%q", i, driver, got[i], want[i])
					}
				}
				if !state.Equal(oracle.State) {
					t.Fatalf("%s ends in a server state the unpartitioned program does not", driver)
				}
			}

			tb, err := art.NewTestbed(gallium.TestbedConfig{Setup: tr.setup(art)})
			if err != nil {
				t.Fatal(err)
			}
			got := make([]string, len(tr.pkts))
			for i := range tr.pkts {
				p := tr.build(i)
				d, err := tb.Inject(tr.pkts[i].tNs, p)
				if err != nil {
					t.Fatalf("testbed packet %d: %v", i, err)
				}
				got[i] = fate(d.Delivered, p)
			}
			agree("testbed", got, tb.ServerState())

			var final *ir.State
			got = make([]string, len(tr.pkts))
			_, err = art.Run(context.Background(), tr,
				seedOnce(tr.setup(art), &final), gallium.WithWorkers(1),
				gallium.WithDeliveries(func(d gallium.Delivery) { got[d.Seq] = fate(d.Delivered, d.Pkt) }))
			if err != nil {
				t.Fatal(err)
			}
			agree("engine", got, final)
		})
	}
}
