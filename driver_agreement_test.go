package gallium_test

import (
	"context"
	"testing"

	"gallium"
	"gallium/internal/ir"
	"gallium/internal/middleboxes"
	"gallium/internal/packet"
)

// TestDriverAgreement holds the three runtimes to one behaviour. The
// bare Deployment, the sequential Testbed and the engine at one worker
// and batch 1 are the same walker behind three committers, so with
// arrivals spaced past the control plane's flip latency (10 ms, as
// difftest's inject leg) every packet must meet the same fate with the
// same output bytes, and the servers must end in the same state — for
// every bundled middlebox, on the golden test's per-middlebox traffic.
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
			agree := func(driver string, got, want []string, state, wantState *ir.State) {
				t.Helper()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("packet %d: %s and the deployment disagree:\n%q\n%q", i, driver, got[i], want[i])
					}
				}
				if !state.Equal(wantState) {
					t.Fatalf("%s and the deployment end in different server states", driver)
				}
			}

			dep, err := art.NewDeployment(tr.setup(art))
			if err != nil {
				t.Fatal(err)
			}
			want := make([]string, len(tr.pkts))
			for i := range tr.pkts {
				p := tr.build(i)
				trip, err := dep.Process(p)
				if err != nil {
					t.Fatalf("deployment packet %d: %v", i, err)
				}
				want[i] = fate(trip.Action == ir.ActionSent, p)
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
			agree("testbed", got, want, tb.ServerState(), dep.Server.State)

			var final *ir.State
			got = make([]string, len(tr.pkts))
			_, err = art.Run(context.Background(), tr,
				seedOnce(tr.setup(art), &final), gallium.WithWorkers(1), gallium.WithBatch(1),
				gallium.WithDeliveries(func(d gallium.Delivery) { got[d.Seq] = fate(d.Delivered, d.Pkt) }))
			if err != nil {
				t.Fatal(err)
			}
			agree("engine", got, want, final, dep.Server.State)
		})
	}
}
