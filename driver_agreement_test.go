package gallium_test

import (
	"context"
	"fmt"
	"testing"

	"gallium"
	"gallium/internal/difftest"
	"gallium/internal/ir"
	"gallium/internal/middleboxes"
	"gallium/internal/obs"
	"gallium/internal/packet"
)

// TestDriverAgreement holds the two runtimes, in both deployment modes, to
// the unpartitioned program. The sequential Testbed and the engine at one
// worker are the same walker behind two committers. With arrivals spaced
// past the control plane's flip latency (10 ms, as difftest's inject leg),
// every packet must meet the fate, with the same output bytes, that the
// reference interpreter gives it on identically seeded state, and every
// server must end in the oracle's state — for every bundled middlebox, on
// the golden test's per-middlebox traffic. The software rows check the
// FastClick baseline, whose server runs the whole program as a plan.
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
			oracle := ir.NewState(art.Prog)
			tr.setup(art)(oracle)
			want := make([]string, len(tr.pkts))
			for i := range tr.pkts {
				p := tr.build(i)
				res, err := art.Prog.Exec(&ir.Env{State: oracle, Pkt: p})
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
				if !state.Equal(oracle) {
					t.Fatalf("%s ends in a server state the unpartitioned program does not", driver)
				}
			}

			for _, mode := range []gallium.Mode{gallium.Offloaded, gallium.Software} {
				tb, err := art.NewTestbed(gallium.TestbedConfig{Setup: tr.setup(art)}, gallium.WithMode(mode))
				if err != nil {
					t.Fatal(err)
				}
				got := make([]string, len(tr.pkts))
				for i := range tr.pkts {
					p := tr.build(i)
					d, err := tb.Inject(tr.pkts[i].tNs, p)
					if err != nil {
						t.Fatalf("%v testbed packet %d: %v", mode, i, err)
					}
					got[i] = fate(d.Delivered, p)
				}
				agree(mode.String()+" testbed", got, tb.ServerState())

				var final *ir.State
				got = make([]string, len(tr.pkts))
				_, err = art.Run(context.Background(), tr,
					seedOnce(tr.setup(art), &final), gallium.WithWorkers(1), gallium.WithMode(mode),
					gallium.WithDeliveries(func(d gallium.Delivery) { got[d.Seq] = fate(d.Delivered, d.Pkt) }))
				if err != nil {
					t.Fatal(err)
				}
				agree(mode.String()+" engine", got, final)
			}
		})
	}
}

// TestDriverTracesAgree holds the two drivers' hop traces to each other:
// one mazunat flow set, spaced 10 ms apart as difftest's inject leg so
// every write-back flip lands before the next packet, traced packet by
// packet through the Testbed and through a one-worker Session. Each
// packet must visit the same sites with the same actions, steps and
// table lookups; times and notes differ by the drivers' endpoint jitter.
func TestDriverTracesAgree(t *testing.T) {
	art, err := gallium.CompileBuiltin("mazunat", gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := newVTTrace("mazunat", 200, difftest.PacketSpacingNs)
	scenario := []gallium.Option{gallium.WithScenario(), gallium.WithFlows(tr.Tuples())}
	traced := func() *obs.Registry {
		reg := obs.NewRegistry()
		reg.EnableTracing(len(tr.pkts))
		return reg
	}

	tbReg := traced()
	tb, err := art.NewTestbed(gallium.TestbedConfig{}, append(scenario, gallium.WithMetrics(tbReg))...)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Generate(func(tNs int64, p *packet.Packet) error {
		_, err := tb.Inject(tNs, p)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	sessReg := traced()
	s, err := gallium.Open(art, append(scenario, gallium.WithWorkers(1), gallium.WithMetrics(sessReg))...)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Feed(tr); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// shape is a hop without its time and note.
	shape := func(h *obs.Hop) string {
		return fmt.Sprintf("%s action=%s steps=%d lookups=%v", h.Site, h.Action, h.Steps, h.Lookups)
	}
	want, got := tbReg.Tracer().Traces(), sessReg.Tracer().Traces()
	if len(want) != len(tr.pkts) || len(got) != len(want) {
		t.Fatalf("traced %d packets on the testbed and %d on the session, want %d each", len(want), len(got), len(tr.pkts))
	}
	slow := 0
	for i := range want {
		w, g := want[i], got[i]
		if w.Packet != g.Packet || len(w.Hops) != len(g.Hops) {
			t.Fatalf("packet %d: testbed trace\n%ssession trace\n%s", i, w.Format(), g.Format())
		}
		for h := range w.Hops {
			if shape(w.Hops[h]) != shape(g.Hops[h]) {
				t.Fatalf("packet %d hop %d: testbed %s, session %s", i, h, shape(w.Hops[h]), shape(g.Hops[h]))
			}
			if w.Hops[h].Site == "server" {
				slow++
			}
		}
	}
	if slow == 0 {
		t.Fatal("no traced packet visited the server; the comparison covered only the fast path")
	}
}
