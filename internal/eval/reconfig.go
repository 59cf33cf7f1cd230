package eval

import (
	"fmt"
	"strings"
	"time"

	"gallium"
	"gallium/internal/middleboxes"
	"gallium/internal/packet"
	"gallium/internal/trafficgen"
)

// ReconfigRow is one middlebox's live-reconfiguration measurement: typed
// control-plane operations applied to a running session under sustained
// traffic, with the loss accounting that proves the zero-drop claim and
// the wall-clock cost of each atomic visibility flip.
type ReconfigRow struct {
	Middlebox string
	Op        string
	Workers   int
	Reconfigs int

	Injected   int
	Delivered  int
	MBDrops    int
	QueueDrops int

	// MeanApplyUs/MaxApplyUs are the wall-clock Reconfigure latencies:
	// quiesce every shard, mutate, one snapshot flip, resume.
	MeanApplyUs float64
	MaxApplyUs  float64
	// Epoch is the first stage's final snapshot epoch — proof the flips
	// reached the data plane.
	Epoch uint64
}

// Accounted reports whether every injected packet is accounted for by a
// delivery or an attributed drop — the zero-loss invariant.
func (r ReconfigRow) Accounted() bool {
	return r.Injected == r.Delivered+r.MBDrops+r.QueueDrops
}

// reconfigCase pairs a middlebox with the typed operation exercising it.
type reconfigCase struct {
	name string
	op   string
	// make builds the i-th operation; alternating variants force real
	// state churn on every apply.
	make func(i int, flows []packet.FiveTuple) gallium.ReconfigOp
}

func reconfigCases() []reconfigCase {
	return []reconfigCase{
		{
			name: "firewall",
			op:   "firewall-swap",
			make: func(i int, flows []packet.FiveTuple) gallium.ReconfigOp {
				// Every swap keeps the live flows whitelisted (so delivery
				// continues) while churning a block of decoy rules.
				rules := append([]packet.FiveTuple(nil), flows...)
				for j := 0; j < 64; j++ {
					rules = append(rules, packet.FiveTuple{
						SrcIP:   packet.MakeIPv4Addr(10, 9, byte(i%2), byte(j)),
						DstIP:   packet.MakeIPv4Addr(198, 51, 100, byte(j)),
						SrcPort: uint16(20000 + j),
						DstPort: 443,
						Proto:   packet.IPProtocolTCP,
					})
				}
				return gallium.FirewallRuleSwap{Rules: rules}
			},
		},
		{
			name: "l4lb",
			op:   "lb-pool",
			make: func(i int, flows []packet.FiveTuple) gallium.ReconfigOp {
				pool := []gallium.Backend{
					{Addr: packet.IPv4Addr(middleboxes.Backends[0]), Weight: 2},
					{Addr: packet.IPv4Addr(middleboxes.Backends[1]), Weight: 1},
					{Addr: packet.IPv4Addr(middleboxes.Backends[2]), Weight: 1},
				}
				if i%2 == 1 {
					// Swap the third backend out and reweight, draining its
					// connections rather than purging them.
					pool = []gallium.Backend{
						{Addr: packet.IPv4Addr(middleboxes.Backends[0]), Weight: 1},
						{Addr: packet.IPv4Addr(middleboxes.Backends[1]), Weight: 3},
						{Addr: packet.IPv4Addr(middleboxes.Backends[3]), Weight: 2},
					}
				}
				return gallium.LBPoolChange{Backends: pool, Drain: i%4 < 2}
			},
		},
		{
			name: "mazunat",
			op:   "nat-repartition",
			make: func(i int, flows []packet.FiveTuple) gallium.ReconfigOp {
				if i%2 == 1 {
					return gallium.NATRepartition{Bases: []uint16{1024, 17408, 33792, 50176}}
				}
				return gallium.NATRepartition{} // even split
			},
		},
	}
}

// ReconfigEval measures the live control plane: for each middlebox it
// opens a session, streams traffic continuously, and applies alternating
// typed reconfigurations while packets flow — reporting loss accounting
// and per-operation apply latency.
func ReconfigEval(quick bool) ([]ReconfigRow, error) {
	n := 40
	if quick {
		n = 8
	}
	const workers = 4
	var rows []ReconfigRow
	for _, tc := range reconfigCases() {
		c, err := CompileOne(tc.name)
		if err != nil {
			return nil, err
		}
		row, err := runReconfig(c, tc, n, workers)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", tc.name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runReconfig(c *gallium.Artifacts, tc reconfigCase, n, workers int) (ReconfigRow, error) {
	// Modest offered rate: queue drops would muddy the loss attribution.
	gen := trafficFor(128, 2e5, 2_000_000)
	s, err := gallium.Open(c,
		gallium.WithWorkers(workers),
		gallium.WithScenario(),
		gallium.WithFlows(gen.Tuples()),
	)
	if err != nil {
		return ReconfigRow{}, err
	}
	done := make(chan struct{})
	feedErr := make(chan error, 1)
	go func() {
		var off int64
		for {
			select {
			case <-done:
				feedErr <- nil
				return
			default:
			}
			if err := s.Feed(trafficgen.Shifted{WL: gen, OffsetNs: off}); err != nil {
				feedErr <- err
				return
			}
			off += gen.DurationNs
		}
	}()

	var total, max time.Duration
	for i := 0; i < n; i++ {
		op := tc.make(i, gen.Tuples())
		t0 := time.Now()
		if err := s.Reconfigure(op); err != nil {
			close(done)
			<-feedErr
			_, _ = s.Close()
			return ReconfigRow{}, err
		}
		d := time.Since(t0)
		total += d
		if d > max {
			max = d
		}
	}
	close(done)
	if err := <-feedErr; err != nil {
		_, _ = s.Close()
		return ReconfigRow{}, err
	}
	rep, err := s.Close()
	if err != nil {
		return ReconfigRow{}, err
	}
	row := ReconfigRow{
		Middlebox:   c.Name,
		Op:          tc.op,
		Workers:     workers,
		Reconfigs:   rep.Reconfigs,
		Injected:    rep.Stats.Injected,
		Delivered:   rep.Stats.Delivered,
		MBDrops:     rep.Stats.MBDrops,
		QueueDrops:  rep.Stats.QueueDrops,
		MeanApplyUs: float64(total.Microseconds()) / float64(n),
		MaxApplyUs:  float64(max.Microseconds()),
	}
	if len(rep.SwitchStages) > 0 {
		row.Epoch = rep.SwitchStages[0].Epoch
	}
	return row, nil
}

// FormatReconfig renders the reconfiguration table.
func FormatReconfig(rows []ReconfigRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Live reconfiguration under sustained traffic (%d workers)\n", 4)
	fmt.Fprintf(&b, "%-10s %-16s %9s %10s %10s %8s %8s %10s %10s %7s\n",
		"middlebox", "operation", "reconfigs", "injected", "delivered", "mb-drop", "q-drop", "apply-mean", "apply-max", "epoch")
	for _, r := range rows {
		status := ""
		if !r.Accounted() {
			status = "  LOSS!"
		}
		fmt.Fprintf(&b, "%-10s %-16s %9d %10d %10d %8d %8d %9.0fµs %9.0fµs %7d%s\n",
			r.Middlebox, r.Op, r.Reconfigs, r.Injected, r.Delivered, r.MBDrops, r.QueueDrops,
			r.MeanApplyUs, r.MaxApplyUs, r.Epoch, status)
	}
	return b.String()
}
