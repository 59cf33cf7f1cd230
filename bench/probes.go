package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"gallium"
	"gallium/internal/analysis"
	"gallium/internal/ir"
	"gallium/internal/lang"
	"gallium/internal/middleboxes"
	"gallium/internal/p4"
	"gallium/internal/packet"
	"gallium/internal/partition"
	"gallium/internal/servergen"
	"gallium/internal/serverrt"
	"gallium/internal/switchsim"
)

const (
	reconfigProbes = 200
	// injectFlows is how many of steady's flows the sequential testbed is
	// given: it folds its write-back table on every insert, so warming it
	// is quadratic in the flows (four minutes at 32,768).
	injectFlows = 4096
)

// probes measures every per-layer metric that does not belong to one
// workload's own run, the same way in every traced run, on steady's
// flows: what a layer call costs depends on the table size.
type probes struct {
	m                 map[string]metric
	seed              int64
	seconds           float64
	attempted, failed int64
}

// layerProbes runs all the probes and adds their metrics to m.
func layerProbes(m map[string]metric, seed int64, seconds float64) (attempted, failed int64, err error) {
	p := &probes{m: m, seed: seed, seconds: seconds}
	for _, step := range []func() error{
		p.natLayers, p.engineControls, p.controlLayers, p.compileLayers,
	} {
		if err := step(); err != nil {
			return 0, 0, err
		}
	}
	return p.attempted, p.failed, nil
}

// open prepares and sets up a probe's workload, holds its warm pass to
// the oracle when verify is set, and drops the warm buffers.
func (p *probes) open(w workload, verify bool) error {
	w.prepare()
	if err := w.setup(); err != nil {
		return err
	}
	if verify {
		a, f, err := w.verifyWarm()
		if err != nil {
			return err
		}
		p.attempted, p.failed = p.attempted+int64(a), p.failed+int64(f)
	}
	w.dropWarm()
	return nil
}

// timeEach runs fn over n items and returns ns and heap allocations per
// item. One timer pair around the whole loop: a 50 ns call cannot carry
// its own clock reads.
func timeEach(n int, fn func(i int) error) (ns, allocs float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, 0, err
		}
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(el) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

// natLayers times the public calls of packet, switchsim, serverrt and ir
// one layer at a time on mazunat with steady's 32 K flows: every flow's
// first packet through pre-pass miss, server, write-back, fold and
// post-pass, then established packets through the pre-pass hit.
func (p *probes) natLayers() error {
	m, seed := p.m, p.seed
	art, err := gallium.Compile(middleboxes.MazuNATSource, gallium.Options{})
	if err != nil {
		return err
	}
	flows := buildFlows("mazunat", steadyFlows, rand.New(rand.NewSource(seed)))
	n := len(flows)
	sw, srv := switchsim.New(art.Res), serverrt.New(art.Res)
	sw.ConfigureShards(1)
	seedState("mazunat", flows, srv.State, 0, 1)
	if err := sw.SeedFrom(srv.State); err != nil {
		return err
	}
	pkts := newPackets(n)
	for i := range pkts {
		*pkts[i] = flows[i].first
	}
	var failed int64
	ns, _, err := timeEach(n, func(i int) error {
		pre, err := sw.ProcessPreShard(pkts[i], 0, nil)
		if pre.Action != ir.ActionNext {
			failed++
		}
		return err
	})
	if err != nil {
		return err
	}
	m["switchsim.pre_miss_ns"] = metric{ns, "ns"}
	updates := make([][]switchsim.Update, n)
	ns, allocs, err := timeEach(n, func(i int) error {
		r, err := srv.Process(pkts[i])
		updates[i] = r.Updates
		return err
	})
	if err != nil {
		return err
	}
	m["serverrt.process_ns"] = metric{ns, "ns"}
	m["serverrt.process_allocs"] = metric{allocs, "count"}
	// Stage and flip each packet's updates the way the drainer does,
	// with its amortized fold; the fold carries its own clock reads so
	// the two costs can be told apart.
	nUpdates := 0
	var fold time.Duration
	ns, _, err = timeEach(n, func(i int) error {
		for _, u := range updates[i] {
			nUpdates++
			if err := sw.StageShard(0, u); err != nil {
				return err
			}
		}
		sw.FlipShard(0)
		t0 := time.Now()
		sw.CompactShard(0)
		fold += time.Since(t0)
		return nil
	})
	if err != nil {
		return err
	}
	t0 := time.Now()
	sw.FoldShards()
	fold += time.Since(t0)
	m["switchsim.writeback_ns"] = metric{(ns*float64(n) - float64(fold)) / float64(nUpdates), "ns"}
	m["switchsim.fold_ns_per_entry"] = metric{float64(fold) / float64(nUpdates), "ns"}
	ns, _, err = timeEach(n, func(i int) error {
		post, err := sw.ProcessPostShard(pkts[i], 0, nil)
		if post.Action != ir.ActionSent {
			failed++
		}
		return err
	})
	if err != nil {
		return err
	}
	m["switchsim.post_ns"] = metric{ns, "ns"}

	// Established flows: the pre-pass hits in the 32 K-entry table.
	for i := range pkts {
		*pkts[i] = flows[i].steady
	}
	ns, allocs, err = timeEach(n, func(i int) error {
		pre, err := sw.ProcessPreShard(pkts[i], 0, nil)
		if pre.Action != ir.ActionSent {
			failed++
		}
		return err
	})
	if err != nil {
		return err
	}
	m["switchsim.pre_ns"] = metric{ns, "ns"}
	m["switchsim.pre_allocs"] = metric{allocs, "count"}

	t0 = time.Now()
	sw2 := switchsim.New(art.Res)
	if err := sw2.SeedFrom(srv.State); err != nil {
		return err
	}
	m["switchsim.new_seed_ms"] = metric{float64(time.Since(t0)) / 1e6, "ms"}

	frames := make([][]byte, n)
	ns, _, _ = timeEach(n, func(i int) error { frames[i] = flows[i].steady.Serialize(); return nil })
	m["packet.serialize_ns"] = metric{ns, "ns"}
	ns, _, err = timeEach(n, func(i int) error { _, err := packet.DecodePacket(frames[i], nil); return err })
	if err != nil {
		return err
	}
	m["packet.decode_ns"] = metric{ns, "ns"}

	// The reference interpreter on the unpartitioned program: the oracle's
	// own speed, which no data-path change should move.
	for i := range pkts {
		*pkts[i] = flows[i].steady
	}
	env := ir.Env{State: srv.State}
	ns, _, err = timeEach(n, func(i int) error {
		env.Pkt = pkts[i]
		r, err := art.Prog.Exec(&env)
		if r.Action != ir.ActionSent {
			failed++
		}
		return err
	})
	if err != nil {
		return err
	}
	m["ir.exec_ns"] = metric{ns, "ns"}
	p.attempted, p.failed = p.attempted+int64(6*n), p.failed+failed
	return nil
}

// roundsOf runs rounds of w for about d (at least two) and returns the
// median raw ns/packet, with the failures its checks found.
func roundsOf(ws []workload, d time.Duration) (ns []float64, pkts, failed int64, err error) {
	per := make([][]float64, len(ws))
	start := time.Now()
	for r := 0; r < 2 || time.Since(start) < d; r++ {
		// Alternate the instances so host drift lands on all alike.
		for i, w := range ws {
			w.prepareRound()
			runtime.GC()
			v, n, err := w.runRound(false)
			if err != nil {
				return nil, 0, 0, err
			}
			per[i] = append(per[i], v)
			pkts += int64(n)
			failed += int64(w.checkRound())
		}
	}
	for i := range ws {
		ns = append(ns, median(per[i]))
	}
	return ns, pkts, failed, nil
}

// engineControls records the controls of roadmap items 2 and 5 on the
// steady workload: what a second worker and what the metrics registry do
// to the engine's rate, with rounds of the three alternating. Neither is
// an end-to-end metric: three busy goroutines on two cores are not a
// gateable number.
func (p *probes) engineControls() error {
	var ws []workload
	defer func() {
		for _, w := range ws {
			w.close()
		}
	}()
	for _, cfg := range []struct {
		workers int
		metrics bool
	}{{1, false}, {2, false}, {1, true}} {
		w := newInprocSet([]pipeSpec{{name: "mazunat", boxes: []string{"mazunat"},
			flows: steadyFlows, roundPkts: steadyRoundPkts, workers: cfg.workers, metrics: cfg.metrics}}, minProbes, p.seed)
		ws = append(ws, w)
		// Two workers allocate NAT ports in an order no sequential
		// oracle reproduces; that leg is checked by counts alone.
		if err := p.open(w, cfg.workers == 1); err != nil {
			return err
		}
	}
	ns, pkts, f, err := roundsOf(ws, time.Duration(tracedOtherShare*p.seconds*float64(time.Second)))
	if err != nil {
		return err
	}
	p.m["engine.w2_speedup"] = metric{ns[0] / ns[1], "x"}
	p.m["obs.metrics_on_pct"] = metric{100 * (ns[2] - ns[0]) / ns[0], "%"}
	p.attempted, p.failed = p.attempted+pkts, p.failed+f
	return nil
}

// controlLayers times the two paths that are not on the engine's data
// path today: the sequential testbed's Inject on the same NAT flows, and
// a live reconfiguration of an idle load-balancer session.
func (p *probes) controlLayers() error {
	m, seed := p.m, p.seed
	art, err := gallium.Compile(middleboxes.MazuNATSource, gallium.Options{})
	if err != nil {
		return err
	}
	flows := buildFlows("mazunat", steadyFlows, rand.New(rand.NewSource(seed)))[:injectFlows]
	tb, err := art.NewTestbed(gallium.TestbedConfig{Setup: func(st *ir.State) { seedState("mazunat", flows, st, 0, 1) }})
	if err != nil {
		return err
	}
	var failed int64
	pkts := newPackets(len(flows))
	// Millisecond spacing: every write-back flip lands before the next
	// arrival, so each flow is established when its steady packet comes.
	inject := func(base int64) func(i int) error {
		return func(i int) error {
			d, err := tb.Inject(base+int64(i)*vtStepNs, pkts[i])
			if !d.Delivered {
				failed++
			}
			return err
		}
	}
	for i := range pkts {
		*pkts[i] = flows[i].first
	}
	if _, _, err := timeEach(len(pkts), inject(0)); err != nil {
		return err
	}
	for i := range pkts {
		*pkts[i] = flows[i].steady
	}
	ns, _, err := timeEach(len(pkts), inject(int64(len(pkts))*vtStepNs))
	if err != nil {
		return err
	}
	m["netsim.inject_ns"] = metric{ns, "ns"}

	lb, err := gallium.CompileBuiltin("l4lb", gallium.Options{})
	if err != nil {
		return err
	}
	sess, err := gallium.Open(lb, gallium.WithWorkers(1), gallium.WithScenario())
	if err != nil {
		return err
	}
	defer sess.Close()
	pool := func(n int) gallium.LBPoolChange {
		var op gallium.LBPoolChange
		for _, b := range middleboxes.Backends[:n] {
			op.Backends = append(op.Backends, gallium.Backend{Addr: packet.IPv4Addr(b), Weight: 1})
		}
		return op
	}
	us := make([]float64, 0, reconfigProbes)
	for i := 0; i < reconfigProbes; i++ {
		t0 := time.Now()
		if err := sess.Reconfigure(pool(2 + i%3)); err != nil {
			return fmt.Errorf("reconfigure: %w", err)
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	m["ctlplane.reconfig_us"] = metric{median(us), "us"}
	p.attempted, p.failed = p.attempted+int64(2*len(pkts)+reconfigProbes), p.failed+failed
	return nil
}

// compileLayers times the compiler's stages over the nine bundled
// sources, each stage called the way the facade's Compile calls it, and
// what share of Compile's own time the stages leave unexplained.
func (p *probes) compileLayers() error {
	m := p.m
	const reps = 5
	stage := map[string][]float64{}
	var residual []float64
	cons := gallium.Options{}.Constraints()
	for r := 0; r < reps; r++ {
		sum := map[string]float64{}
		timed := func(name string, fn func() error) error {
			t0 := time.Now()
			err := fn()
			sum[name] += float64(time.Since(t0)) / 1e6
			return err
		}
		var whole float64
		for _, spec := range middleboxes.Extended() {
			var prog *ir.Program
			var res *partition.Result
			err := timed("lang.compile_ms", func() (err error) { prog, err = lang.Compile(spec.Source); return })
			if err == nil {
				err = timed("partition.partition_ms", func() (err error) { res, err = partition.Partition(prog, cons); return })
			}
			if err == nil {
				err = timed("analysis.verify_ms", func() error {
					if d := append(analysis.Lint(prog), analysis.Verify(res)...); d.HasErrors() {
						return fmt.Errorf("%s: verification failed", spec.Name)
					}
					return nil
				})
			}
			if err == nil {
				err = timed("p4.generate_ms", func() error { _, err := p4.Generate(res); return err })
			}
			if err == nil {
				err = timed("servergen.generate_ms", func() error { servergen.Generate(res); return nil })
			}
			if err != nil {
				return err
			}
			t0 := time.Now()
			if _, err := gallium.Compile(spec.Source, gallium.Options{Verify: true}); err != nil {
				return err
			}
			whole += float64(time.Since(t0)) / 1e6
		}
		var stages float64
		for name, ms := range sum {
			stage[name] = append(stage[name], ms)
			stages += ms
		}
		residual = append(residual, 100*(whole-stages)/whole)
	}
	for name, v := range stage {
		m[name] = metric{median(v), "ms"}
	}
	m["compile.residual_pct"] = metric{median(residual), "%"}
	p.attempted += int64(reps * len(middleboxes.Extended()))
	return nil
}
