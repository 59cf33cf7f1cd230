package main

import (
	"fmt"
	"runtime"
	"time"

	"gallium/internal/middleboxes"
)

// workload is one of the four closed-loop loads. A fresh instance is
// built for every set-up repetition; the last one serves the timed rounds.
type workload interface {
	// prepare builds the instance's inputs from its seed (untimed).
	prepare()
	// setup is everything paid before the first steady packet (timed).
	setup() error
	// verifyWarm checks every delivery of setup's warm pass against the
	// unpartitioned-IR oracle (untimed).
	verifyWarm() (attempted, failed int, err error)
	// prepareRound restores the round's packets (untimed).
	prepareRound()
	// runRound is the throughput phase: raw wall ns per packet.
	runRound(trace bool) (nsPerPkt float64, pkts int, err error)
	// checkRound counts the round's missing or wrong outputs (untimed).
	checkRound() (failed int)
	// probe measures unloaded latency with one packet in flight, over a
	// number of probes the workload chooses (at least minProbes).
	probe() (st probeStats, sent int, err error)
	// counters is the engine's own accounting, one entry per pipeline.
	counters() ([]counters, error)
	// drain times the quiescence barrier on the idle session.
	drain() (time.Duration, error)
	// walkSample replays a sample of the rounds' packets through the
	// sequential walker, untraced and then with spans into tr.
	walkSample(tr *tracer, seed int64) (walkResult, error)
	loadedLatencies() []float64
	digest() uint64
	// dropWarm releases what only set-up and verifyWarm needed.
	dropWarm()
	// release drops the remaining generator buffers; the session stays open.
	release()
	close() error
}

const (
	setupReps = 7 // set-ups per run, each on fresh objects
	// minProbes is the fewest latency probes a round sends. Workloads
	// whose probes take about a microsecond send ten times as many, so
	// that every workload's probe phase lasts 20 ms or more and one
	// scheduling hiccup cannot own it.
	minProbes = 2000
)

// Sizes of the in-process workloads. Rounds are sized to 0.1-0.2 s on
// the reference host and every set-up to at least 0.2 s.
const (
	steadyFlows     = 32768
	steadyRoundPkts = 4 * steadyFlows
	churnWarmPkts   = 36864
	churnRoundPkts  = 8192
	mixFlows        = 3072
	mixRoundPkts    = 4 * mixFlows
	wireFlows       = 16384
)

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "steady":
		return newInprocSet([]pipeSpec{{name: "mazunat", boxes: []string{"mazunat"},
			flows: steadyFlows, roundPkts: steadyRoundPkts}}, 10*minProbes, seed), nil
	case "churn":
		return newInprocSet([]pipeSpec{{name: "mazunat", boxes: []string{"mazunat"}, churn: true,
			warmPkts: churnWarmPkts, roundPkts: churnRoundPkts}}, minProbes, seed), nil
	case "mix":
		return newInprocSet(mixSpecs(), 10*minProbes, seed), nil
	case "wire":
		return newWire(wireFlows, seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want steady, churn, wire or mix)", name)
}

// mixChain is the mix workload's tenth pipeline.
var mixChain = []string{"firewall", "mazunat", "l4lb"}

// mixNames lists the ten pipelines of the mix workload: every bundled
// middlebox plus the three-stage chain.
func mixNames() []string {
	var names []string
	for _, s := range middleboxes.Extended() {
		names = append(names, s.Name)
	}
	return append(names, "chain")
}

func mixSpecs() []pipeSpec {
	var specs []pipeSpec
	for _, name := range mixNames() {
		boxes := []string{name}
		if name == "chain" {
			boxes = mixChain
		}
		specs = append(specs, pipeSpec{name: name, boxes: boxes, flows: mixFlows, roundPkts: mixRoundPkts, verify: true})
	}
	return specs
}

// heapAlloc is the live heap after two collections (the second frees
// what the first one's finalizers and sweep released).
func heapAlloc() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// setUp performs the workload's set-up reps times on fresh instances,
// each bracketed by calibration passes, and returns the last instance
// (still open) with every repetition's raw seconds and the mean of its
// two passes. The collector runs before each pass: one taken while it is
// still marking the set-up's garbage measures the program, not the host.
func setUp(name string, seed int64, reps int) (w workload, raw, cals []float64, err error) {
	for i := 0; i < reps; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, nil, nil, err
			}
		}
		if w, err = newWorkload(name, seed); err != nil {
			return nil, nil, nil, err
		}
		w.prepare()
		runtime.GC()
		c0 := calibrate()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, nil, nil, err
		}
		el := time.Since(t0)
		runtime.GC()
		c1 := calibrate()
		raw = append(raw, el.Seconds())
		cals = append(cals, (c0+c1)/2)
	}
	return w, raw, cals, nil
}

// roundLog accumulates per-round values of one run.
type roundLog struct {
	rawNs, refNs       []float64
	calNs              []float64 // per round: the mean of its two passes
	lat50, lat50Raw    []float64 // µs: at reference speed, and as measured
	lat99, dispNs      []float64
	loadedUs           []float64
	userNs, sysNs      float64 // process CPU time over the throughput phases
	allocs, allocBytes []float64
	pkts               int64
	probes             int64
	failed             int
}

// timedRounds runs rounds until seconds of wall time have passed (at
// least one). Each round: restore packets, collect the generator's
// garbage, calibrate, throughput phase, calibrate, check outputs, then
// the unloaded-latency probes.
func timedRounds(w workload, seconds float64, trace bool, first func() error) (*roundLog, error) {
	lg := &roundLog{}
	start := time.Now()
	for r := 0; r == 0 || time.Since(start).Seconds() < seconds; r++ {
		w.prepareRound()
		runtime.GC()
		var m0, m1 runtime.MemStats
		c0 := calibrate()
		if trace {
			runtime.ReadMemStats(&m0)
		}
		cpu0 := cpuTime()
		ns, pkts, err := w.runRound(trace)
		if err != nil {
			return nil, err
		}
		cpu1 := cpuTime()
		if trace {
			runtime.ReadMemStats(&m1)
		}
		c1 := calibrate()
		if trace {
			lg.allocs = append(lg.allocs, float64(m1.Mallocs-m0.Mallocs)/float64(pkts))
			lg.allocBytes = append(lg.allocBytes, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(pkts))
			lg.loadedUs = append(lg.loadedUs, w.loadedLatencies()...)
		}
		lg.rawNs = append(lg.rawNs, ns)
		cal := (c0 + c1) / 2
		lg.refNs = append(lg.refNs, atRef(ns, cal))
		lg.calNs = append(lg.calNs, cal)
		lg.userNs += float64(cpu1.user - cpu0.user)
		lg.sysNs += float64(cpu1.sys - cpu0.sys)
		lg.pkts += int64(pkts)
		lg.failed += w.checkRound()
		if r == 0 && first != nil {
			if err := first(); err != nil {
				return nil, err
			}
		}
		ps, sent, err := w.probe()
		if err != nil {
			return nil, err
		}
		lg.lat50 = append(lg.lat50, atRef(ps.p50Us, cal))
		lg.lat50Raw = append(lg.lat50Raw, ps.p50Us)
		lg.lat99 = append(lg.lat99, ps.p99Us)
		lg.dispNs = append(lg.dispNs, ps.dispatchNs)
		lg.probes += int64(sent)
	}
	return lg, nil
}

// run is what an end-to-end run and a traced run share: a workload set
// up and held to the oracle, its timed rounds, and the engine's own
// counters around them. The caller closes w.
type run struct {
	w         workload
	res       *result
	lg        *roundLog
	rawSetup  []float64
	setupCals []float64 // per set-up: the mean of its two passes
	// afterWarm and final are the engine's counters, per pipeline, before
	// the first round and after the last.
	afterWarm, final []counters
	// base and populated are the live heap before set-up and after the
	// warm pass: a point fixed by the inputs and not by how many rounds
	// the host manages in the time allowed. The state is populated then
	// (every flow established; on churn the table at capacity) and the
	// generator holds its round buffers, whose size two readings at the
	// end of the run measure.
	base, populated float64
}

func measure(name string, seed int64, seconds float64, reps int, trace bool) (*run, error) {
	r := &run{base: heapAlloc()}
	var err error
	if r.w, r.rawSetup, r.setupCals, err = setUp(name, seed, reps); err != nil {
		return nil, err
	}
	w := r.w
	fail := func(err error) (*run, error) {
		w.close()
		return nil, err
	}
	r.res = &result{Workload: name, Seed: seed, Seconds: seconds, Trace: trace, Host: host(),
		InputDigest: fmt.Sprintf("%016x", w.digest()),
		Metrics:     map[string]metric{}, Spread: map[string]summary{}, Counts: map[string]float64{}}
	att, failed, err := w.verifyWarm()
	if err != nil {
		return fail(err)
	}
	w.dropWarm()
	w.prepareRound()
	r.populated = heapAlloc()
	if r.afterWarm, err = w.counters(); err != nil {
		return fail(err)
	}
	var window counters
	r.lg, err = timedRounds(w, seconds, trace, func() error {
		c, err := w.counters()
		window = sumCounters(c).sub(sumCounters(r.afterWarm))
		return err
	})
	if err != nil {
		return fail(err)
	}
	if r.final, err = w.counters(); err != nil {
		return fail(err)
	}
	final := sumCounters(r.final)
	failed += r.lg.failed + int(final.queueDrops)
	if final.capacity > 0 && (final.occupancy > final.capacity || final.evicted == 0) {
		failed++ // the bounded table must hold its bound, by evicting
	}
	windowCounts(r.res.Counts, window)
	r.res.Attempted = int64(att) + r.lg.pkts + r.lg.probes
	r.res.Failed = int64(failed)
	r.res.Rounds = len(r.lg.rawNs)
	r.res.Probes = r.lg.probes
	return r, nil
}
