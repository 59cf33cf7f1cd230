package gallium_test

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	gallium "gallium"
	"gallium/internal/flowstate"
	"gallium/internal/packet"
	"gallium/internal/trafficgen"
)

// Two engine checks that measure the host rather than virtual time: the
// flow-table soak (TestFlowTableSoak) and the multi-core scale-out matrix
// (TestScaleOut). Each records what it saw and hands the record to a
// check function; the synthetic bad records below show that every check
// bites.

// quickChecks reports whether the engine checks run at their quick size:
// under -short, and under the race detector, which slows the full size
// about tenfold and whose timing is not a measurement.
func quickChecks() bool { return testing.Short() || raceEnabled }

// flowSoak is the flow-table soak's record: what it offered and one
// snapshot per settle barrier.
type flowSoak struct {
	workers, offered, capacity int
	// retuned is the UDP timeout the mid-soak FlowTableUpdate set.
	retuned time.Duration
	points  []flowPoint
}

// flowPoint is one snapshot taken at a settle barrier, where capacity
// enforcement is exact.
type flowPoint struct {
	// offered is the cumulative number of distinct flows injected.
	offered int
	// occupancy is the live entry count across all shards; peak is the
	// high-water mark so far, including between sweeps.
	occupancy, peak uint64
	// expired and evicted are the cumulative lifecycle removals.
	expired, evicted uint64
	// heap is the live heap after a GC: the bounded-memory evidence.
	heap uint64
}

// flowFlood offers n distinct single-packet UDP flows, one every
// spacingNs of virtual time, starting at flow index base (so successive
// feed chunks continue the same virtual clock). Flow i's source address
// is unique, which spreads flows across RSS shards and makes every
// packet a slow-path insert into the connection table.
type flowFlood struct {
	base, n   int
	spacingNs int64
}

// Tuples returns nil deliberately: announcing a million five-tuples
// would itself cost the memory the soak is proving bounded, and the
// engine's RSS dispatch hashes per packet.
func (f *flowFlood) Tuples() []packet.FiveTuple { return nil }

func (f *flowFlood) Generate(emit func(int64, *packet.Packet) error) error {
	dst := packet.MakeIPv4Addr(192, 168, 1, 9)
	for i := f.base; i < f.base+f.n; i++ {
		src := packet.MakeIPv4Addr(10, byte(i>>16), byte(i>>8), byte(i))
		if err := emit(int64(i)*f.spacingNs, packet.BuildUDP(src, dst, 4000, 80, nil)); err != nil {
			return err
		}
	}
	return nil
}

// TestFlowTableSoak floods the L4 load balancer, whose connection table
// inserts one entry per new flow, with distinct flows well past the flow
// table's capacity: 1.2M flows against 32,768 entries at full size, 150k
// against 8,192 at the quick size. In the first half, at one flow per µs,
// the opening UDP timeout keeps more flows live than the table admits, so
// LRU eviction pins the table at its limit. Halfway through, a live
// FlowTableUpdate cuts the timeout tenfold: the live window drops below
// capacity and expiry drains the backlog while the flood goes on.
func TestFlowTableSoak(t *testing.T) {
	total, capacity := 1_200_000, 32_768
	timeout, retuned := 50*time.Millisecond, 5*time.Millisecond
	if quickChecks() {
		total, capacity = 150_000, 8_192
		timeout, retuned = 20*time.Millisecond, 2*time.Millisecond
	}
	const workers, chunks = 8, 8
	art, err := gallium.CompileBuiltin("l4lb", gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := gallium.Open(art, gallium.WithWorkers(workers), gallium.WithScenario(),
		gallium.WithFlowTable(gallium.FlowTable{Capacity: capacity, UDPTimeout: timeout}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	soak := &flowSoak{workers: workers, offered: total, capacity: capacity, retuned: retuned}
	per := total / chunks
	for k := range chunks {
		if k*per == total/2 {
			up := gallium.FlowTableUpdate{Table: gallium.FlowTable{Capacity: capacity, UDPTimeout: retuned}}
			if err := s.Reconfigure(up); err != nil {
				t.Fatal(err)
			}
		}
		n := per
		if k == chunks-1 {
			n = total - k*per
		}
		if err := s.Feed(&flowFlood{base: k * per, n: n, spacingNs: 1000}); err != nil {
			t.Fatal(err)
		}
		st, err := s.Stats()
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		p := flowPoint{offered: k*per + n, occupancy: st.Flow.Occupancy, peak: st.Flow.Peak,
			expired: st.Flow.Expired, evicted: st.Flow.Evicted, heap: m.HeapAlloc}
		t.Logf("%8d flows: %6d live, peak %6d, %8d expired, %8d evicted, heap %.1f MiB",
			p.offered, p.occupancy, p.peak, p.expired, p.evicted, float64(p.heap)/(1<<20))
		soak.points = append(soak.points, p)
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := checkSoak(soak); err != nil {
		t.Fatal(err)
	}
}

// checkSoak checks the soak's invariants: more flows offered than the
// table admits, occupancy at or under capacity at every barrier, a
// bounded high-water mark, monotone cumulative counters, both lifecycle
// mechanisms exercised, the backlog drained after the retune, and a live
// heap that never grew to per-offered-flow size.
func checkSoak(s *flowSoak) error {
	if len(s.points) == 0 {
		return fmt.Errorf("soak has no points")
	}
	if s.capacity <= 0 || s.offered <= s.capacity {
		return fmt.Errorf("soak offered %d flows against capacity %d — nothing to bound", s.offered, s.capacity)
	}
	// An incremental sweep removes at most flowstate.DefaultSweepLimit
	// entries, so each worker's shard can end a sweep that far over its
	// share of the capacity; settle barriers sweep without a cap and pull
	// occupancy back under it.
	slack := uint64(s.workers * flowstate.DefaultSweepLimit)
	// 4 KiB per admitted entry: 32 MiB at the quick size, 128 MiB at full
	// size, against live heaps of 6-8 and 11-17 MiB. A leak of ~220 B
	// per offered flow blows through it at both sizes.
	heapBudget := uint64(s.capacity) << 12
	var prev flowPoint
	for i, p := range s.points {
		switch {
		case p.occupancy > uint64(s.capacity):
			return fmt.Errorf("point %d: barrier occupancy %d exceeds capacity %d", i, p.occupancy, s.capacity)
		case p.peak > uint64(s.capacity)+slack:
			return fmt.Errorf("point %d: peak occupancy %d exceeds capacity %d + sweep slack %d", i, p.peak, s.capacity, slack)
		case i > 0 && p.offered <= prev.offered:
			return fmt.Errorf("point %d: flows offered did not advance", i)
		case p.expired < prev.expired || p.evicted < prev.evicted || p.peak < prev.peak:
			return fmt.Errorf("point %d: cumulative counters went backwards", i)
		case p.heap > heapBudget:
			return fmt.Errorf("point %d: live heap %.1f MiB exceeds the %d MiB soak budget", i, float64(p.heap)/(1<<20), heapBudget>>20)
		}
		prev = p
	}
	switch last := prev; {
	case last.expired == 0:
		return fmt.Errorf("soak never expired a flow — timeouts not exercised")
	case last.evicted == 0:
		return fmt.Errorf("soak never evicted a flow — capacity enforcement not exercised")
	case last.expired+last.evicted+uint64(s.capacity) < uint64(s.offered)/2:
		return fmt.Errorf("lifecycle removed only %d of %d offered flows — state is accumulating",
			last.expired+last.evicted, s.offered)
	case last.occupancy > uint64(s.capacity)/2:
		return fmt.Errorf("after retuning the timeout to %v occupancy is still %d of %d — expiry never drained the backlog",
			s.retuned, last.occupancy, s.capacity)
	}
	return nil
}

// goodSoak is a synthetic record that satisfies every soak invariant.
func goodSoak() *flowSoak {
	s := &flowSoak{workers: 8, offered: 150_000, capacity: 8_192, retuned: 2 * time.Millisecond}
	for k := 1; k <= 8; k++ {
		p := flowPoint{offered: k * 150_000 / 8, occupancy: 8_000, peak: 9_000,
			expired: uint64(k) * 5_000, evicted: uint64(k) * 10_000, heap: 16 << 20}
		if k > 4 { // after the retune expiry drains the table
			p.occupancy = 1_000
		}
		s.points = append(s.points, p)
	}
	return s
}

// TestFlowTableSoakChecks breaks each soak invariant in a synthetic record and
// requires checkSoak to name the break.
func TestFlowTableSoakChecks(t *testing.T) {
	if err := checkSoak(goodSoak()); err != nil {
		t.Fatalf("good record rejected: %v", err)
	}
	rows := []struct {
		name string
		mut  func(s *flowSoak)
		want string
	}{
		{"no points", func(s *flowSoak) { s.points = nil }, "no points"},
		{"nothing to bound", func(s *flowSoak) { s.offered = s.capacity }, "nothing to bound"},
		{"over capacity", func(s *flowSoak) { s.points[2].occupancy = uint64(s.capacity) + 1 }, "exceeds capacity"},
		{"peak blowout", func(s *flowSoak) { s.points[2].peak = 1 << 30 }, "sweep slack"},
		{"offered stalls", func(s *flowSoak) { s.points[2].offered = s.points[1].offered }, "did not advance"},
		{"counter regression", func(s *flowSoak) { s.points[3].expired = 0 }, "backwards"},
		{"no expiry", func(s *flowSoak) {
			for i := range s.points {
				s.points[i].expired = 0
			}
		}, "never expired"},
		{"no eviction", func(s *flowSoak) {
			for i := range s.points {
				s.points[i].evicted = 0
			}
		}, "never evicted"},
		{"accumulating", func(s *flowSoak) { s.offered = 1 << 30 }, "accumulating"},
		{"undrained backlog", func(s *flowSoak) { s.points[len(s.points)-1].occupancy = uint64(s.capacity) }, "never drained"},
		{"heap blowout", func(s *flowSoak) { s.points[1].heap = 1 << 40 }, "soak budget"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			s := goodSoak()
			row.mut(s)
			if err := checkSoak(s); err == nil || !strings.Contains(err.Error(), row.want) {
				t.Fatalf("error %v, want one containing %q", err, row.want)
			}
		})
	}
}

// TestFlowFloodGenerator covers the soak's traffic source: n distinct
// flows, one packet each, evenly spaced in virtual time, and no up-front
// tuple announcement.
func TestFlowFloodGenerator(t *testing.T) {
	f := &flowFlood{base: 100, n: 50, spacingNs: 1000}
	if f.Tuples() != nil {
		t.Error("flowFlood announced tuples")
	}
	seen := map[packet.FiveTuple]bool{}
	var lastTS int64 = -1
	err := f.Generate(func(ts int64, p *packet.Packet) error {
		if ts <= lastTS {
			t.Fatalf("timestamps not increasing: %d after %d", ts, lastTS)
		}
		lastTS = ts
		tup, ok := p.Tuple()
		if !ok {
			t.Fatal("flood packet has no tuple")
		}
		seen[tup] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 50 {
		t.Fatalf("flood produced %d distinct flows, want 50", len(seen))
	}
}

// scaleCell is one cell of the scale-out matrix: the engine's wall-clock
// throughput at one (workers × GOMAXPROCS) combination, and where every
// packet it was fed ended.
type scaleCell struct {
	workers, procs                          int
	packets, delivered, mbDrops, queueDrops int64
	wallNs                                  int64
	pps                                     float64
}

// scaleWorkers is the worker ladder each GOMAXPROCS rung measures.
var scaleWorkers = []int{1, 2, 4, 8}

// scaleProcLadder picks the GOMAXPROCS rungs: the powers of two up to the
// core count, plus the core count itself.
func scaleProcLadder(numCPU int) []int {
	numCPU = max(numCPU, 1)
	var out []int
	for _, p := range []int{1, 2, 4, 8} {
		if p <= numCPU {
			out = append(out, p)
		}
	}
	if out[len(out)-1] != numCPU && numCPU < 16 {
		out = append(out, numCPU)
	}
	return out
}

// prebuilt replays packets generated ahead of the timed region, so the
// measured wall clock covers the engine pipeline, not packet
// construction. The engine mutates the packets it processes, so each
// run needs its own.
type prebuilt struct {
	tuples []packet.FiveTuple
	tNs    []int64
	pkts   []*packet.Packet
}

func prebuild(t *testing.T, src gallium.Workload) *prebuilt {
	w := &prebuilt{tuples: src.Tuples()}
	err := src.Generate(func(tNs int64, pkt *packet.Packet) error {
		w.tNs = append(w.tNs, tNs)
		w.pkts = append(w.pkts, pkt)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *prebuilt) Tuples() []packet.FiveTuple { return w.tuples }

func (w *prebuilt) Generate(emit func(int64, *packet.Packet) error) error {
	for i, p := range w.pkts {
		if err := emit(w.tNs[i], p); err != nil {
			return err
		}
	}
	return nil
}

// TestScaleOut measures the NAT's wall-clock throughput over the worker
// ladder at every GOMAXPROCS rung the host can pin, so worker-count
// scaling (software parallelism) and core-count scaling (hardware
// parallelism) are separable. Each cell streams an identical prebuilt
// workload (about 200k packets, 20k at the quick size) through a fresh
// deployment. Every cell must account for every packet; the widest rung
// must show scale-out (checkScaleGate), except under the race detector.
func TestScaleOut(t *testing.T) {
	durNs := int64(20_000_000) // 20 ms at 10 Mpps
	if quickChecks() {
		durNs = 2_000_000
	}
	// Each run compiles afresh and replays its own packets: the engine
	// mutates both.
	run := func(workers int, ns int64) *gallium.Report {
		art, err := gallium.CompileBuiltin("mazunat", gallium.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wl := prebuild(t, trafficgen.IperfConfig{Conns: 64, PPS: 1e7, DurationNs: ns, Seed: 7})
		r, err := art.Run(context.Background(), wl, gallium.WithWorkers(workers), gallium.WithScenario())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// One untimed warm-up: the first cell, the 1-worker baseline, would
	// otherwise pay the process's cold-start costs.
	run(1, durNs/4)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var cells []scaleCell
	for _, procs := range scaleProcLadder(runtime.NumCPU()) {
		runtime.GOMAXPROCS(procs)
		for _, workers := range scaleWorkers {
			r := run(workers, durNs)
			c := scaleCell{workers: workers, procs: procs,
				packets: int64(r.Stats.Injected), delivered: int64(r.Stats.Delivered),
				mbDrops: int64(r.Stats.MBDrops), queueDrops: int64(r.Stats.QueueDrops),
				wallNs: r.WallNs, pps: r.PPS}
			t.Logf("GOMAXPROCS=%d workers=%d: %d packets in %.2f ms, %.3f Mpps, batch %.1f",
				procs, workers, c.packets, float64(c.wallNs)/1e6, c.pps/1e6, r.BatchSizes)
			cells = append(cells, c)
		}
	}
	if err := checkScaleCells(cells); err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		t.Log("speedup not checked: race-detector timing is not a measurement")
		return
	}
	skip, err := checkScaleGate(runtime.NumCPU(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if skip != "" {
		// A skipped gate must show, not pass silently: CI annotates it.
		if os.Getenv("GITHUB_ACTIONS") == "true" {
			fmt.Printf("::notice title=TestScaleOut::%s\n", skip)
		}
		t.Log(skip)
	}
}

// checkScaleCells checks what holds on any host: every cell is
// non-degenerate, accounts for every packet it was fed (a delivery or an
// attributed drop), and was fed the same packet count as the others.
func checkScaleCells(cells []scaleCell) error {
	for i, c := range cells {
		switch {
		case c.pps <= 0 || c.wallNs <= 0 || c.packets <= 0:
			return fmt.Errorf("cell %d is degenerate: %+v", i, c)
		case c.packets != c.delivered+c.mbDrops+c.queueDrops:
			return fmt.Errorf("cell %d lost packets: %d injected, %d delivered + %d mb-drops + %d queue-drops",
				i, c.packets, c.delivered, c.mbDrops, c.queueDrops)
		case c.packets != cells[0].packets:
			return fmt.Errorf("cell %d streamed %d packets, others %d — cells not comparable", i, c.packets, cells[0].packets)
		}
	}
	return nil
}

// checkScaleGate asserts aggregate scale-out on the widest rung: 8
// workers must deliver at least 3× the 1-worker throughput when the host
// exposes 8+ cores, 1.5× on 4-7 cores. Below 4 cores the measurement is
// meaningless, so it returns a skip reason for the caller to print
// rather than passing as if it had checked something.
func checkScaleGate(numCPU int, cells []scaleCell) (skip string, err error) {
	top := 0
	for _, c := range cells {
		top = max(top, c.procs)
	}
	if top < 4 {
		return fmt.Sprintf("scale gate SKIPPED, not passed: host exposed %d CPU(s), widest rung GOMAXPROCS=%d; shard scale-out needs >= 4 cores to measure",
			numCPU, top), nil
	}
	want := 1.5
	if top >= 8 {
		want = 3.0
	}
	var base, eight float64
	for _, c := range cells {
		if c.procs != top {
			continue
		}
		switch c.workers {
		case 1:
			base = c.pps
		case 8:
			eight = c.pps
		}
	}
	if base <= 0 || eight <= 0 {
		return "", fmt.Errorf("scale matrix lacks 1- and 8-worker cells at GOMAXPROCS=%d", top)
	}
	if got := eight / base; got < want {
		return "", fmt.Errorf("multi-core scaling regression: 8 workers deliver %.2fx the 1-worker throughput at GOMAXPROCS=%d, want >= %.2fx (%d CPUs)",
			got, top, want, numCPU)
	}
	return "", nil
}

// TestScaleOutChecks breaks each per-cell invariant in a synthetic matrix
// and requires checkScaleCells to name the break.
func TestScaleOutChecks(t *testing.T) {
	good := func() []scaleCell {
		var cells []scaleCell
		for _, w := range scaleWorkers {
			cells = append(cells, scaleCell{workers: w, procs: 2,
				packets: 200_000, delivered: 200_000, wallNs: 1e8, pps: 2e6})
		}
		return cells
	}
	if err := checkScaleCells(good()); err != nil {
		t.Fatalf("good matrix rejected: %v", err)
	}
	rows := []struct {
		name string
		mut  func(c []scaleCell)
		want string
	}{
		{"degenerate cell", func(c []scaleCell) { c[3].pps = 0 }, "degenerate"},
		{"uneven packets", func(c []scaleCell) { c[2].packets, c[2].delivered = 1, 1 }, "not comparable"},
		{"lost packet", func(c []scaleCell) { c[1].delivered-- }, "lost packets"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cells := good()
			row.mut(cells)
			if err := checkScaleCells(cells); err == nil || !strings.Contains(err.Error(), row.want) {
				t.Fatalf("error %v, want one containing %q", err, row.want)
			}
		})
	}

	// The host-dependent gate on a matrix the per-cell checks accept:
	// ideal scaling over two rungs passes, flat scaling fails, and a
	// 2-core host skips loudly.
	t.Run("gate", func(t *testing.T) {
		ideal := func(rungs ...int) []scaleCell {
			var cells []scaleCell
			for _, procs := range rungs {
				for _, w := range scaleWorkers {
					pps := 1e6 * float64(w)
					cells = append(cells, scaleCell{workers: w, procs: procs,
						packets: 200_000, delivered: 200_000, wallNs: int64(200_000 / pps * 1e9), pps: pps})
				}
			}
			return cells
		}
		good := ideal(4, 8)
		if err := checkScaleCells(good); err != nil {
			t.Fatalf("ideal matrix rejected: %v", err)
		}
		if skip, err := checkScaleGate(8, good); err != nil || skip != "" {
			t.Fatalf("ideal scaling failed the gate: skip=%q err=%v", skip, err)
		}
		flat := ideal(4, 8)
		for i := range flat {
			flat[i].pps = 1e6
		}
		if _, err := checkScaleGate(8, flat); err == nil {
			t.Error("flat scaling passed the gate")
		}
		skip, err := checkScaleGate(2, ideal(2))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(skip, "SKIPPED") {
			t.Errorf("2-core host did not loud-skip: %q", skip)
		}
	})
}

// TestScaleGate pins the speedup gate: threshold selection by the
// widest rung, the loud skip below 4 cores, and the regression error.
func TestScaleGate(t *testing.T) {
	// rung is one GOMAXPROCS rung whose 8-worker cell runs at eight and
	// every other cell at 1 Mpps.
	rung := func(procs int, eight float64) []scaleCell {
		var cells []scaleCell
		for _, w := range scaleWorkers {
			c := scaleCell{workers: w, procs: procs, pps: 1e6}
			if w == 8 {
				c.pps = eight
			}
			cells = append(cells, c)
		}
		return cells
	}
	rows := []struct {
		name     string
		numCPU   int
		cells    []scaleCell
		wantSkip bool
		wantErr  string
	}{
		{"one-core-loud-skip", 1, rung(1, 1e6), true, ""},
		{"two-core-loud-skip", 2, append(rung(1, 8e6), rung(2, 8e6)...), true, ""},
		{"mid-host-pass", 4, rung(4, 1.6e6), false, ""},
		{"mid-host-regression", 4, rung(4, 1.2e6), false, "scaling regression"},
		{"big-host-pass", 8, rung(8, 3.2e6), false, ""},
		{"big-host-regression", 8, rung(8, 2e6), false, "scaling regression"},
		{"widest-rung-decides", 8, append(rung(4, 1e6), rung(8, 3.2e6)...), false, ""},
		{"no-8-worker-cell", 8, rung(8, 3.2e6)[:3], false, "lacks"},
	}
	for _, row := range rows {
		skip, err := checkScaleGate(row.numCPU, row.cells)
		switch {
		case row.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", row.name, err)
		case row.wantErr != "" && (err == nil || !strings.Contains(err.Error(), row.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", row.name, err, row.wantErr)
		}
		if row.wantSkip != strings.Contains(skip, "SKIPPED") {
			t.Errorf("%s: skip = %q, want skip %v", row.name, skip, row.wantSkip)
		}
	}
}

// TestScaleProcLadder pins the rung-selection rules.
func TestScaleProcLadder(t *testing.T) {
	cases := []struct {
		cpus int
		want []int
	}{
		{0, []int{1}},
		{1, []int{1}},
		{2, []int{1, 2}},
		{6, []int{1, 2, 4, 6}},
		{8, []int{1, 2, 4, 8}},
		{32, []int{1, 2, 4, 8}},
	}
	for _, c := range cases {
		if got := scaleProcLadder(c.cpus); !slices.Equal(got, c.want) {
			t.Errorf("scaleProcLadder(%d) = %v, want %v", c.cpus, got, c.want)
		}
	}
}
