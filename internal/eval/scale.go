package eval

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"gallium"
	"gallium/internal/packet"
	"gallium/internal/trafficgen"
)

// ScalePoint is one cell of the multi-core scale-out matrix: the engine's
// wall-clock throughput at one (workers × GOMAXPROCS) combination.
type ScalePoint struct {
	Workers    int
	GoMaxProcs int
	Packets    int64
	WallNs     int64
	// PPS is wall-clock packets per second.
	PPS float64
	// BatchSizes holds each worker's mean jobs per mailbox pull.
	BatchSizes []float64
}

// ScaleReport is the multi-core scale-out matrix: the worker ladder
// measured at every GOMAXPROCS rung the host can pin, so worker-count
// scaling (software parallelism) and core-count scaling (hardware
// parallelism) are separable. A single-core host degenerates to one
// rung — NumCPU says so, and the gate skips loudly instead of passing
// vacuously.
type ScaleReport struct {
	Middlebox string
	// NumCPU is the host's core count — the ceiling any scaling claim is
	// judged against.
	NumCPU int
	Points []ScalePoint
}

// prebuiltWorkload replays packets that were generated ahead of the timed
// region, so the measured wall clock covers only the engine pipeline, not
// the traffic generator's packet construction.
type prebuiltWorkload struct {
	tuples []packet.FiveTuple
	tNs    []int64
	pkts   []*packet.Packet
}

func (w *prebuiltWorkload) Tuples() []packet.FiveTuple { return w.tuples }

func (w *prebuiltWorkload) Generate(emit func(int64, *packet.Packet) error) error {
	for i, p := range w.pkts {
		if err := emit(w.tNs[i], p); err != nil {
			return err
		}
	}
	return nil
}

// prebuild materializes a generator's packet stream. Each measurement rung
// needs its own prebuild: the engine mutates the packets it processes.
func prebuild(src gallium.Workload) (*prebuiltWorkload, error) {
	w := &prebuiltWorkload{tuples: src.Tuples()}
	err := src.Generate(func(tNs int64, pkt *packet.Packet) error {
		w.tNs = append(w.tNs, tNs)
		w.pkts = append(w.pkts, pkt)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return w, nil
}

// scaleWorkerCounts is the worker ladder each rung measures.
var scaleWorkerCounts = []int{1, 2, 4, 8}

// scaleProcLadder picks the GOMAXPROCS rungs: the powers of two up to the
// core count, plus the core count itself.
func scaleProcLadder(numCPU int) []int {
	if numCPU < 1 {
		numCPU = 1
	}
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

// EngineScale measures the scale-out matrix on the NAT with the default
// engine configuration. Each cell streams an
// identical pre-built workload through a fresh deployment.
func EngineScale(quick bool) (*ScaleReport, error) {
	const name = "mazunat"
	flows := 64
	durNs := int64(20_000_000) // 20ms at 10Mpps ≈ 200k packets per cell
	if quick {
		durNs = 2_000_000
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	ladder := scaleProcLadder(runtime.NumCPU())
	rep := &ScaleReport{Middlebox: name, NumCPU: runtime.NumCPU()}
	// One untimed warmup pass: the first cell otherwise pays the process's
	// cold-start costs (first compile, cold allocator) and the matrix's
	// 1-worker baseline lands first.
	c, err := CompileOne(name)
	if err != nil {
		return nil, err
	}
	wl, err := prebuild(trafficgen.IperfConfig{Conns: flows, PPS: 1e7, DurationNs: durNs / 4, Seed: 7})
	if err != nil {
		return nil, err
	}
	if _, err := c.Art.Run(context.Background(), wl, gallium.WithWorkers(1), gallium.WithScenario()); err != nil {
		return nil, fmt.Errorf("scale warmup: %w", err)
	}
	for _, procs := range ladder {
		runtime.GOMAXPROCS(procs)
		for _, workers := range scaleWorkerCounts {
			// Fresh artifacts and a fresh packet stream per cell: the
			// engine mutates both.
			c, err := CompileOne(name)
			if err != nil {
				return nil, err
			}
			wl, err := prebuild(trafficgen.IperfConfig{Conns: flows, PPS: 1e7, DurationNs: durNs, Seed: 7})
			if err != nil {
				return nil, err
			}
			r, err := c.Art.Run(context.Background(), wl,
				gallium.WithWorkers(workers), gallium.WithScenario())
			if err != nil {
				return nil, err
			}
			rep.Points = append(rep.Points, ScalePoint{
				Workers:    workers,
				GoMaxProcs: procs,
				Packets:    int64(r.Stats.Injected),
				WallNs:     r.WallNs,
				PPS:        r.PPS,
				BatchSizes: r.BatchSizes,
			})
		}
	}
	return rep, nil
}

// CheckScaleGate checks the matrix. On any host every cell must be
// non-degenerate and stream the same packet count, so a lost packet fails
// the ladder. Then it asserts aggregate scale-out on the widest rung: 8
// workers must deliver at least 3× the 1-worker throughput when the host
// exposes 8+ cores, 1.5× on 4-7 cores. Below 4 cores the measurement is
// physically meaningless, so the gate returns a non-empty skip reason —
// the caller must print it (CI turns it into an annotation) rather than
// letting the step pass as if it had checked something.
func CheckScaleGate(rep *ScaleReport) (skip string, err error) {
	top := 0
	for i, p := range rep.Points {
		if p.PPS <= 0 || p.WallNs <= 0 || p.Packets <= 0 {
			return "", fmt.Errorf("point %d is degenerate: %+v", i, p)
		}
		if p.Packets != rep.Points[0].Packets {
			return "", fmt.Errorf("point %d streamed %d packets, others %d — cells not comparable",
				i, p.Packets, rep.Points[0].Packets)
		}
		if p.GoMaxProcs > top {
			top = p.GoMaxProcs
		}
	}
	if top < 4 {
		return fmt.Sprintf("scale gate SKIPPED, not passed: host exposed %d CPU(s), widest rung GOMAXPROCS=%d; shard scale-out needs >= 4 cores to measure",
			rep.NumCPU, top), nil
	}
	min := 1.5
	if top >= 8 {
		min = 3.0
	}
	var base, eight float64
	for _, p := range rep.Points {
		if p.GoMaxProcs != top {
			continue
		}
		switch p.Workers {
		case 1:
			base = p.PPS
		case 8:
			eight = p.PPS
		}
	}
	if base <= 0 || eight <= 0 {
		return "", fmt.Errorf("scale matrix lacks 1- and 8-worker cells at GOMAXPROCS=%d", top)
	}
	if sc := eight / base; sc < min {
		return "", fmt.Errorf("multi-core scaling regression: 8 workers deliver %.2fx the 1-worker throughput at GOMAXPROCS=%d, want >= %.2fx (%d CPUs)",
			sc, top, min, rep.NumCPU)
	}
	return "", nil
}

// FormatScale renders the matrix for the terminal, one block per rung.
func FormatScale(rep *ScaleReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Multi-core scale-out matrix (%s, %d CPUs)\n",
		rep.Middlebox, rep.NumCPU)
	for i, p := range rep.Points {
		if i%len(scaleWorkerCounts) == 0 {
			fmt.Fprintf(&b, "GOMAXPROCS=%d\n", p.GoMaxProcs)
			fmt.Fprintf(&b, "  %-8s %12s %12s %10s %10s  %s\n",
				"workers", "packets", "wall_ms", "Mpps", "speedup", "batch")
		}
		base := rep.Points[i-i%len(scaleWorkerCounts)].PPS
		fmt.Fprintf(&b, "  %-8d %12d %12.2f %10.3f %9.2fx  %.1f\n",
			p.Workers, p.Packets, float64(p.WallNs)/1e6, p.PPS/1e6, p.PPS/base, p.BatchSizes)
	}
	return b.String()
}
