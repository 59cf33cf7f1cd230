package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter accumulated")
	}
	r.GaugeFunc("y", func() int64 { return 3 })
	h := r.Histogram("z", nil)
	h.Observe(100)
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil histogram accumulated")
	}
	if tr := r.Tracer(); tr != nil {
		t.Error("nil registry returned a tracer")
	}
	var rec *TraceRecorder
	tr := rec.Start("pkt")
	hop := tr.Hop("switch", 0)
	hop.Lookup("t", true)
	hop.SetNote("sent")
	rec.End(tr)
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 {
		t.Error("nil registry snapshot has counters or gauges")
	}
}

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pkts")
	c.Inc()
	c.Add(9)
	if got := c.Value(); got != 10 {
		t.Errorf("counter = %d, want 10", got)
	}
	if r.Counter("pkts") != c {
		t.Error("same name returned a different counter")
	}
	depth := int64(4)
	r.GaugeFunc("depth", func() int64 { return depth })
	depth--
	if got := r.Snapshot().Gauges["depth"]; got != 3 {
		t.Errorf("gauge = %d, want 3", got)
	}
}

func TestCounterConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", nil)
	// Uniform 1..100 µs in ns.
	for i := 1; i <= 100; i++ {
		h.Observe(int64(i) * 1000)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got, want := h.Mean(), 50_500.0; math.Abs(got-want) > 1 {
		t.Errorf("mean = %f, want %f", got, want)
	}
	p50 := h.Quantile(0.50)
	if p50 < 30_000 || p50 > 70_000 {
		t.Errorf("p50 = %f, want ≈50000", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 90_000 || p99 > 100_000 {
		t.Errorf("p99 = %f, want ≈99000", p99)
	}
	if p50 > h.Quantile(0.95) || h.Quantile(0.95) > p99 {
		t.Error("quantiles not monotonic")
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := newHistogram(nil)
	for i := 0; i < 10; i++ {
		h.Observe(7000)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got := h.Quantile(q); got != 7000 {
			t.Errorf("quantile(%f) = %f, want 7000", q, got)
		}
	}
	s := h.Snapshot()
	if s.Min != 7000 || s.Max != 7000 || s.Count != 10 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := newHistogram([]int64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000) // overflow
	s := h.Snapshot()
	if s.Count != 3 || s.Max != 5000 {
		t.Fatalf("snapshot = %+v", s)
	}
	var overflow bool
	for _, b := range s.Buckets {
		if b.UpperBound == -1 && b.Count == 1 {
			overflow = true
		}
	}
	if !overflow {
		t.Errorf("overflow bucket missing: %+v", s.Buckets)
	}
	if p99 := h.Quantile(0.99); p99 > 5000 || p99 <= 100 {
		t.Errorf("p99 = %f, want in (100, 5000]", p99)
	}
}

func TestTraceRecorderCapacity(t *testing.T) {
	r := NewRegistry()
	r.EnableTracing(2)
	tr := r.Tracer()
	if tr == nil {
		t.Fatal("tracer not enabled")
	}
	t1 := tr.Start("pkt1")
	t2 := tr.Start("pkt2")
	t3 := tr.Start("pkt3")
	if t1 == nil || t2 == nil {
		t.Fatal("tracer refused within capacity")
	}
	if t3 != nil {
		t.Fatal("tracer exceeded capacity")
	}
	hop := t1.Hop("switch-pre", 1000)
	hop.Lookup("conn", false)
	hop.Action, hop.Steps = "next", 7
	t1.Hop("deliver", 9000).SetNote("latency 8.0µs")

	// A trace is visible once its walk has ended, in Start order.
	if n := len(tr.Traces()); n != 0 {
		t.Fatalf("traces = %d before any ended, want 0", n)
	}
	tr.End(t2)
	tr.End(t1)
	traces := tr.Traces()
	if len(traces) != 2 || traces[0].ID != 0 || traces[1].ID != 1 {
		t.Fatalf("traces = %+v, want #0 and #1", traces)
	}
	text := traces[0].Format()
	for _, want := range []string{"trace #0 pkt1", "switch-pre", "conn=miss", "action=next", "steps=7", "deliver"} {
		if !strings.Contains(text, want) {
			t.Errorf("formatted trace missing %q:\n%s", want, text)
		}
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("switch.table.conn.hits").Add(3)
	r.GaugeFunc("switch.table.conn.entries", func() int64 { return 2 })
	r.Histogram("engine.latency_ns", nil).Observe(15_000)
	r.EnableTracing(1)
	tr := r.Tracer().Start("tcp 1.2.3.4:1000 > 9.9.9.9:80")
	tr.Hop("switch-pre", 0).Lookup("conn", true)
	r.Tracer().End(tr)

	data, err := r.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if back.Counters["switch.table.conn.hits"] != 3 {
		t.Errorf("counter lost: %+v", back.Counters)
	}
	h, ok := back.Histograms["engine.latency_ns"]
	if !ok || h.Count != 1 || h.P50 == 0 {
		t.Errorf("histogram lost: %+v", h)
	}
	if len(back.Traces) != 1 || len(back.Traces[0].Hops) != 1 {
		t.Errorf("trace lost: %+v", back.Traces)
	}
}

func TestMergedHistogram(t *testing.T) {
	r := NewRegistry()
	fast := r.Histogram("lat.fast", nil)
	slow := r.Histogram("lat.slow", nil)
	all := r.MergedHistogram("lat", fast, slow)

	for i := 0; i < 90; i++ {
		fast.Observe(10_000)
	}
	for i := 0; i < 10; i++ {
		slow.Observe(100_000)
	}
	all.Observe(1) // merged views ignore direct observations

	if got := all.Count(); got != 100 {
		t.Fatalf("merged count = %d, want 100", got)
	}
	wantMean := (90*10_000.0 + 10*100_000.0) / 100
	if got := all.Mean(); got != wantMean {
		t.Errorf("merged mean = %v, want %v", got, wantMean)
	}
	if p50 := all.Quantile(0.50); p50 > 10_000 {
		t.Errorf("p50 = %v, want <= 10000 (fast bucket)", p50)
	}
	if p99 := all.Quantile(0.99); p99 <= 10_000 {
		t.Errorf("p99 = %v, want in the slow range", p99)
	}
	s := all.Snapshot()
	if s.Count != 100 || s.Min != 10_000 || s.Max != 100_000 {
		t.Errorf("merged snapshot = %+v", s)
	}
	var n uint64
	for _, b := range s.Buckets {
		n += b.Count
	}
	if n != 100 {
		t.Errorf("merged buckets sum to %d", n)
	}

	// The merge is live: later part observations show up on the next read.
	slow.Observe(200_000)
	if got := all.Count(); got != 101 {
		t.Errorf("merge not live: count = %d", got)
	}
}

func TestCounterFuncMergesAtSnapshotTime(t *testing.T) {
	reg := NewRegistry()
	// Per-worker counters, as the engine keeps them.
	w0 := reg.Counter("engine.worker.0.packets")
	w1 := reg.Counter("engine.worker.1.packets")
	reg.CounterFunc("engine.packets", func() uint64 { return w0.Value() + w1.Value() })
	w0.Add(3)
	w1.Add(4)
	if got := reg.Snapshot().Counters["engine.packets"]; got != 7 {
		t.Errorf("derived counter = %d, want 7", got)
	}
	w1.Inc()
	if got := reg.Snapshot().Counters["engine.packets"]; got != 8 {
		t.Errorf("derived counter after update = %d, want 8 (must be read-time)", got)
	}
	// Funcs under one name add up, as a chain's switches register theirs.
	reg.CounterFunc("switch.fastpath", func() uint64 { return 5 })
	reg.CounterFunc("switch.fastpath", func() uint64 { return 6 })
	if got := reg.Snapshot().Counters["switch.fastpath"]; got != 11 {
		t.Errorf("two funcs under one name = %d, want 11", got)
	}
	// A GaugeFunc shows up under gauges, summed the same way.
	epoch := int64(3)
	reg.GaugeFunc("switch.snapshot.epoch", func() int64 { return epoch })
	reg.GaugeFunc("switch.snapshot.epoch", func() int64 { return 4 })
	snap := reg.Snapshot()
	if got := snap.Gauges["switch.snapshot.epoch"]; got != 7 {
		t.Errorf("gauge funcs = %d, want 7", got)
	}
	if _, ok := snap.Counters["switch.snapshot.epoch"]; ok {
		t.Error("gauge func listed under counters")
	}
	epoch = 10
	if got := reg.Snapshot().Gauges["switch.snapshot.epoch"]; got != 14 {
		t.Errorf("gauge func after update = %d, want 14 (must be read-time)", got)
	}
	// Nil-safety: no-ops, no panics.
	var nilReg *Registry
	nilReg.CounterFunc("x", func() uint64 { return 1 })
	nilReg.GaugeFunc("x", func() int64 { return 1 })
	reg.CounterFunc("y", nil)
	reg.GaugeFunc("z", nil)
	snap = reg.Snapshot()
	if _, ok := snap.Counters["y"]; ok {
		t.Error("nil func registered")
	}
	if _, ok := snap.Gauges["z"]; ok {
		t.Error("nil gauge func registered")
	}
}

func TestStandaloneHistogramMerge(t *testing.T) {
	a := NewHistogram(nil)
	b := NewHistogram(nil)
	a.Observe(1_500)
	b.Observe(40_000)
	b.Observe(40_000)
	m := MergeHistograms(a, b)
	if got := m.Count(); got != 3 {
		t.Fatalf("merged count = %d, want 3", got)
	}
	s := m.Snapshot()
	if s.Min != 1_500 || s.Max != 40_000 {
		t.Errorf("merged min/max = %d/%d", s.Min, s.Max)
	}
	// Observing into a merge is a documented no-op.
	m.Observe(99)
	if got := m.Count(); got != 3 {
		t.Errorf("merge accepted an observation (count %d)", got)
	}
	// Later observations into parts show up at the next read.
	a.Observe(2_000)
	if got := m.Count(); got != 4 {
		t.Errorf("merge not read-time: count %d, want 4", got)
	}
}
