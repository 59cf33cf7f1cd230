// Package obs is the observability layer shared by the Gallium runtime
// stack: atomic counters, counters and gauges read at snapshot time from
// the counts components keep anyway, fixed-bucket latency histograms with
// quantile estimation, and an optional per-packet trace recorder that
// captures the pre-switch → server → post-switch hop sequence with
// per-hop timings and table hit/miss outcomes.
//
// Every handle is nil-safe: methods on a nil *Registry return nil handles,
// and methods on nil handles are no-ops. Components therefore resolve
// their handles once at instrumentation time and call them unconditionally
// on the hot path — when observability is disabled the per-event cost is a
// single nil check.
package obs

import (
	"encoding/json"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Registry is a string-keyed collection of metrics plus the optional trace
// recorder. A nil *Registry is valid and hands out nil (no-op) handles.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	// funcs and gaugeFuncs are read at snapshot time: each reads a count
	// its component already keeps, and the funcs under one name add up.
	funcs      map[string][]func() uint64
	gaugeFuncs map[string][]func() int64
	tracer     *TraceRecorder
}

// NewRegistry returns an empty registry with tracing disabled.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		hists:      map[string]*Histogram{},
		funcs:      map[string][]func() uint64{},
		gaugeFuncs: map[string][]func() int64{},
	}
}

// Counter returns (registering on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns (registering on first use) the named histogram with
// the given bucket upper bounds; bounds are ignored when the histogram
// already exists, and LatencyBuckets is used when bounds is nil.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// MergedHistogram returns (registering on first use) a named read-time
// merge over parts: its count, sum, min/max, buckets, and quantiles fold
// the parts together at every read, so hot paths observe into a single
// part instead of double-counting into an aggregate. All parts must share
// the merged histogram's bucket bounds; Observe on the merge is a no-op.
func (r *Registry) MergedHistogram(name string, parts ...*Histogram) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newMergedHistogram(parts)
		r.hists[name] = h
	}
	return h
}

// CounterFunc registers a counter whose value fn reads at snapshot time —
// the counter analogue of MergedHistogram. A component registers funcs
// over the counts it keeps anyway, so metrics add nothing to its hot path.
// Funcs registered under one name add up: each of a chain's switches
// registers its own, and the snapshot shows their sum.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = append(r.funcs[name], fn)
}

// GaugeFunc is CounterFunc for gauges: fn is read at snapshot time, and
// the funcs under one name add up.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = append(r.gaugeFuncs[name], fn)
}

// EnableTracing arranges for the first n packets to be traced hop by hop.
func (r *Registry) EnableTracing(n int) {
	if r == nil || n <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tracer = &TraceRecorder{capacity: n}
}

// Tracer returns the trace recorder, or nil when tracing is disabled.
func (r *Registry) Tracer() *TraceRecorder {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tracer
}

// Snapshot is a point-in-time JSON-serializable dump of the registry. The
// field-by-field schema is documented in DESIGN.md.
type Snapshot struct {
	Counters   map[string]uint64       `json:"counters"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms"`
	Traces     []Trace                 `json:"traces,omitempty"`
}

// Snapshot captures every metric and recorded trace.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return &Snapshot{Counters: map[string]uint64{}, Histograms: map[string]HistSnapshot{}}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, fns := range r.funcs {
		for _, fn := range fns {
			s.Counters[n] += fn()
		}
	}
	if len(r.gaugeFuncs) > 0 {
		s.Gauges = make(map[string]int64, len(r.gaugeFuncs))
		for n, fns := range r.gaugeFuncs {
			for _, fn := range fns {
				s.Gauges[n] += fn()
			}
		}
	}
	for n, h := range r.hists {
		s.Histograms[n] = h.Snapshot()
	}
	if r.tracer != nil {
		s.Traces = r.tracer.Traces()
	}
	return s
}

// MarshalJSON renders the snapshot with deterministic key order (maps
// already marshal sorted; this is the plain encoding).
func (s *Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
