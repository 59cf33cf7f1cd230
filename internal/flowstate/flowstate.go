// Package flowstate implements the bounded flow-state lifecycle for
// Gallium middleboxes: a last-touch record per entry of an ir.State's
// dynamic maps, protocol-aware session timeouts (TCP SYN / established /
// FIN-or-RST vs UDP, in the style of yanet2's SessionsTimeouts), and
// capacity enforcement with exact LRU eviction.
//
// The package is deliberately runtime-agnostic: a Tracker hooks one
// ir.State, keeps the records and sweeps them when asked. The engine
// decides *when* to sweep (after every SweepEvery-th packet, and at settle
// barriers) and *how* removals of switch-resident entries propagate —
// they ride the §4.3.3 staged-write-back/visibility-flip path like any
// other control-plane update, so an expiry can never resurrect a stale
// window: a later re-insert of the same key is staged after the delete on
// the worker's own lane and wins via the last-writer-wins discipline.
package flowstate

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"gallium/internal/ir"
	"gallium/internal/packet"
)

// Class is the traffic class used to select a session timeout for a
// flow-table entry: that of the last packet to touch it.
type Class uint8

const (
	// ClassOther covers non-TCP/UDP traffic and entries adopted by a
	// sweep before any packet touched them (e.g. seeded state).
	ClassOther Class = iota
	// ClassUDP covers UDP flows.
	ClassUDP
	// ClassTCPSyn covers half-open TCP flows (SYN seen, not ACKed).
	ClassTCPSyn
	// ClassTCPEst covers established TCP flows.
	ClassTCPEst
	// ClassTCPFin covers closing TCP flows (FIN or RST seen).
	ClassTCPFin

	numClasses
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassOther:
		return "other"
	case ClassUDP:
		return "udp"
	case ClassTCPSyn:
		return "tcp-syn"
	case ClassTCPEst:
		return "tcp-established"
	case ClassTCPFin:
		return "tcp-fin"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ClassOf classifies a packet for timeout selection. TCP packets with
// SYN and no ACK are half-open; FIN or RST marks the flow closing;
// everything else TCP counts as established. The classification is
// taken from the packet as it entered the pipeline, before any header
// rewrites.
func ClassOf(p *packet.Packet) Class {
	switch {
	case p == nil:
		return ClassOther
	case p.HasTCP:
		fl := p.TCP.Flags
		switch {
		case fl&packet.TCPFlagSYN != 0 && fl&packet.TCPFlagACK == 0:
			return ClassTCPSyn
		case fl&(packet.TCPFlagFIN|packet.TCPFlagRST) != 0:
			return ClassTCPFin
		default:
			return ClassTCPEst
		}
	case p.HasUDP:
		return ClassUDP
	}
	return ClassOther
}

// TCPTimeouts holds the per-phase TCP session timeouts. A zero field
// selects the package default for that phase.
type TCPTimeouts struct {
	// Syn bounds half-open flows (SYN seen, not yet ACKed).
	Syn time.Duration `json:"tcp_syn_ns,omitempty"`
	// Established bounds fully established flows.
	Established time.Duration `json:"tcp_established_ns,omitempty"`
	// Fin bounds closing flows (FIN or RST seen).
	Fin time.Duration `json:"tcp_fin_ns,omitempty"`
}

// EvictPolicy selects what happens when a flow table exceeds Capacity.
type EvictPolicy uint8

const (
	// EvictLRU evicts the least-recently-touched entries once the
	// table exceeds Capacity. This is the default.
	EvictLRU EvictPolicy = iota
	// EvictNone disables capacity eviction; the table may exceed
	// Capacity until timeouts catch up. Occupancy is still reported.
	EvictNone
)

// String returns the policy name ("lru" / "none").
func (p EvictPolicy) String() string {
	switch p {
	case EvictLRU:
		return "lru"
	case EvictNone:
		return "none"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// ParseEvictPolicy parses "lru" or "none".
func ParseEvictPolicy(s string) (EvictPolicy, bool) {
	switch s {
	case "lru":
		return EvictLRU, true
	case "none":
		return EvictNone, true
	}
	return 0, false
}

// MarshalText renders the policy by name.
func (p EvictPolicy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText parses a policy name; an empty one selects the default.
func (p *EvictPolicy) UnmarshalText(text []byte) error {
	v, ok := ParseEvictPolicy(string(text))
	if !ok && len(text) > 0 {
		return fmt.Errorf("unknown eviction policy %q (want \"lru\" or \"none\")", text)
	}
	*p = v
	return nil
}

// Defaults applied by Config.Normalized for zero fields.
const (
	DefaultSynTimeout         = 5 * time.Second
	DefaultEstablishedTimeout = 5 * time.Minute
	DefaultFinTimeout         = 10 * time.Second
	DefaultUDPTimeout         = 30 * time.Second
	DefaultSweepEvery         = 1024
	DefaultSweepLimit         = 4096
)

// Config bounds the dynamic flow state of a pipeline. The facade
// exposes it as gallium.FlowTable. Its JSON form (the control socket's
// flow_table) is flat: timeouts are nanoseconds, the sweep knobs are not
// carried.
type Config struct {
	// Capacity is the maximum number of concurrent entries across all
	// dynamic maps of the pipeline (summed over shards). Required.
	Capacity int `json:"capacity"`
	// TCPTimeouts holds per-phase TCP timeouts; zero fields default.
	TCPTimeouts
	// UDPTimeout bounds idle UDP (and unclassified) flows; zero
	// selects DefaultUDPTimeout.
	UDPTimeout time.Duration `json:"udp_ns,omitempty"`
	// EvictPolicy selects capacity enforcement (default EvictLRU).
	EvictPolicy EvictPolicy `json:"evict_policy,omitempty"`
	// SweepEvery is the number of packets a worker processes between
	// incremental sweeps, each run right after the packet that is due.
	// Zero selects DefaultSweepEvery.
	SweepEvery int `json:"-"`
	// SweepLimit caps how many entries one incremental sweep removes,
	// bounding the write-back batch it ships; what is left over is the
	// next sweep's. Settle-barrier sweeps are uncapped. Zero selects
	// DefaultSweepLimit.
	SweepLimit int `json:"-"`
}

// Validate rejects configurations that cannot be meant: non-positive
// capacity, negative timeouts, inverted TCP phase timeouts (a SYN or
// FIN timeout longer than the established timeout would keep half-open
// or closing flows around longer than live ones), unknown eviction
// policies, and a negative SweepEvery or SweepLimit.
func (c Config) Validate() error {
	if c.Capacity <= 0 {
		return fmt.Errorf("flow table capacity must be a positive entry count, got %d", c.Capacity)
	}
	if c.SweepEvery < 0 {
		return fmt.Errorf("SweepEvery must be non-negative, got %d", c.SweepEvery)
	}
	if c.SweepLimit < 0 {
		return fmt.Errorf("SweepLimit must be non-negative, got %d", c.SweepLimit)
	}
	if c.TCPTimeouts.Syn < 0 || c.TCPTimeouts.Established < 0 || c.TCPTimeouts.Fin < 0 {
		return fmt.Errorf("TCP timeouts must be non-negative, got syn=%v established=%v fin=%v",
			c.TCPTimeouts.Syn, c.TCPTimeouts.Established, c.TCPTimeouts.Fin)
	}
	if c.UDPTimeout < 0 {
		return fmt.Errorf("UDP timeout must be non-negative, got %v", c.UDPTimeout)
	}
	n := c.Normalized()
	if n.TCPTimeouts.Syn > n.TCPTimeouts.Established {
		return fmt.Errorf("inverted TCP timeouts: syn %v exceeds established %v",
			n.TCPTimeouts.Syn, n.TCPTimeouts.Established)
	}
	if n.TCPTimeouts.Fin > n.TCPTimeouts.Established {
		return fmt.Errorf("inverted TCP timeouts: fin %v exceeds established %v",
			n.TCPTimeouts.Fin, n.TCPTimeouts.Established)
	}
	if c.EvictPolicy > EvictNone {
		return fmt.Errorf("unknown eviction policy %d", c.EvictPolicy)
	}
	return nil
}

// Normalized returns a copy with defaults filled in for zero fields.
func (c Config) Normalized() Config {
	if c.TCPTimeouts.Syn == 0 {
		c.TCPTimeouts.Syn = DefaultSynTimeout
	}
	if c.TCPTimeouts.Established == 0 {
		c.TCPTimeouts.Established = DefaultEstablishedTimeout
	}
	if c.TCPTimeouts.Fin == 0 {
		c.TCPTimeouts.Fin = DefaultFinTimeout
	}
	if c.UDPTimeout == 0 {
		c.UDPTimeout = DefaultUDPTimeout
	}
	if c.SweepEvery <= 0 {
		c.SweepEvery = DefaultSweepEvery
	}
	if c.SweepLimit <= 0 {
		c.SweepLimit = DefaultSweepLimit
	}
	return c
}

// Shard returns the per-worker slice of a normalized config: Capacity
// is split evenly (rounding up) across workers, everything else is
// copied through.
func (c Config) Shard(workers int) Config {
	c = c.Normalized()
	if workers > 1 {
		c.Capacity = (c.Capacity + workers - 1) / workers
	}
	return c
}

// timeoutNs returns the idle timeout for a class on a normalized config.
func (c *Config) timeoutNs(class Class) int64 {
	switch class {
	case ClassTCPSyn:
		return int64(c.TCPTimeouts.Syn)
	case ClassTCPEst:
		return int64(c.TCPTimeouts.Established)
	case ClassTCPFin:
		return int64(c.TCPTimeouts.Fin)
	default: // ClassUDP and ClassOther
		return int64(c.UDPTimeout)
	}
}

// Removal names one entry removed by a sweep.
type Removal struct {
	Table string
	Key   ir.MapKey
	// Evicted is true for capacity evictions, false for timeouts.
	Evicted bool
}

// Stats is a point-in-time snapshot of a tracker's counters.
type Stats struct {
	Capacity  int    `json:"capacity"`
	Occupancy uint64 `json:"occupancy"`
	Peak      uint64 `json:"peak"`
	Expired   uint64 `json:"expired"`
	Evicted   uint64 `json:"evicted"`
}

const none = int32(-1)

// Tracker holds the lifecycle of one ir.State (one worker's per-stage
// shard). Each entry of the tracked tables carries its record inline
// (ir.EntryLife), and the records are linked into one list per traffic
// class in (touch, table name, key) order; a link names an entry as
// index*len(tables) + table. Every entry of a class shares a timeout, so
// the entries due to expire are a prefix of their class's list, and the
// least-recently-touched entry overall is the least of the class heads:
// expiry and LRU eviction both pop list heads, at a cost proportional to
// what they remove.
//
// The tracker is the state's ir.Lifecycle hook. Touch, Forget and Sweep
// must be called from the goroutine that owns the state; the counters
// are atomics so Stats is safe to read from anywhere.
type Tracker struct {
	cfg        atomic.Pointer[Config] // normalized, per-shard
	tables     []*ir.Table            // sorted by name
	live       int                    // linked entries
	head, tail [numClasses]int32
	out        []Removal // Sweep's result, reused

	expired   atomic.Uint64
	evicted   atomic.Uint64
	occupancy atomic.Uint64
	peak      atomic.Uint64
}

// NewTracker tracks the named tables of st (the pipeline's dynamic
// maps) under cfg, which is normalized and should already be per-shard
// (see Config.Shard), and installs itself as st's lifecycle hook. Entries
// already present are adopted by the first sweep.
func NewTracker(cfg Config, st *ir.State, tables []string) *Tracker {
	t := &Tracker{}
	n := cfg.Normalized()
	t.cfg.Store(&n)
	names := append([]string(nil), tables...)
	slices.Sort(names)
	for _, name := range names {
		if tb := st.Table(name); tb != nil {
			tb.Range(func(e int32) bool {
				tb.Life(e).Linked = false
				return true
			})
			t.tables = append(t.tables, tb)
		}
	}
	for c := range t.head {
		t.head[c], t.tail[c] = none, none
	}
	st.Life = t
	return t
}

// SetConfig retunes the tracker in place (live flow-table reconfig).
// cfg should already be per-shard. Counters are preserved, and so are
// the lists: their order does not depend on the timeouts.
func (t *Tracker) SetConfig(cfg Config) {
	n := cfg.Normalized()
	t.cfg.Store(&n)
}

// Stats snapshots the tracker's counters.
func (t *Tracker) Stats() Stats {
	return Stats{
		Capacity:  t.cfg.Load().Capacity,
		Occupancy: t.occupancy.Load(),
		Peak:      t.peak.Load(),
		Expired:   t.expired.Load(),
		Evicted:   t.evicted.Load(),
	}
}

// link names entry e of tb in the lists, or returns none for an
// untracked table.
func (t *Tracker) link(tb *ir.Table, e int32) int32 {
	for ti, x := range t.tables {
		if x == tb {
			return e*int32(len(t.tables)) + int32(ti)
		}
	}
	return none
}

// entry resolves a link to its table index and entry.
func (t *Tracker) entry(l int32) (int, int32) {
	n := int32(len(t.tables))
	return int(l % n), l / n
}

func (t *Tracker) rec(l int32) *ir.EntryLife {
	ti, e := t.entry(l)
	return t.tables[ti].Life(e)
}

// Touch implements ir.Lifecycle: entry e was found or inserted at nowNs
// by a packet of the given class. Its record moves to its place in that
// class's list, found by walking back from the tail over the records that
// sort after it — normally none, or the same packet's few equal-timestamp
// touches. Because the place depends only on (touch, table, key), the
// lists come out the same whatever order the pre-pass, the server and the
// post-pass touch entries in within one packet.
func (t *Tracker) Touch(tb *ir.Table, e int32, nowNs int64, class uint8) {
	l := t.link(tb, e)
	if l == none {
		return
	}
	r := tb.Life(e)
	if r.Linked {
		t.unlink(l)
	} else {
		r.Linked = true
		t.live++
	}
	c := Class(class)
	if c >= numClasses {
		c = ClassOther
	}
	r.Touch, r.Class = nowNs, uint8(c)
	at := t.tail[c]
	for at != none && t.less(l, at) {
		at = t.rec(at).Prev
	}
	r.Prev = at
	if at == none {
		r.Next, t.head[c] = t.head[c], l
	} else {
		p := t.rec(at)
		r.Next, p.Next = p.Next, l
	}
	if r.Next == none {
		t.tail[c] = l
	} else {
		t.rec(r.Next).Prev = l
	}
}

// Forget implements ir.Lifecycle: entry e is leaving its table.
func (t *Tracker) Forget(tb *ir.Table, e int32) {
	if l := t.link(tb, e); l != none && tb.Life(e).Linked {
		t.unlink(l)
		tb.Life(e).Linked = false
		t.live--
	}
}

func (t *Tracker) unlink(l int32) {
	r := t.rec(l)
	if r.Prev == none {
		t.head[r.Class] = r.Next
	} else {
		t.rec(r.Prev).Next = r.Next
	}
	if r.Next == none {
		t.tail[r.Class] = r.Prev
	} else {
		t.rec(r.Next).Prev = r.Prev
	}
}

// less is the list order: touch time, then table name, then key.
func (t *Tracker) less(a, b int32) bool {
	if ta, tb := t.rec(a).Touch, t.rec(b).Touch; ta != tb {
		return ta < tb
	}
	ia, ea := t.entry(a)
	ib, eb := t.entry(b)
	if ia != ib {
		return ia < ib
	}
	return slices.Compare(t.tables[ia].KeyWords(ea), t.tables[ib].KeyWords(eb)) < 0
}

// Sweep expires idle entries and enforces capacity as of virtual time
// nowNs, returning the removals so the caller can propagate deletions
// of switch-resident entries through the control plane. It pops each
// class's expired prefix and then, under EvictLRU, the least class head
// until occupancy is within Capacity. An incremental sweep (full false)
// stops after SweepLimit removals and leaves the rest to the next one; a
// full sweep has no cap. The returned slice is the tracker's: it stays
// valid until the next Sweep, which reuses it.
func (t *Tracker) Sweep(nowNs int64, full bool) []Removal {
	cfg := t.cfg.Load()
	t.adopt(nowNs)
	budget := cfg.SweepLimit
	if full {
		budget = t.live
	}
	t.out = t.out[:0]
	for c := range t.head {
		timeout := cfg.timeoutNs(Class(c))
		for h := t.head[c]; h != none && len(t.out) < budget && nowNs-t.rec(h).Touch >= timeout; h = t.head[c] {
			t.remove(h, false)
		}
	}
	expired := len(t.out)
	if cfg.EvictPolicy == EvictLRU {
		for over := min(t.live-cfg.Capacity, budget-expired); over > 0; over-- {
			least := none
			for _, h := range t.head {
				if h != none && (least == none || t.less(h, least)) {
					least = h
				}
			}
			t.remove(least, true)
		}
	}

	t.expired.Add(uint64(expired))
	t.evicted.Add(uint64(len(t.out) - expired))
	occ := uint64(t.live)
	t.occupancy.Store(occ)
	if occ > t.peak.Load() {
		t.peak.Store(occ)
	}
	return t.out
}

// remove deletes a listed entry from its table and records the removal.
func (t *Tracker) remove(l int32, evicted bool) {
	ti, e := t.entry(l)
	tb := t.tables[ti]
	t.out = append(t.out, Removal{Table: tb.Name(), Key: tb.Key(e), Evicted: evicted})
	t.Forget(tb, e)
	tb.Delete(e)
}

// adopt links every entry written behind the tracker's back (state seeded
// before arming, a replaced map, the seeding helpers' Table.Put), which
// tables holding more entries than the tracker has linked give away:
// touched now rather than expired unseen, ClassOther, in key order so each
// lands at the list's tail. Removals have no such net: they go through
// State.RemoveAt/ReplaceMap.
func (t *Tracker) adopt(nowNs int64) {
	n := 0
	for _, tb := range t.tables {
		n += tb.Len()
	}
	for _, tb := range t.tables {
		if n <= t.live {
			return
		}
		var fresh []int32
		tb.Range(func(e int32) bool {
			if !tb.Life(e).Linked {
				fresh = append(fresh, e)
			}
			return true
		})
		slices.SortFunc(fresh, func(a, b int32) int { return slices.Compare(tb.KeyWords(a), tb.KeyWords(b)) })
		for _, e := range fresh {
			t.Touch(tb, e, nowNs, uint8(ClassOther))
		}
	}
}

// DynamicMaps returns the sorted names of the program's dynamic maps:
// those the data path inserts into, i.e. the maps whose population
// tracks live flows. Config-style maps only written by Setup are not
// lifecycle-managed.
func DynamicMaps(p *ir.Program) []string {
	if p == nil || p.Fn == nil {
		return nil
	}
	seen := make(map[string]bool)
	var out []string
	for _, b := range p.Fn.Blocks {
		for i := range b.Instrs {
			if in := &b.Instrs[i]; in.Kind == ir.MapInsert && !seen[in.Obj] {
				seen[in.Obj] = true
				out = append(out, in.Obj)
			}
		}
	}
	slices.Sort(out)
	return out
}
