// Package switchsim simulates the programmable switch executing the
// generated P4 program: the pre- and post-processing partitions run
// against switch-resident state (match-action tables, registers) under the
// abstract switch model of §2 — tables are read-only for the data plane,
// global state is consulted at most once per pass, per-packet scratch is
// bounded — and state synchronization follows §4.3.3: the server stages
// updates through the (slow) control plane, invisible to packets, and one
// atomic operation makes the whole staged batch visible. Here the staged
// batch is a per-shard list (shard.go), the tables are updated in place
// (table.go), and the atomic operation is the store of a new view whose
// epoch admits the batch's entries; DESIGN.md "State synchronisation"
// gives the argument that a pass sees all of a batch or none of it.
package switchsim

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"gallium/internal/ir"
	"gallium/internal/obs"
	"gallium/internal/packet"
	"gallium/internal/partition"
)

// ErrTableFull reports a control-plane insert into a table that already
// holds its annotated maximum. The runtimes treat it as a soft failure:
// the entry stays server-only and the affected flow keeps taking the slow
// path.
var ErrTableFull = errors.New("switchsim: table full")

// Update is one staged control-plane mutation.
type Update struct {
	// Table names the replicated table; empty when Register or Vec is set.
	Table string
	Key   ir.MapKey
	Vals  []uint64
	// Delete marks a removal.
	Delete bool
	// Expire marks a Delete that originates from the flow-state
	// lifecycle (timeout expiry or capacity eviction) rather than the
	// middlebox program; the switch counts these separately. An expiry
	// rides the ordinary staged-delete path, so a later re-insert of the
	// same key in the same window supersedes it (last-writer-wins) and a
	// re-insert in a later batch is applied after it — an expiry can
	// never clobber a fresher entry.
	Expire bool
	// ReadFill marks a §7 read-through cache fill: the server looked the
	// key up in its authoritative table and republishes it so the switch
	// cache can serve future packets. Never stalls a packet; dropped when
	// the switch already holds the key.
	ReadFill bool
	// Register names a replicated register (scalar global) to set.
	Register string
	RegVal   uint64
	// Replace, with Table set, replaces the table's entire visible
	// content with Entries at the next flip. The delta (deletions of absent
	// keys, inserts of the rest) is computed by the flip, so a reconfiguring
	// control plane ships one Update per table instead of hand-computing
	// diffs.
	Replace bool
	Entries map[ir.MapKey][]uint64
	// Vec names an offloaded vector whose contents are replaced wholesale
	// with VecVals at the next flip (a reconfigured backend pool). Unlike
	// LoadVector, the staged replacement becomes visible atomically with
	// every other update in the same flip.
	Vec     string
	VecVals []uint64
}

// Stats counts data-plane and control-plane activity. It is a
// point-in-time snapshot; the live counters are atomics inside Switch.
type Stats struct {
	PrePackets  int `json:"pre_packets"`
	PostPackets int `json:"post_packets"`
	FastPath    int `json:"fast_path"`
	ToServer    int `json:"to_server"`
	Punts       int `json:"punts"`
	Evictions   int `json:"evictions"`
	Drops       int `json:"drops"`
	CtlOps      int `json:"ctl_ops"`
	CtlFlips    int `json:"ctl_flips"`
	// Expired counts staged deletions marked as lifecycle expirations
	// (flow-table timeouts and capacity evictions).
	Expired int `json:"expired"`
	// Reconfigs counts control-plane reconfiguration batches (rule swaps,
	// pool changes) applied through the write-back path.
	Reconfigs int `json:"reconfigs"`
	// Epoch is the published view's epoch: it advances every time the
	// control plane publishes, so two equal epochs bracket a quiescent
	// data plane.
	Epoch        uint64         `json:"epoch"`
	TableEntries map[string]int `json:"table_entries,omitempty"`
}

// Switch simulates one programmable switch loaded with a compiled
// middlebox.
//
// Concurrency: the data plane (Pass.Pre/Pass.Post) is
// lock-free — one atomic load pins a view for the whole pass, and every
// table lookup is a probe of atomic slots — so any number of worker
// pipelines proceed in parallel, as on real switch hardware where the
// match-action stages are read-only for packets. The control plane
// (FlipShard, the Load* configuration calls, Instrument) serializes on mu
// and publishes a successor view with one atomic store — the visibility
// flip of §4.3.3: an in-flight packet sees either the entire staged batch
// or none of it.
type Switch struct {
	Res *partition.Result

	// mu serializes publication. The data plane never takes it.
	mu sync.Mutex

	// view is the published data-plane view.
	view atomic.Pointer[view]

	// pre and post are the two switch partitions lowered to execution
	// plans, once, at New.
	pre, post *ir.Plan
	// globals maps a global's name to its index in Res.Prog.Globals — the
	// index the plans and the views address state by — and resident marks
	// the indices that are offloaded. tables lists the replicated tables by
	// the same index (nil elsewhere); all three are fixed at New.
	globals  map[string]int
	resident []bool
	tables   []*Table

	// hasCacheTables is set when any table runs in §7 cache mode.
	hasCacheTables bool
	// lanes hold what is per shard: the pending batch and the counter
	// block (see shard.go). Always at least one; ConfigureShards sizes
	// them before traffic starts.
	lanes []*ctlLane

	// xferA and xferB are the transfer headers compiled against the
	// pass's scratchpad; a layout error fails their first packet.
	xferA, xferB *packet.Codec

	evictions, reconfigs atomic.Int64

	// regs are the registries Instrument has registered with (under mu).
	regs []*obs.Registry
}

// view is what a pass pins: everything the data plane reads that is not a
// table entry, plus the epoch that decides which table entries it may see.
// A view is immutable once published, except that the flip superseding it
// hangs its undo records and its successor here — history points forward
// in time, so a superseded view and everything it alone references is
// garbage the moment the last pass holding it returns.
type view struct {
	epoch uint64
	// registers, vecs (offloaded vector contents) and lpms (offloaded LPM
	// tables, §7) are indexed like Program.Globals (zero where the global
	// is of another kind or not offloaded) and replaced wholesale by the
	// flip that changes them.
	registers []uint64
	vecs      [][]uint64
	lpms      [][]ir.LpmEntry
	// obs travels with the view so Instrument (a control-plane write) is
	// an ordinary publication.
	obs *switchObs

	// undo lists what the flip to epoch+1 replaced, prepended before each
	// in-place write; next is the view that flip published.
	undo atomic.Pointer[undoRec]
	next atomic.Pointer[view]
	// undoBuf holds the undo records of the flip that publishes this view
	// when its batch is small: they hang off the view it supersedes,
	// whose next keeps this one, and the array with it, alive.
	undoBuf [viewUndo]undoRec
}

// viewUndo is the largest batch — a new mazunat flow's two inserts — whose
// flip takes its undo records from the view it publishes, not a slab of
// their own.
const viewUndo = 2

// successor starts the view that follows cur, sharing all its content.
func (cur *view) successor() *view {
	return &view{epoch: cur.epoch + 1, registers: cur.registers,
		vecs: cur.vecs, lpms: cur.lpms, obs: cur.obs}
}

// publishLocked makes nv the view new passes pin. Callers hold mu and
// built nv from the current view's successor.
func (sw *Switch) publishLocked(nv *view) {
	sw.view.Load().next.Store(nv)
	sw.view.Store(nv)
}

// tableObs is one replicated table's hit and miss count, the one thing
// about a lookup the switch does not count for Stats.
type tableObs struct {
	hits, misses obs.Counter
}

// switchObs are the per-pass step histograms (nil, and therefore free,
// until Instrument).
type switchObs struct {
	hPre, hPost *obs.Histogram // executed statements per pass (stage occupancy)
}

// Instrument registers the switch's metrics with reg. Every count Stats
// reports, the epoch and each table's size are read from the switch when
// reg takes a snapshot — the data-plane counts as of each pass's last
// Flush; beyond that the switch records only the per-pass step histograms
// and each table's hits and misses. Passing nil, or a registry the switch
// already reports to, is a no-op; instrumentation cannot be removed.
func (sw *Switch) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if slices.Contains(sw.regs, reg) {
		return
	}
	sw.regs = append(sw.regs, reg)
	stat := func(name string, pick func(Stats) int) {
		reg.CounterFunc(name, func() uint64 { return uint64(pick(sw.counts())) })
	}
	stat("switch.pre.packets", func(s Stats) int { return s.PrePackets })
	stat("switch.post.packets", func(s Stats) int { return s.PostPackets })
	stat("switch.fastpath", func(s Stats) int { return s.FastPath })
	stat("switch.to_server", func(s Stats) int { return s.ToServer })
	stat("switch.punts", func(s Stats) int { return s.Punts })
	stat("switch.drops", func(s Stats) int { return s.Drops })
	stat("switch.evictions", func(s Stats) int { return s.Evictions })
	stat("switch.expired", func(s Stats) int { return s.Expired })
	stat("switch.ctl.ops", func(s Stats) int { return s.CtlOps })
	stat("switch.ctl.flips", func(s Stats) int { return s.CtlFlips })
	// Every control-plane op is a stage or a flip.
	stat("switch.ctl.staged", func(s Stats) int { return s.CtlOps - s.CtlFlips })
	stat("switch.ctl.reconfigs", func(s Stats) int { return s.Reconfigs })
	reg.GaugeFunc("switch.snapshot.epoch", func() int64 { return int64(sw.Epoch()) })
	for _, t := range sw.tables {
		if t == nil {
			continue
		}
		m := t.obs.Load()
		if m == nil {
			m = new(tableObs)
			t.obs.Store(m)
		}
		prefix := "switch.table." + t.name + "."
		reg.CounterFunc(prefix+"hits", m.hits.Value)
		reg.CounterFunc(prefix+"misses", m.misses.Value)
		reg.CounterFunc(prefix+"lookups", func() uint64 { return m.hits.Value() + m.misses.Value() })
		reg.GaugeFunc(prefix+"entries", func() int64 { return int64(t.Len()) })
	}
	nv := sw.view.Load().successor()
	nv.obs = &switchObs{
		hPre:  reg.Histogram("switch.pre.steps", obs.StepBuckets),
		hPost: reg.Histogram("switch.post.steps", obs.StepBuckets),
	}
	sw.publishLocked(nv)
}

// New loads a partitioned middlebox onto a fresh switch.
func New(res *partition.Result) *Switch {
	n := len(res.Prog.Globals)
	sw := &Switch{Res: res, lanes: []*ctlLane{{}},
		pre: ir.CompilePlan(res.Prog, res.PreFn), post: ir.CompilePlan(res.Prog, res.PostFn),
		globals: make(map[string]int, n), resident: make([]bool, n), tables: make([]*Table, n)}
	for i, g := range res.Prog.Globals {
		sw.globals[g.Name] = i
	}
	for _, gn := range res.OffloadedGlobals {
		gi := sw.globals[gn]
		sw.resident[gi] = true
		if g := res.Prog.Globals[gi]; g.Kind == ir.KindMap {
			if cap := res.Cons.CacheFor(gn); cap > 0 && cap < g.MaxEntries {
				sw.tables[gi] = newTable(sw, g, cap, true)
				sw.hasCacheTables = true
			} else {
				sw.tables[gi] = newTable(sw, g, g.MaxEntries, false)
			}
		}
	}
	sw.xferA, _ = partition.XferCodec(res.TransferA, res.FormatA, res.NumXferSlots)
	sw.xferB, _ = partition.XferCodec(res.TransferB, res.FormatB, res.NumXferSlots)
	sw.view.Store(&view{epoch: 1, registers: make([]uint64, n), vecs: make([][]uint64, n),
		lpms: make([][]ir.LpmEntry, n), obs: &switchObs{}})
	return sw
}

// global resolves the name of an offloaded global of the given kind to
// its index (control plane only; the data plane is bound by index).
func (sw *Switch) global(name string, kind ir.GlobalKind) (int, bool) {
	gi, ok := sw.globals[name]
	if !ok || !sw.resident[gi] || sw.Res.Prog.Globals[gi].Kind != kind {
		return 0, false
	}
	return gi, true
}

// SeedFrom installs configured replicated state from an authoritative
// server-state snapshot: vectors and LPM tables load directly (they are
// configuration), while map entries and register values go through the
// ordinary §4.3.3 write-back control plane as one batch, flipped before
// the call returns. Every runtime (testbed, deployment, engine) seeds its
// switch through this one path.
func (sw *Switch) SeedFrom(st *ir.State) error {
	res := sw.Res
	for _, gn := range res.OffloadedGlobals {
		g := res.Prog.Global(gn)
		switch g.Kind {
		case ir.KindVec:
			if err := sw.LoadVector(gn, st.Vecs[gn]); err != nil {
				return err
			}
		case ir.KindMap:
			var err error
			tb := st.Table(gn)
			tb.Range(func(e int32) bool {
				err = sw.StageShard(0, Update{Table: gn, Key: tb.Key(e), Vals: tb.Vals(e)})
				return err == nil
			})
			if err != nil {
				return err
			}
		case ir.KindScalar:
			if err := sw.StageShard(0, Update{Register: gn, RegVal: st.Globals[gn]}); err != nil {
				return err
			}
		case ir.KindLPM:
			if err := sw.LoadLPM(gn, st.Lpms[gn]); err != nil {
				return err
			}
		}
	}
	sw.FlipShard(0)
	return nil
}

// LoadLPM installs the entries of an offloaded LPM table (control plane;
// LPM tables are configuration state).
func (sw *Switch) LoadLPM(name string, entries []ir.LpmEntry) error {
	gi, ok := sw.global(name, ir.KindLPM)
	if !ok {
		return fmt.Errorf("switchsim: lpm table %q is not offloaded", name)
	}
	g := sw.Res.Prog.Globals[gi]
	if g.MaxEntries > 0 && len(entries) > g.MaxEntries {
		return fmt.Errorf("switchsim: lpm %q: %d entries exceed annotation %d", name, len(entries), g.MaxEntries)
	}
	for _, e := range entries {
		if e.PrefixLen < 0 || e.PrefixLen > 32 {
			return fmt.Errorf("switchsim: lpm %q: prefix length %d outside 0..32", name, e.PrefixLen)
		}
		if len(e.Vals) != len(g.ValTypes) {
			return fmt.Errorf("switchsim: lpm %q: entry has %d values, declared %d", name, len(e.Vals), len(g.ValTypes))
		}
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	nv := sw.view.Load().successor()
	nv.lpms = slices.Clone(nv.lpms)
	nv.lpms[gi] = slices.Clone(entries)
	sw.publishLocked(nv)
	return nil
}

// LoadVector installs offloaded vector contents (switch-resident
// configuration such as a backend pool).
func (sw *Switch) LoadVector(name string, vals []uint64) error {
	gi, err := sw.checkVector(name, vals)
	if err != nil {
		return err
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	nv := sw.view.Load().successor()
	nv.vecs = slices.Clone(nv.vecs)
	nv.vecs[gi] = slices.Clone(vals)
	sw.publishLocked(nv)
	return nil
}

// checkVector validates a replacement for an offloaded vector and resolves
// its index.
func (sw *Switch) checkVector(name string, vals []uint64) (int, error) {
	gi, ok := sw.global(name, ir.KindVec)
	if !ok {
		return 0, fmt.Errorf("switchsim: vector %q is not offloaded", name)
	}
	if g := sw.Res.Prog.Globals[gi]; g.MaxEntries > 0 && len(vals) > g.MaxEntries {
		return 0, fmt.Errorf("switchsim: vector %q: %d entries exceed annotation %d", name, len(vals), g.MaxEntries)
	}
	return gi, nil
}

// Stats returns a snapshot of activity counters. Data-plane and staging
// counters accumulate in per-shard lane blocks (see shard.go); this sums
// them.
func (sw *Switch) Stats() Stats {
	s := sw.counts()
	s.TableEntries = map[string]int{}
	for _, t := range sw.tables {
		if t != nil {
			s.TableEntries[t.name] = t.Len()
		}
	}
	return s
}

// counts is Stats without the table sizes, so a metric read allocates
// nothing.
func (sw *Switch) counts() Stats {
	s := Stats{
		Evictions: int(sw.evictions.Load()),
		Reconfigs: int(sw.reconfigs.Load()),
		Epoch:     sw.Epoch(),
	}
	for _, ln := range sw.lanes {
		ls := &ln.stats
		s.PrePackets += int(ls.prePackets.Load())
		s.PostPackets += int(ls.postPackets.Load())
		s.FastPath += int(ls.fastPath.Load())
		s.ToServer += int(ls.toServer.Load())
		s.Punts += int(ls.punts.Load())
		s.Drops += int(ls.drops.Load())
		s.CtlOps += int(ls.ctlOps.Load())
		s.CtlFlips += int(ls.ctlFlips.Load())
		s.Expired += int(ls.expired.Load())
	}
	return s
}

// Table returns a read-only handle on a replicated table.
func (sw *Switch) Table(name string) (*Table, bool) {
	gi, ok := sw.global(name, ir.KindMap)
	if !ok {
		return nil, false
	}
	return sw.tables[gi], true
}

// VisibleEntry reports whether the named table currently serves key on the
// data plane, and whether the table runs in §7 cache mode, so the control
// plane can classify updates while worker goroutines keep processing.
func (sw *Switch) VisibleEntry(table string, key ir.MapKey) (visible, cached bool) {
	t, ok := sw.Table(table)
	if !ok {
		return false, false
	}
	_, visible = t.Lookup(key)
	return visible, t.cached
}

// Register reads a switch register (the data plane's published value).
func (sw *Switch) Register(name string) (uint64, bool) {
	gi, ok := sw.global(name, ir.KindScalar)
	if !ok {
		return 0, false
	}
	return sw.view.Load().registers[gi], true
}

// MarkReconfig accounts one applied control-plane reconfiguration batch (a
// rule-set swap, pool change, or repartition that went through the
// write-back path as a unit). Pure accounting: the atomicity comes from the
// single flip the batch shares.
func (sw *Switch) MarkReconfig() {
	sw.reconfigs.Add(1)
}

// Epoch reports the published view's epoch: it advances on every
// control-plane publish, so observing a later epoch proves a
// reconfiguration has reached in-flight packets.
func (sw *Switch) Epoch() uint64 { return sw.view.Load().epoch }

// access is a plan's PlanState over one pinned view; the data plane may
// only read (the partitioner guarantees no offloaded writes, and the
// simulator enforces it). Globals arrive as indices the plan bound at
// lowering time, so a lookup resolves nothing by name. cacheMiss records
// lookups that missed a §7 cache table — the packet must then punt to the
// server, whose state is authoritative. It is used by pointer (embedded in
// the Pass) so handing it to Plan.Exec never allocates.
type access struct {
	sw        *Switch
	v         *view
	hop       *obs.Hop
	cacheMiss bool
	// onTouch, when non-nil, is invoked for every table hit so the
	// flow-state lifecycle can record fast-path liveness (the engine
	// passes a per-worker callback stamping its own server shard —
	// same goroutine, so no synchronization is needed).
	onTouch func(table string, key ir.MapKey)
}

func (a *access) MapFind(g int, key *ir.MapKey) ([]uint64, bool) {
	t := a.sw.tables[g]
	if t == nil {
		return nil, false
	}
	vals, hit := t.lookup(a.v, key)
	if hit && a.onTouch != nil {
		a.onTouch(t.name, *key)
	}
	if m := t.obs.Load(); m != nil {
		if hit {
			m.hits.Inc()
		} else {
			m.misses.Inc()
		}
	}
	a.hop.Lookup(t.name, hit)
	if !hit && t.cached {
		a.cacheMiss = true
	}
	return vals, hit
}

func (a *access) MapInsert(int, *ir.MapKey, []uint64) error {
	return fmt.Errorf("switchsim: data plane attempted a table insert; P4 tables are read-only (§2.1)")
}

func (a *access) MapRemove(int, *ir.MapKey) error {
	return fmt.Errorf("switchsim: data plane attempted a table delete; P4 tables are read-only (§2.1)")
}

func (a *access) VecGet(g int, idx uint64) (uint64, error) {
	name := a.sw.Res.Prog.Globals[g].Name
	if !a.sw.resident[g] {
		return 0, fmt.Errorf("switchsim: vector %q not resident", name)
	}
	vec := a.v.vecs[g]
	if idx >= uint64(len(vec)) {
		return 0, fmt.Errorf("switchsim: vector %q index %d out of range", name, idx)
	}
	return vec[idx], nil
}

func (a *access) VecLen(g int) uint64 { return uint64(len(a.v.vecs[g])) }

func (a *access) GlobalLoad(g int) uint64 { return a.v.registers[g] }

func (a *access) GlobalStore(int, uint64) error {
	return fmt.Errorf("switchsim: data plane attempted a register write to replicated state; updates come from the server (§4.3.3)")
}

func (a *access) LpmFind(g int, key uint64) ([]uint64, bool) {
	return ir.LongestPrefix(a.v.lpms[g], key)
}

// Pass is one goroutine's handle on the data plane of one shard: it owns
// everything a pipeline pass needs — the view adapter, the execution
// environment with its retained register file, the transfer scratchpad —
// so a steady-state pass allocates nothing, and it counts in plain ints
// until Flush. Not safe for concurrent use.
type Pass struct {
	sw    *Switch
	shard int
	acc   access
	env   ir.Env
	xfer  []uint64
	// hop receives the table lookups of the pass in flight (nil: untraced).
	hop *obs.Hop

	prePackets, postPackets, fastPath, toServer, punts, drops int64
}

// NewPass returns a pass context accounting to shard (the calling worker's
// index; an out-of-range one accounts to shard 0).
func (sw *Switch) NewPass(shard int) *Pass { return &Pass{sw: sw, shard: shard} }

// Trace directs the table lookups of the pass's following Pre and Post
// calls into h; nil detaches. The walker brackets each traced pass with it.
func (p *Pass) Trace(h *obs.Hop) { p.hop = h }

// Flush adds the counts accumulated since the last Flush to the shard's
// atomic counter block and unpins the last pass's view (which keeps every
// later view and its undo records reachable) and packet. Whoever owns a
// Pass flushes it wherever a reader of Stats may synchronise with it, and
// before it goes idle: the engine worker at every batch boundary and before
// every control job, the sequential drivers after every packet.
func (p *Pass) Flush() {
	p.acc.v, p.env.Pkt = nil, nil
	ls := p.sw.statsFor(p.shard)
	flush := func(dst *atomic.Int64, n *int64) {
		if *n != 0 {
			dst.Add(*n)
			*n = 0
		}
	}
	flush(&ls.prePackets, &p.prePackets)
	flush(&ls.postPackets, &p.postPackets)
	flush(&ls.fastPath, &p.fastPath)
	flush(&ls.toServer, &p.toServer)
	flush(&ls.punts, &p.punts)
	flush(&ls.drops, &p.drops)
}

// begin wires the pass to the view it pins and the packet, with a zeroed
// scratchpad of the compiled slot count.
func (p *Pass) begin(v *view, pkt *packet.Packet, onTouch func(string, ir.MapKey)) {
	p.acc = access{sw: p.sw, v: v, hop: p.hop, onTouch: onTouch}
	n := p.sw.Res.NumXferSlots
	if cap(p.xfer) >= n {
		p.xfer = p.xfer[:n]
		clear(p.xfer)
	} else {
		p.xfer = make([]uint64, n)
	}
	p.env.Pkt = pkt
	p.env.Xfer = p.xfer
}

// PreResult describes the outcome of the pre-processing pass.
type PreResult struct {
	Action ir.Action
	// Punt means a lookup missed a cache table (§7 cache mode): the
	// packet — unmodified, since the pipeline predicates its actions on
	// the punt flag — must go to the server, which runs the complete
	// middlebox against its authoritative state.
	Punt bool
	// Steps is the number of executed pipeline statements.
	Steps int
}

// ProcessPreShard and ProcessPostShard are Pass.Pre and Pass.Post for
// callers with no Pass of their own (tests, bench/): one is checked out of
// the pool, bound to shard, run and flushed.
func (sw *Switch) ProcessPreShard(pkt *packet.Packet, shard int, onTouch func(table string, key ir.MapKey)) (PreResult, error) {
	return sw.pooledPass(pkt, shard, onTouch, false)
}

func (sw *Switch) ProcessPostShard(pkt *packet.Packet, shard int, onTouch func(table string, key ir.MapKey)) (PreResult, error) {
	return sw.pooledPass(pkt, shard, onTouch, true)
}

var passPool = sync.Pool{New: func() any { return new(Pass) }}

func (sw *Switch) pooledPass(pkt *packet.Packet, shard int, onTouch func(string, ir.MapKey), post bool) (r PreResult, err error) {
	p := passPool.Get().(*Pass)
	p.sw, p.shard = sw, shard
	if post {
		r, err = p.Post(pkt, onTouch)
	} else {
		r, err = p.Pre(pkt, onTouch)
	}
	p.Flush()
	p.sw, p.acc = nil, access{}
	passPool.Put(p)
	return r, err
}

// Pre runs the pre-processing partition over the packet. If the packet
// must continue to the server (ActionNext), the synthesized gallium_a
// header is attached and populated. onTouch, when non-nil, fires for every
// table hit during the pass, letting the flow-state lifecycle stamp
// fast-path liveness; a nil onTouch is free.
func (p *Pass) Pre(pkt *packet.Packet, onTouch func(table string, key ir.MapKey)) (PreResult, error) {
	// The data plane is lock-free: one atomic load pins the view for the
	// whole pass, so every worker's pre pass runs concurrently and a
	// control-plane flip mid-pass cannot tear what it sees.
	sw := p.sw
	v := sw.view.Load()
	p.prePackets++
	// Cache mode: run the pipeline against a scratch copy first; a cache
	// miss discards all its effects (P4 actions are predicated on the
	// punt flag) and the untouched packet goes to the server.
	work := pkt
	if sw.hasCacheTables {
		work = pkt.Clone()
	}
	p.begin(v, work, onTouch)
	r, err := sw.pre.Exec(&p.acc, &p.env)
	if err != nil {
		return PreResult{}, fmt.Errorf("switchsim: pre pipeline: %w", err)
	}
	v.obs.hPre.Observe(int64(r.Steps))
	if p.acc.cacheMiss {
		p.toServer++
		p.punts++
		return PreResult{Action: ir.ActionNext, Punt: true, Steps: r.Steps}, nil
	}
	if sw.hasCacheTables {
		*pkt = *work
	}
	switch r.Action {
	case ir.ActionNext:
		p.toServer++
		if err := sw.xferA.Attach(pkt, p.xfer); err != nil {
			return PreResult{}, fmt.Errorf("switchsim: pre pipeline: %w", err)
		}
	case ir.ActionDropped:
		p.drops++
	case ir.ActionSent:
		p.fastPath++
	}
	return PreResult{Action: r.Action, Steps: r.Steps}, nil
}

// Post runs the post-processing partition over a packet returning from the
// server (it must carry the gallium_b header, which is stripped). onTouch
// is as for Pre.
func (p *Pass) Post(pkt *packet.Packet, onTouch func(table string, key ir.MapKey)) (PreResult, error) {
	sw := p.sw
	v := sw.view.Load()
	p.postPackets++
	if !pkt.HasGallium {
		return PreResult{}, fmt.Errorf("switchsim: post pipeline: packet from server lacks gallium_b header")
	}
	p.begin(v, pkt, onTouch)
	if err := sw.xferB.Unpack(pkt.GalData, p.xfer); err != nil {
		return PreResult{}, fmt.Errorf("switchsim: post pipeline: %w", err)
	}
	pkt.StripGallium()
	r, err := sw.post.Exec(&p.acc, &p.env)
	if err != nil {
		return PreResult{}, fmt.Errorf("switchsim: post pipeline: %w", err)
	}
	v.obs.hPost.Observe(int64(r.Steps))
	if r.Action == ir.ActionDropped {
		p.drops++
	}
	return PreResult{Action: r.Action, Steps: r.Steps}, nil
}
