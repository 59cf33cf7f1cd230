// Package switchsim simulates the programmable switch executing the
// generated P4 program: the pre- and post-processing partitions run
// against switch-resident state (match-action tables, registers) under the
// abstract switch model of §2 — tables are read-only for the data plane,
// global state is consulted at most once per pass, per-packet scratch is
// bounded — and state synchronization follows §4.3.3 exactly: every
// replicated table has a smaller write-back table plus a visibility bit;
// the server stages updates into the write-back tables through the (slow)
// control plane, flips the bit with one atomic operation, then lazily
// merges into the main tables.
package switchsim

import (
	"errors"
	"fmt"
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

// Table is one replicated match-action table: the main table plus the
// §4.3.3 write-back overlay.
type Table struct {
	Main     map[ir.MapKey][]uint64
	WB       map[ir.MapKey][]uint64
	UseWB    bool
	Capacity int
	// Cached marks a §7 cache table: it holds only a subset of the
	// server's authoritative map, misses punt the packet to the server,
	// and inserts beyond capacity evict the oldest entry (FIFO).
	Cached bool
	// fifo orders a Cached table's Main keys by insertion for eviction.
	fifo []ir.MapKey
	// deleted marks write-back entries that are deletions ("a special
	// value indicates table entry deletion").
	deleted map[ir.MapKey]bool
	// obs holds this table's counters when the switch is instrumented;
	// resolved once so the data plane never does a by-name lookup.
	obs *tableObs
}

func newTable(capacity int) *Table {
	return &Table{
		Main:     map[ir.MapKey][]uint64{},
		WB:       map[ir.MapKey][]uint64{},
		deleted:  map[ir.MapKey]bool{},
		Capacity: capacity,
	}
}

// Lookup consults the write-back table first when the visibility bit is
// set, then the main table — the data-plane read path of §4.3.3.
func (t *Table) Lookup(key ir.MapKey) ([]uint64, bool) {
	v, ok, _ := t.lookup(key)
	return v, ok
}

// lookup additionally reports whether the hit was served from the
// write-back overlay (the instrumentation distinguishes the two).
func (t *Table) lookup(key ir.MapKey) ([]uint64, bool, bool) {
	if t.UseWB {
		if t.deleted[key] {
			return nil, false, false
		}
		if v, ok := t.WB[key]; ok {
			return v, true, true
		}
	}
	v, ok := t.Main[key]
	return v, ok, false
}

// Len reports the number of visible entries.
func (t *Table) Len() int {
	n := len(t.Main)
	if t.UseWB {
		for k := range t.WB {
			if _, dup := t.Main[k]; !dup {
				n++
			}
		}
		for k := range t.deleted {
			if _, ok := t.Main[k]; ok {
				n--
			}
		}
	}
	return n
}

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
	// content with Entries at the next flip. The delta (inserts of new or
	// changed entries, deletions of absent keys) is computed at staging
	// time against the authoritative content, so a reconfiguring control
	// plane ships one Update per table instead of hand-computing diffs.
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
	PrePackets  int
	PostPackets int
	FastPath    int
	ToServer    int
	Punts       int
	Evictions   int
	Drops       int
	CtlOps      int
	CtlFlips    int
	// Expired counts staged deletions marked as lifecycle expirations
	// (flow-table timeouts and capacity evictions).
	Expired int
	// Reconfigs counts control-plane reconfiguration batches (rule swaps,
	// pool changes) applied through the write-back path.
	Reconfigs  int
	StepsTotal int
	// Epoch is the snapshot publication counter: it advances every time a
	// new data-plane snapshot is published, so two equal epochs bracket a
	// quiescent data plane.
	Epoch        uint64
	TableEntries map[string]int
}

// liveStats are the switch's activity counters. They are atomic so
// concurrent data-plane passes (the engine runs one per worker) never
// race; Stats() folds them into the exported snapshot type.
type liveStats struct {
	prePackets, postPackets, fastPath, toServer, punts atomic.Int64
	evictions, drops, ctlOps, ctlFlips, stepsTotal     atomic.Int64
	reconfigs, expired                                 atomic.Int64
}

// Switch simulates one programmable switch loaded with a compiled
// middlebox.
//
// Concurrency: the data plane (ProcessPreShard/ProcessPostShard) is lock-free — it
// reads an immutable state snapshot through one atomic pointer load, like
// RCU, so any number of worker pipelines proceed in parallel without
// convoying on a lock, as on real switch hardware where the match-action
// stages are read-only for packets. The control plane (StageWriteback,
// FlipVisibility, MergeWriteback, the Load* configuration calls)
// serializes on mu, mutates the authoritative state copy-on-write (maps
// reachable from a published snapshot are never written in place), and
// publishes a fresh snapshot with one atomic store — the visibility flip
// of §4.3.3 therefore IS a single atomic operation: an in-flight packet
// sees either the entire staged batch or none of it.
type Switch struct {
	Res *partition.Result

	// mu serializes control-plane mutation. The data plane never takes it.
	mu sync.RWMutex

	// snap is the published immutable data-plane view.
	snap atomic.Pointer[snapshot]

	tables    map[string]*Table
	registers map[string]uint64
	// vecs holds offloaded vector contents (index-keyed tables + length).
	vecs map[string][]uint64
	// lpms holds offloaded LPM tables (control-plane installed, §7).
	lpms map[string][]ir.LpmEntry
	// stagedRegs are register updates awaiting the visibility flip.
	stagedRegs []Update
	// stagedVecs are vector replacements awaiting the visibility flip.
	stagedVecs map[string][]uint64
	// epoch counts snapshot publications (the §4.3.3 flip plus every other
	// control-plane publish); exposed to the control plane so it can tell
	// whether its reconfiguration has reached the data plane.
	epoch atomic.Uint64
	// hasCacheTables is set when any table runs in §7 cache mode.
	hasCacheTables bool
	// lanes are the per-shard control-plane lanes (see shard.go). Always
	// at least one; ConfigureShards sizes them before traffic starts.
	lanes []*ctlLane

	// xferA and xferB are the compiled transfer-field layouts: per
	// variable, the scratchpad slot paired with its precomputed bit
	// position in the synthesized header, so the hot path never resolves
	// field names.
	xferA, xferB []xferField

	stats liveStats

	// Observability handles also live on the snapshot (where the data
	// plane reads them); these fields are the authoritative copies the
	// control plane republishes from. hop is the active per-packet trace
	// hop, set by the (sequential) testbed only.
	c      switchCounters
	hPre   *obs.Histogram // pre-pass executed statements (stage occupancy)
	hPost  *obs.Histogram // post-pass executed statements
	gEpoch *obs.Gauge     // snapshot-epoch gauge ("switch.snapshot.epoch")
	hop    *obs.Hop
}

// xferField pairs a transfer variable's scratchpad slot with its
// precomputed wire position.
type xferField struct {
	slot int
	spec packet.FieldSpec
}

// snapshot is the immutable data-plane view of switch state, published
// via an atomic pointer (RCU-style). Readers load it once per pass and
// never lock; publishers build a new snapshot under mu and store it. All
// maps and slices reachable from a published snapshot are immutable —
// the control plane replaces them wholesale instead of writing in place.
type snapshot struct {
	tables    map[string]*snapTable
	registers map[string]uint64
	vecs      map[string][]uint64
	lpms      map[string][]ir.LpmEntry

	// Data-plane observability handles travel with the snapshot so
	// Instrument (a control-plane write) is an ordinary publication.
	c     switchCounters
	hPre  *obs.Histogram
	hPost *obs.Histogram
}

// snapTable is one table's view inside a snapshot: the main map (shared
// with the authoritative Table under copy-on-write discipline) plus a
// private copy of the write-back overlay taken at flip time.
type snapTable struct {
	main     map[ir.MapKey][]uint64
	wb       map[ir.MapKey][]uint64
	deleted  map[ir.MapKey]bool
	useWB    bool
	cached   bool
	capacity int
	obs      *tableObs
}

// lookup mirrors Table.lookup against the snapshot view.
func (t *snapTable) lookup(key ir.MapKey) ([]uint64, bool, bool) {
	if t.useWB {
		if t.deleted[key] {
			return nil, false, false
		}
		if v, ok := t.wb[key]; ok {
			return v, true, true
		}
	}
	v, ok := t.main[key]
	return v, ok, false
}

// publishLocked builds and atomically publishes a fresh snapshot of the
// authoritative state. Callers hold mu (or have exclusive access during
// construction). Main maps are shared by reference — MergeWriteback
// replaces them copy-on-write — while the small write-back overlays are
// copied so later staging can't race a reader.
func (sw *Switch) publishLocked() {
	snap := &snapshot{
		tables:    make(map[string]*snapTable, len(sw.tables)),
		registers: make(map[string]uint64, len(sw.registers)),
		vecs:      make(map[string][]uint64, len(sw.vecs)),
		lpms:      make(map[string][]ir.LpmEntry, len(sw.lpms)),
		c:         sw.c,
		hPre:      sw.hPre,
		hPost:     sw.hPost,
	}
	for n, t := range sw.tables {
		st := &snapTable{main: t.Main, cached: t.Cached, capacity: t.Capacity, obs: t.obs}
		if t.UseWB {
			st.useWB = true
			st.wb = make(map[ir.MapKey][]uint64, len(t.WB))
			for k, v := range t.WB {
				st.wb[k] = v
			}
			st.deleted = make(map[ir.MapKey]bool, len(t.deleted))
			for k := range t.deleted {
				st.deleted[k] = true
			}
		}
		snap.tables[n] = st
	}
	for n, v := range sw.registers {
		snap.registers[n] = v
	}
	for n, v := range sw.vecs {
		snap.vecs[n] = v
	}
	for n, v := range sw.lpms {
		snap.lpms[n] = v
	}
	sw.snap.Store(snap)
	sw.gEpoch.Set(int64(sw.epoch.Add(1)))
}

// tableObs bundles one replicated table's data-plane counters.
type tableObs struct {
	lookups, hits, misses *obs.Counter
	// wbHits counts hits served from the write-back overlay — lookups that
	// landed inside the visibility window between flip and merge.
	wbHits  *obs.Counter
	entries *obs.Gauge
}

// switchCounters are the switch-wide activity counters.
type switchCounters struct {
	pre, post, fast, toServer, punts, drops, evict *obs.Counter
	ctlOps, ctlFlips, ctlStaged, ctlReconfigs      *obs.Counter
	expired                                        *obs.Counter
}

// Instrument registers the switch's metrics with reg and starts recording
// into them. Passing nil is a no-op; instrumentation cannot be removed.
func (sw *Switch) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.c = switchCounters{
		pre:          reg.Counter("switch.pre.packets"),
		post:         reg.Counter("switch.post.packets"),
		fast:         reg.Counter("switch.fastpath"),
		toServer:     reg.Counter("switch.to_server"),
		punts:        reg.Counter("switch.punts"),
		drops:        reg.Counter("switch.drops"),
		evict:        reg.Counter("switch.evictions"),
		ctlOps:       reg.Counter("switch.ctl.ops"),
		ctlFlips:     reg.Counter("switch.ctl.flips"),
		ctlStaged:    reg.Counter("switch.ctl.staged"),
		ctlReconfigs: reg.Counter("switch.ctl.reconfigs"),
		expired:      reg.Counter("switch.expired"),
	}
	sw.hPre = reg.Histogram("switch.pre.steps", obs.StepBuckets)
	sw.hPost = reg.Histogram("switch.post.steps", obs.StepBuckets)
	sw.gEpoch = reg.Gauge("switch.snapshot.epoch")
	for name, t := range sw.tables {
		prefix := "switch.table." + name + "."
		m := &tableObs{
			lookups: reg.Counter(prefix + "lookups"),
			hits:    reg.Counter(prefix + "hits"),
			misses:  reg.Counter(prefix + "misses"),
			wbHits:  reg.Counter(prefix + "wb_hits"),
			entries: reg.Gauge(prefix + "entries"),
		}
		m.entries.Set(int64(t.Len()))
		t.obs = m
	}
	sw.publishLocked()
}

// TraceHop directs table-lookup trace events of subsequent Process calls
// into h; nil detaches. The testbed brackets each pipeline pass with it.
func (sw *Switch) TraceHop(h *obs.Hop) { sw.hop = h }

// New loads a partitioned middlebox onto a fresh switch.
func New(res *partition.Result) *Switch {
	sw := &Switch{
		Res:        res,
		tables:     map[string]*Table{},
		registers:  map[string]uint64{},
		vecs:       map[string][]uint64{},
		lpms:       map[string][]ir.LpmEntry{},
		stagedVecs: map[string][]uint64{},
	}
	for _, gn := range res.OffloadedGlobals {
		g := res.Prog.Global(gn)
		switch g.Kind {
		case ir.KindMap:
			if cap := res.Cons.CacheFor(gn); cap > 0 && cap < g.MaxEntries {
				t := newTable(cap)
				t.Cached = true
				sw.tables[gn] = t
				sw.hasCacheTables = true
			} else {
				sw.tables[gn] = newTable(g.MaxEntries)
			}
		case ir.KindVec:
			sw.vecs[gn] = nil
		case ir.KindScalar:
			sw.registers[gn] = 0
		case ir.KindLPM:
			sw.lpms[gn] = nil
		}
	}
	sw.xferA = compileXferFields(res.TransferA, res.FormatA)
	sw.xferB = compileXferFields(res.TransferB, res.FormatB)
	sw.lanes = []*ctlLane{{}}
	sw.publishLocked()
	return sw
}

// compileXferFields resolves each transfer variable to its scratchpad slot
// and precomputed header position once, at load time.
func compileXferFields(vars []partition.TransferVar, f *packet.HeaderFormat) []xferField {
	out := make([]xferField, 0, len(vars))
	for _, v := range vars {
		spec, ok := f.Spec(v.Name)
		if !ok || v.Slot <= 0 {
			// Unreachable for compiler-produced Results; a hand-built Result
			// without slots falls back to failing loudly at Set/Get time.
			spec = packet.FieldSpec{Off: -1}
		}
		out = append(out, xferField{slot: v.Slot, spec: spec})
	}
	return out
}

// SeedFrom installs configured replicated state from an authoritative
// server-state snapshot: vectors and LPM tables load directly (they are
// configuration), while map entries and register values go through the
// ordinary §4.3.3 write-back control plane and are flipped and merged
// before the call returns. Every runtime (testbed, deployment, engine)
// seeds its switch through this one path.
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
			for k, v := range st.Maps[gn] {
				if err := sw.StageWriteback(Update{Table: gn, Key: k, Vals: v}); err != nil {
					return err
				}
			}
		case ir.KindScalar:
			if err := sw.StageWriteback(Update{Register: gn, RegVal: st.Globals[gn]}); err != nil {
				return err
			}
		case ir.KindLPM:
			if err := sw.LoadLPM(gn, st.Lpms[gn]); err != nil {
				return err
			}
		}
	}
	sw.FlipVisibility()
	sw.MergeWriteback()
	return nil
}

// LoadLPM installs the entries of an offloaded LPM table (control plane;
// LPM tables are configuration state).
func (sw *Switch) LoadLPM(name string, entries []ir.LpmEntry) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if _, ok := sw.lpms[name]; !ok {
		return fmt.Errorf("switchsim: lpm table %q is not offloaded", name)
	}
	g := sw.Res.Prog.Global(name)
	if g != nil && g.MaxEntries > 0 && len(entries) > g.MaxEntries {
		return fmt.Errorf("switchsim: lpm %q: %d entries exceed annotation %d", name, len(entries), g.MaxEntries)
	}
	sw.lpms[name] = append([]ir.LpmEntry(nil), entries...)
	sw.publishLocked()
	return nil
}

// Stats returns a snapshot of activity counters. Data-plane counters
// accumulate in per-shard lane blocks (see shard.go); this sums them
// with the control plane's shared counters. Table entry counts include
// lane-resident updates not yet folded into the main tables.
func (sw *Switch) Stats() Stats {
	sw.mu.RLock()
	defer sw.mu.RUnlock()
	s := Stats{
		PrePackets:   int(sw.stats.prePackets.Load()),
		PostPackets:  int(sw.stats.postPackets.Load()),
		FastPath:     int(sw.stats.fastPath.Load()),
		ToServer:     int(sw.stats.toServer.Load()),
		Punts:        int(sw.stats.punts.Load()),
		Evictions:    int(sw.stats.evictions.Load()),
		Drops:        int(sw.stats.drops.Load()),
		CtlOps:       int(sw.stats.ctlOps.Load()),
		CtlFlips:     int(sw.stats.ctlFlips.Load()),
		Reconfigs:    int(sw.stats.reconfigs.Load()),
		Expired:      int(sw.stats.expired.Load()),
		StepsTotal:   int(sw.stats.stepsTotal.Load()),
		Epoch:        sw.epoch.Load(),
		TableEntries: map[string]int{},
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
		s.StepsTotal += int(ls.stepsTotal.Load())
	}
	for n, t := range sw.tables {
		s.TableEntries[n] = t.Len() + sw.laneTableEntries(n, t)
	}
	return s
}

// Table exposes a replicated table (tests and the control plane use it).
// The returned Table is NOT safe to use concurrently with data-plane
// traffic; concurrent callers classify against VisibleEntry instead.
func (sw *Switch) Table(name string) (*Table, bool) {
	sw.mu.RLock()
	defer sw.mu.RUnlock()
	t, ok := sw.tables[name]
	return t, ok
}

// VisibleEntry reports whether the named table currently serves key on the
// data plane, and whether the table runs in §7 cache mode. It reads the
// published snapshot — exactly what in-flight packets see — so the control
// plane can classify updates while worker goroutines keep processing.
func (sw *Switch) VisibleEntry(table string, key ir.MapKey) (visible, cached bool) {
	t, ok := sw.snap.Load().tables[table]
	if !ok {
		return false, false
	}
	_, visible, _ = t.lookup(key)
	return visible, t.cached
}

// Register reads a switch register (the data plane's published value).
func (sw *Switch) Register(name string) (uint64, bool) {
	v, ok := sw.snap.Load().registers[name]
	return v, ok
}

// LoadVector installs offloaded vector contents (switch-resident
// configuration such as a backend pool).
func (sw *Switch) LoadVector(name string, vals []uint64) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if _, ok := sw.vecs[name]; !ok {
		return fmt.Errorf("switchsim: vector %q is not offloaded", name)
	}
	g := sw.Res.Prog.Global(name)
	if g != nil && g.MaxEntries > 0 && len(vals) > g.MaxEntries {
		return fmt.Errorf("switchsim: vector %q: %d entries exceed annotation %d", name, len(vals), g.MaxEntries)
	}
	sw.vecs[name] = append([]uint64(nil), vals...)
	sw.publishLocked()
	return nil
}

// access adapts one published snapshot to the interpreter; the data plane
// may only read (the partitioner guarantees no offloaded writes, and the
// simulator enforces it). cacheMiss records lookups that missed a §7 cache
// table — the packet must then punt to the server, whose state is
// authoritative. It is used by pointer (embedded in the pooled execCtx) so
// handing it to the interpreter's Access interface never allocates.
type access struct {
	snap *snapshot
	// lane, when non-nil, is the calling shard's published lane overlay:
	// consulted before the snapshot, so a shard sees its own flipped
	// write-backs before they fold into the main tables.
	lane      *laneOverlay
	hop       *obs.Hop
	cacheMiss bool
	// onTouch, when non-nil, is invoked for every table hit so the
	// flow-state lifecycle can record fast-path liveness (the engine
	// passes a per-worker callback stamping its own server shard —
	// same goroutine, so no synchronization is needed).
	onTouch func(table string, key ir.MapKey)
}

func (a *access) MapFind(name string, key ir.MapKey) ([]uint64, bool) {
	t, ok := a.snap.tables[name]
	if !ok {
		return nil, false
	}
	vals, hit, fromWB := t.lookup(key)
	if a.lane != nil {
		if lv, lhit, ldel := a.lane.lookup(name, key); lhit || ldel {
			vals, hit, fromWB = lv, lhit, lhit
		}
	}
	if hit && a.onTouch != nil {
		a.onTouch(name, key)
	}
	if m := t.obs; m != nil {
		m.lookups.Inc()
		if hit {
			m.hits.Inc()
			if fromWB {
				m.wbHits.Inc()
			}
		} else {
			m.misses.Inc()
		}
	}
	a.hop.Lookup(name, hit)
	if !hit && t.cached {
		a.cacheMiss = true
	}
	return vals, hit
}

func (a *access) MapInsert(string, ir.MapKey, []uint64) error {
	return fmt.Errorf("switchsim: data plane attempted a table insert; P4 tables are read-only (§2.1)")
}

func (a *access) MapRemove(string, ir.MapKey) error {
	return fmt.Errorf("switchsim: data plane attempted a table delete; P4 tables are read-only (§2.1)")
}

func (a *access) VecGet(name string, idx uint64) (uint64, error) {
	vec, ok := a.snap.vecs[name]
	if !ok {
		return 0, fmt.Errorf("switchsim: vector %q not resident", name)
	}
	if idx >= uint64(len(vec)) {
		return 0, fmt.Errorf("switchsim: vector %q index %d out of range", name, idx)
	}
	return vec[idx], nil
}

func (a *access) VecLen(name string) uint64 { return uint64(len(a.snap.vecs[name])) }

func (a *access) GlobalLoad(name string) uint64 { return a.snap.registers[name] }

func (a *access) GlobalStore(name string, v uint64) error {
	return fmt.Errorf("switchsim: data plane attempted a register write to replicated state; updates come from the server (§4.3.3)")
}

func (a *access) LpmFind(name string, key uint64) ([]uint64, bool) {
	best := -1
	var vals []uint64
	for _, e := range a.snap.lpms[name] {
		if e.Matches(key) && e.PrefixLen > best {
			best = e.PrefixLen
			vals = e.Vals
		}
	}
	return vals, best >= 0
}

// execCtx bundles everything one pipeline pass needs — the snapshot
// adapter, the interpreter environment, and the transfer scratchpad — into
// a single pooled object so a steady-state pass performs zero heap
// allocations. The env's register file (Env.Regs) is retained across uses
// and reused by the interpreter.
type execCtx struct {
	acc  access
	env  ir.Env
	xfer []uint64
}

var execPool = sync.Pool{New: func() any { return new(execCtx) }}

// getCtx checks an execution context out of the pool, wired to snap and
// the given packet, with a zeroed scratchpad of the compiled slot count.
func (sw *Switch) getCtx(snap *snapshot, lane *laneOverlay, pkt *packet.Packet, onTouch func(string, ir.MapKey)) *execCtx {
	ctx := execPool.Get().(*execCtx)
	ctx.acc = access{snap: snap, lane: lane, hop: sw.hop, onTouch: onTouch}
	n := sw.Res.NumXferSlots
	if cap(ctx.xfer) >= n {
		ctx.xfer = ctx.xfer[:n]
		clear(ctx.xfer)
	} else {
		ctx.xfer = make([]uint64, n)
	}
	ctx.env.Access = &ctx.acc
	ctx.env.State = nil
	ctx.env.Pkt = pkt
	ctx.env.Xfer = ctx.xfer
	return ctx
}

// putCtx drops references that must not outlive the pass (snapshot,
// packet) and returns the context to the pool.
func putCtx(ctx *execCtx) {
	ctx.acc = access{}
	ctx.env.Access = nil
	ctx.env.Pkt = nil
	ctx.env.Xfer = nil
	execPool.Put(ctx)
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

// ProcessPreShard runs the pre-processing partition over the packet. If
// the packet must continue to the server (ActionNext), the synthesized
// gallium_a header is attached and populated. shard is the calling
// worker's lane: the pass consults that lane's overlay before the global
// snapshot (so the shard sees its own flipped write-backs immediately) and
// accounts into the lane's padded counter block instead of shared atomics;
// sequential callers pass 0. onTouch, when non-nil, fires for every table
// hit during the pass, letting the flow-state lifecycle stamp fast-path
// liveness; a nil onTouch is free.
func (sw *Switch) ProcessPreShard(pkt *packet.Packet, shard int, onTouch func(table string, key ir.MapKey)) (PreResult, error) {
	// The data plane is lock-free: one atomic load each pins the shard's
	// lane overlay and the state snapshot for the whole pass, so every
	// worker's pre pass runs concurrently and a control-plane flip mid-pass
	// cannot tear the view. The lane view is loaded BEFORE the snapshot: a
	// fold publishes the folded snapshot before it clears the view, so a
	// pass that sees the cleared view is guaranteed the snapshot holding
	// its entries. Counters land in the shard's own padded lane block,
	// never on a cache line another shard writes.
	ln := sw.laneAt(shard)
	view := ln.view.Load()
	snap := sw.snap.Load()
	ls := &ln.stats
	ls.prePackets.Add(1)
	snap.c.pre.Inc()
	// Cache mode: run the pipeline against a scratch copy first; a cache
	// miss discards all its effects (P4 actions are predicated on the
	// punt flag) and the untouched packet goes to the server.
	work := pkt
	if sw.hasCacheTables {
		work = pkt.Clone()
	}
	ctx := sw.getCtx(snap, view, work, onTouch)
	defer putCtx(ctx)
	r, err := ir.ExecFunc(sw.Res.Prog, sw.Res.PreFn, &ctx.env)
	if err != nil {
		return PreResult{}, fmt.Errorf("switchsim: pre pipeline: %w", err)
	}
	if ctx.acc.cacheMiss {
		ls.stepsTotal.Add(int64(r.Steps))
		ls.toServer.Add(1)
		ls.punts.Add(1)
		snap.c.toServer.Inc()
		snap.c.punts.Inc()
		snap.hPre.Observe(int64(r.Steps))
		return PreResult{Action: ir.ActionNext, Punt: true, Steps: r.Steps}, nil
	}
	if sw.hasCacheTables {
		*pkt = *work
	}
	ls.stepsTotal.Add(int64(r.Steps))
	snap.hPre.Observe(int64(r.Steps))
	switch r.Action {
	case ir.ActionNext:
		ls.toServer.Add(1)
		snap.c.toServer.Inc()
		pkt.AttachGallium(sw.Res.FormatA)
		for _, f := range sw.xferA {
			if f.slot <= 0 {
				return PreResult{}, fmt.Errorf("switchsim: transfer field without compiled slot")
			}
			if err := sw.Res.FormatA.SetAt(pkt.GalData, f.spec, ctx.xfer[f.slot-1]); err != nil {
				return PreResult{}, err
			}
		}
	case ir.ActionDropped:
		ls.drops.Add(1)
		snap.c.drops.Inc()
	case ir.ActionSent:
		ls.fastPath.Add(1)
		snap.c.fast.Inc()
	}
	return PreResult{Action: r.Action, Steps: r.Steps}, nil
}

// laneAt returns the shard's lane, falling back to lane 0 for
// out-of-range indices (single-lane switches serve every caller).
func (sw *Switch) laneAt(shard int) *ctlLane {
	if shard < 0 || shard >= len(sw.lanes) {
		return sw.lanes[0]
	}
	return sw.lanes[shard]
}

// ProcessPostShard runs the post-processing partition over a packet
// returning from the server (it must carry the gallium_b header, which is
// stripped). shard and onTouch are as for ProcessPreShard.
func (sw *Switch) ProcessPostShard(pkt *packet.Packet, shard int, onTouch func(table string, key ir.MapKey)) (PreResult, error) {
	ln := sw.laneAt(shard)
	view := ln.view.Load() // before the snapshot; see ProcessPreShard
	snap := sw.snap.Load()
	ls := &ln.stats
	ls.postPackets.Add(1)
	snap.c.post.Inc()
	if !pkt.HasGallium {
		return PreResult{}, fmt.Errorf("switchsim: post pipeline: packet from server lacks gallium_b header")
	}
	ctx := sw.getCtx(snap, view, pkt, onTouch)
	defer putCtx(ctx)
	for _, f := range sw.xferB {
		if f.slot <= 0 {
			return PreResult{}, fmt.Errorf("switchsim: transfer field without compiled slot")
		}
		val, err := sw.Res.FormatB.GetAt(pkt.GalData, f.spec)
		if err != nil {
			return PreResult{}, err
		}
		ctx.xfer[f.slot-1] = val
	}
	pkt.StripGallium()
	r, err := ir.ExecFunc(sw.Res.Prog, sw.Res.PostFn, &ctx.env)
	if err != nil {
		return PreResult{}, fmt.Errorf("switchsim: post pipeline: %w", err)
	}
	ls.stepsTotal.Add(int64(r.Steps))
	snap.hPost.Observe(int64(r.Steps))
	if r.Action == ir.ActionDropped {
		ls.drops.Add(1)
		snap.c.drops.Inc()
	}
	return PreResult{Action: r.Action, Steps: r.Steps}, nil
}

// --- Control plane (§4.3.3) ---
//
// The server performs updates in three steps: StageWriteback entries (one
// control op each), FlipVisibility (one atomic op covering all staged
// tables), then MergeWriteback when convenient.

// StageWriteback installs one update into a write-back table or stages a
// register value, vector replacement, or whole-table replacement. Staged
// state is invisible until FlipVisibility.
func (sw *Switch) StageWriteback(u Update) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.stats.ctlOps.Add(1)
	sw.c.ctlOps.Inc()
	sw.c.ctlStaged.Inc()
	if u.Register != "" {
		if _, ok := sw.registers[u.Register]; !ok {
			return fmt.Errorf("switchsim: register %q not resident", u.Register)
		}
		sw.stagedRegs = append(sw.stagedRegs, u)
		return nil
	}
	if u.Vec != "" {
		if _, ok := sw.vecs[u.Vec]; !ok {
			return fmt.Errorf("switchsim: vector %q is not offloaded", u.Vec)
		}
		g := sw.Res.Prog.Global(u.Vec)
		if g != nil && g.MaxEntries > 0 && len(u.VecVals) > g.MaxEntries {
			return fmt.Errorf("switchsim: vector %q: %d entries exceed annotation %d", u.Vec, len(u.VecVals), g.MaxEntries)
		}
		sw.stagedVecs[u.Vec] = append([]uint64(nil), u.VecVals...)
		return nil
	}
	t, ok := sw.tables[u.Table]
	if !ok {
		return fmt.Errorf("switchsim: table %q not resident", u.Table)
	}
	if u.Replace {
		return sw.stageReplaceLocked(t, u)
	}
	if u.Delete {
		if u.Expire {
			sw.stats.expired.Add(1)
			sw.c.expired.Inc()
		}
		t.deleted[u.Key] = true
		delete(t.WB, u.Key)
		return nil
	}
	if t.Capacity > 0 && t.Len() >= t.Capacity && !t.Cached {
		if _, exists := t.Lookup(u.Key); !exists {
			return fmt.Errorf("%w: %q (%d entries)", ErrTableFull, u.Table, t.Capacity)
		}
	}
	t.WB[u.Key] = append([]uint64(nil), u.Vals...)
	// Last writer wins within a write-back window: a staged insert
	// supersedes an earlier staged deletion of the same key, keeping
	// deleted and WB mutually exclusive so the overlay read path and the
	// merge agree regardless of application order.
	delete(t.deleted, u.Key)
	return nil
}

// stageReplaceLocked computes the delta from a table's currently visible
// content to u.Entries and stages it as ordinary write-back inserts and
// deletions — so a whole-table replacement rides the §4.3.3 flip like any
// other batch and becomes visible atomically with it.
func (sw *Switch) stageReplaceLocked(t *Table, u Update) error {
	if t.Capacity > 0 && len(u.Entries) > t.Capacity && !t.Cached {
		return fmt.Errorf("%w: %q (%d entries, capacity %d)", ErrTableFull, u.Table, len(u.Entries), t.Capacity)
	}
	// Delete every currently visible key absent from the replacement.
	for k := range t.Main {
		if _, keep := u.Entries[k]; !keep {
			t.deleted[k] = true
			delete(t.WB, k)
		}
	}
	for k := range t.WB {
		if _, keep := u.Entries[k]; !keep {
			t.deleted[k] = true
			delete(t.WB, k)
		}
	}
	// Install the replacement content as staged inserts.
	for k, v := range u.Entries {
		t.WB[k] = append([]uint64(nil), v...)
		delete(t.deleted, k)
	}
	return nil
}

// FlipVisibility atomically makes all staged write-back state (and staged
// register values) visible to the data plane. Under concurrency the single
// snapshot publication is what makes the flip atomic with respect to
// in-flight packets: a pass pinned the previous snapshot and sees none of
// the batch, or loads the new one and sees all of it — never a half.
func (sw *Switch) FlipVisibility() {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.stats.ctlFlips.Add(1)
	sw.stats.ctlOps.Add(1)
	sw.c.ctlFlips.Inc()
	sw.c.ctlOps.Inc()
	for _, t := range sw.tables {
		if len(t.WB) > 0 || len(t.deleted) > 0 {
			t.UseWB = true
			// Keep the occupancy gauge live even while compaction defers
			// the merge; Len walks only the bounded overlay.
			if m := t.obs; m != nil {
				m.entries.Set(int64(t.Len()))
			}
		}
	}
	for _, u := range sw.stagedRegs {
		sw.registers[u.Register] = u.RegVal
	}
	sw.stagedRegs = nil
	for name, vals := range sw.stagedVecs {
		sw.vecs[name] = vals
		delete(sw.stagedVecs, name)
	}
	sw.publishLocked()
}

// MarkReconfig accounts one applied control-plane reconfiguration batch (a
// rule-set swap, pool change, or repartition that went through the
// write-back path as a unit). Pure accounting: the atomicity comes from the
// single FlipVisibility the batch shares.
func (sw *Switch) MarkReconfig() {
	sw.stats.reconfigs.Add(1)
	sw.c.ctlReconfigs.Inc()
}

// Epoch reports the snapshot publication counter: it advances on every
// data-plane publish, so observing a later epoch proves a reconfiguration
// has reached in-flight packets.
func (sw *Switch) Epoch() uint64 { return sw.epoch.Load() }

// MergeWriteback folds write-back contents into the main tables and clears
// the visibility bit (step 3 of §4.3.3, done off the critical path). For
// §7 cache tables this is also where FIFO eviction keeps the cache within
// capacity.
func (sw *Switch) MergeWriteback() {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	changed := false
	for _, t := range sw.tables {
		if !t.UseWB {
			continue
		}
		changed = true
		sw.mergeTableLocked(t)
	}
	if changed {
		sw.publishLocked()
	}
}

// CompactWriteback is the amortized form of MergeWriteback: it folds a
// table's overlay into its main table only once the overlay has outgrown
// its amortization threshold, and leaves smaller overlays in place for a
// later pass. §4.3.3 merges "lazily" for exactly this reason — the merge
// replaces the main table copy-on-write (readers of a published snapshot
// share it by reference), so folding after every staged insert costs
// O(main) per update and turns a flow flood into quadratic control-plane
// work. Deferring until the overlay holds ~sqrt(main) entries makes the
// per-update cost O(sqrt(main)) while the flip keeps its exact
// visibility semantics: lookups consult the overlay first either way.
func (sw *Switch) CompactWriteback() {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	changed := false
	for _, t := range sw.tables {
		if !t.UseWB {
			continue
		}
		if overlay := len(t.WB) + len(t.deleted); overlay < mergeThreshold(len(t.Main)) {
			continue
		}
		changed = true
		sw.mergeTableLocked(t)
	}
	if changed {
		sw.publishLocked()
	}
}

// mergeThreshold is the overlay size at which compaction folds it into the
// main table. Each flip copies the overlay into the snapshot and each
// merge copies the main table, so the per-update amortized cost is
// overlay/2 + main/overlay — minimized near sqrt(2*main).
func mergeThreshold(mainLen int) int {
	th := 64
	for th*th < 2*mainLen {
		th *= 2
	}
	return th
}

// mergeTableLocked folds one table's overlay into its main map. Callers
// hold mu and publish afterwards.
func (sw *Switch) mergeTableLocked(t *Table) {
	sw.foldIntoMainLocked(t, t.WB, t.deleted)
	t.WB = map[ir.MapKey][]uint64{}
	t.deleted = map[ir.MapKey]bool{}
	t.UseWB = false
}

// foldIntoMainLocked merges one overlay (inserts wb, deletions del) into a
// table's main map. It is the shared tail of the global write-back merge
// and the per-shard lane fold. Callers hold mu and publish afterwards.
func (sw *Switch) foldIntoMainLocked(t *Table, wb map[ir.MapKey][]uint64, del map[ir.MapKey]bool) {
	// Copy-on-write: readers of the published snapshot share the main
	// map by reference, so the merge folds into a fresh map and swaps
	// it in rather than mutating in place.
	newMain := make(map[ir.MapKey][]uint64, len(t.Main)+len(wb))
	for k, v := range t.Main {
		newMain[k] = v
	}
	for k, v := range wb {
		// Only §7 cache tables ever trim the FIFO; ordering every other
		// table's keys would grow without bound.
		if _, existed := newMain[k]; !existed && t.Cached {
			t.fifo = append(t.fifo, k)
		}
		newMain[k] = v
	}
	for k := range del {
		delete(newMain, k)
	}
	t.Main = newMain
	if t.Cached && t.Capacity > 0 {
		for len(t.Main) > t.Capacity && len(t.fifo) > 0 {
			victim := t.fifo[0]
			t.fifo = t.fifo[1:]
			if _, ok := t.Main[victim]; ok {
				delete(t.Main, victim)
				sw.stats.evictions.Add(1)
				sw.c.evict.Inc()
			}
		}
	}
	if m := t.obs; m != nil {
		m.entries.Set(int64(t.Len()))
	}
}
