// Package serverrt implements the middlebox server: it executes the
// non-offloaded partition (the paper's generated DPDK application) against
// the authoritative middlebox state, records every update touching
// replicated state, and hands those updates to the runtime so they can be
// pushed through the switch's write-back control plane while the packet is
// held by output commit (§4.3.3). It also provides the software baseline —
// the whole input program on the server — which plays the paper's
// FastClick comparison.
package serverrt

import (
	"fmt"
	"slices"

	"gallium/internal/ir"
	"gallium/internal/obs"
	"gallium/internal/packet"
	"gallium/internal/partition"
	"gallium/internal/switchsim"
)

// Result describes one packet's processing on the server.
type Result struct {
	Action ir.Action
	// Steps is the number of executed statements (the cycle model scales
	// from it).
	Steps int
	// Updates lists replicated-state mutations that must be synchronized
	// to the switch before the packet is released (output commit).
	Updates []switchsim.Update
}

// Server runs the non-offloaded partition. A Server is NOT safe for
// concurrent use — the engine runs one per worker shard — which lets it
// keep a reusable execution scratchpad (transfer slots, register file,
// recorder) so a steady-state packet that records no updates allocates
// nothing.
type Server struct {
	Res   *partition.Result
	State *ir.State

	// srv and full are the server partition and the whole program lowered
	// to execution plans, once, at New; srvRecords and fullRecords are their
	// static counts of statements that can record an update, which size a
	// packet's update list in one allocation.
	srv, full               *ir.Plan
	srvRecords, fullRecords int

	// replicated and cached are indexed like Res.Prog.Globals. cached marks
	// tables running in §7 cache mode: authoritative hits are republished
	// to the switch as read-through fills.
	replicated, cached []bool

	// Reusable per-packet scratch (single-goroutine use).
	rec  recorder
	env  ir.Env
	xfer []uint64
	// xferA and xferB pair each transfer variable's scratchpad slot with
	// its precomputed header position (resolved once at construction).
	xferA, xferB []xferField

	reg *obs.Registry
	c   serverCounters
	// fills tracks per-cached-table read-through fills.
	fills map[string]*obs.Counter
}

// xferField pairs a transfer variable's scratchpad slot with its
// precomputed wire position.
type xferField struct {
	slot int
	spec packet.FieldSpec
}

func compileXferFields(vars []partition.TransferVar, f *packet.HeaderFormat) []xferField {
	out := make([]xferField, 0, len(vars))
	for _, v := range vars {
		spec, _ := f.Spec(v.Name)
		out = append(out, xferField{slot: v.Slot, spec: spec})
	}
	return out
}

// serverCounters are the server-wide activity counters.
type serverCounters struct {
	packets, steps         *obs.Counter // slow-path partition executions
	fullPackets, fullSteps *obs.Counter // §7 full-program re-executions
	updates                *obs.Counter // replicated-state updates recorded
	cacheLookups           *obs.Counter // authoritative lookups on cached tables
	cacheHits, cacheMisses *obs.Counter
	cacheFills             *obs.Counter
}

// Instrument registers the server's metrics with reg and starts recording
// into them. Passing nil is a no-op; instrumentation cannot be removed.
func (s *Server) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.reg = reg
	s.c = serverCounters{
		packets:      reg.Counter("server.packets"),
		steps:        reg.Counter("server.steps"),
		fullPackets:  reg.Counter("server.full.packets"),
		fullSteps:    reg.Counter("server.full.steps"),
		updates:      reg.Counter("server.updates"),
		cacheLookups: reg.Counter("server.cache.lookups"),
		cacheHits:    reg.Counter("server.cache.hits"),
		cacheMisses:  reg.Counter("server.cache.misses"),
		cacheFills:   reg.Counter("server.cache.fills"),
	}
	s.fills = map[string]*obs.Counter{}
	for gi, g := range s.Res.Prog.Globals {
		if s.cached[gi] {
			s.fills[g.Name] = reg.Counter("server.cache." + g.Name + ".fills")
		}
	}
}

// New builds a server for a partitioned middlebox with fresh state.
func New(res *partition.Result) *Server {
	s := &Server{
		Res:        res,
		State:      ir.NewState(res.Prog),
		srv:        ir.CompilePlan(res.Prog, res.SrvFn),
		full:       ir.CompilePlan(res.Prog, res.Prog.Fn),
		replicated: make([]bool, len(res.Prog.Globals)),
		cached:     make([]bool, len(res.Prog.Globals)),
	}
	index := make(map[string]int, len(res.Prog.Globals))
	for gi, g := range res.Prog.Globals {
		index[g.Name] = gi
	}
	for _, gn := range res.OffloadedGlobals {
		gi := index[gn]
		s.replicated[gi] = true
		if g := res.Prog.Globals[gi]; g.Kind == ir.KindMap {
			if cap := res.Cons.CacheFor(gn); cap > 0 && cap < g.MaxEntries {
				s.cached[gi] = true
			}
		}
	}
	// recording counts fn's statements that can record an update: writes to
	// replicated globals and finds on §7 cache tables.
	recording := func(fn *ir.Function) (n int) {
		for _, in := range fn.Stmts() {
			gi, isGlobal := index[in.Obj]
			switch in.Kind {
			case ir.MapInsert, ir.MapRemove, ir.GlobalStore:
				if isGlobal && s.replicated[gi] {
					n++
				}
			case ir.MapFind:
				if isGlobal && s.cached[gi] {
					n++
				}
			}
		}
		return n
	}
	s.srvRecords, s.fullRecords = recording(res.SrvFn), recording(res.Prog.Fn)
	s.rec.srv = s
	s.xfer = make([]uint64, res.NumXferSlots)
	s.xferA = compileXferFields(res.TransferA, res.FormatA)
	s.xferB = compileXferFields(res.TransferB, res.FormatB)
	return s
}

// recorder is the server's ir.PlanState: it applies state mutations to the
// authoritative State (by name — ir.State is keyed that way) and records
// those that touch replicated state.
type recorder struct {
	srv     *Server
	updates []switchsim.Update
	// room is the capacity the first update of a packet allocates.
	room int
}

func (r *recorder) name(g int) string { return r.srv.Res.Prog.Globals[g].Name }

func (r *recorder) record(u switchsim.Update) {
	if r.updates == nil {
		r.updates = make([]switchsim.Update, 0, r.room)
	}
	r.updates = append(r.updates, u)
}

func (r *recorder) MapFind(g int, key *ir.MapKey) ([]uint64, bool) {
	name, cached := r.name(g), r.srv.cached[g]
	vals, ok := r.srv.State.MapFind(name, *key)
	if r.srv.reg != nil && cached {
		r.srv.c.cacheLookups.Inc()
		if ok {
			r.srv.c.cacheHits.Inc()
		} else {
			r.srv.c.cacheMisses.Inc()
		}
	}
	if ok && cached {
		// Read-through fill (§7 cache mode): republish the entry so the
		// switch cache can serve the next packets of this flow.
		r.record(switchsim.Update{Table: name, Key: *key, Vals: slices.Clone(vals), ReadFill: true})
		if r.srv.reg != nil {
			r.srv.c.cacheFills.Inc()
			r.srv.fills[name].Inc()
		}
	}
	return vals, ok
}

// MapInsert shares vals between the state and the update: the plan built
// the slice for this insert and nothing mutates a stored value tuple (the
// switch copies it when the update is staged).
func (r *recorder) MapInsert(g int, key *ir.MapKey, vals []uint64) error {
	if r.srv.replicated[g] {
		r.record(switchsim.Update{Table: r.name(g), Key: *key, Vals: vals})
	}
	return r.srv.State.MapInsert(r.name(g), *key, vals)
}

func (r *recorder) MapRemove(g int, key *ir.MapKey) error {
	if r.srv.replicated[g] {
		r.record(switchsim.Update{Table: r.name(g), Key: *key, Delete: true})
	}
	return r.srv.State.MapRemove(r.name(g), *key)
}

func (r *recorder) VecGet(g int, idx uint64) (uint64, error) {
	return r.srv.State.VecGet(r.name(g), idx)
}

func (r *recorder) VecLen(g int) uint64 { return r.srv.State.VecLen(r.name(g)) }

func (r *recorder) GlobalLoad(g int) uint64 { return r.srv.State.GlobalLoad(r.name(g)) }

func (r *recorder) LpmFind(g int, key uint64) ([]uint64, bool) {
	return r.srv.State.LpmFind(r.name(g), key)
}

func (r *recorder) GlobalStore(g int, v uint64) error {
	if r.srv.replicated[g] {
		r.record(switchsim.Update{Register: r.name(g), RegVal: v})
	}
	return r.srv.State.GlobalStore(r.name(g), v)
}

// SetClock sets the virtual time and traffic class stamped onto
// lifecycle-armed flow-table entries by subsequent Process calls.
func (s *Server) SetClock(nowNs int64, class uint8) {
	s.State.NowNs = nowNs
	s.State.Class = class
}

// Process runs the non-offloaded partition over a slow-path packet. The
// packet must carry the gallium_a header (attached by the switch); on
// ActionNext it leaves carrying gallium_b for the post-processing pass.
func (s *Server) Process(pkt *packet.Packet) (Result, error) {
	if !pkt.HasGallium {
		return Result{}, fmt.Errorf("serverrt: slow-path packet lacks gallium_a header")
	}
	xfer := s.scratchXfer()
	for _, f := range s.xferA {
		val, err := s.Res.FormatA.GetAt(pkt.GalData, f.spec)
		if err != nil {
			return Result{}, err
		}
		if f.slot <= 0 {
			return Result{}, fmt.Errorf("serverrt: transfer field without compiled slot")
		}
		xfer[f.slot-1] = val
	}
	pkt.StripGallium()

	r, err := s.exec(s.srv, s.srvRecords, pkt, xfer)
	if err != nil {
		return Result{}, fmt.Errorf("serverrt: %w", err)
	}
	if r.Action == ir.ActionNext {
		pkt.AttachGallium(s.Res.FormatB)
		for _, f := range s.xferB {
			if f.slot <= 0 {
				return Result{}, fmt.Errorf("serverrt: transfer field without compiled slot")
			}
			if err := s.Res.FormatB.SetAt(pkt.GalData, f.spec, xfer[f.slot-1]); err != nil {
				return Result{}, err
			}
		}
	}
	if s.reg != nil {
		s.c.packets.Inc()
		s.c.steps.Add(uint64(r.Steps))
		s.c.updates.Add(uint64(len(s.rec.updates)))
	}
	return Result{Action: r.Action, Steps: r.Steps, Updates: s.takeUpdates()}, nil
}

// scratchXfer returns the reusable transfer scratchpad, zeroed.
func (s *Server) scratchXfer() []uint64 {
	clear(s.xfer)
	return s.xfer
}

// exec runs plan over pkt in the reusable environment, whose register file
// (Env.Regs) is retained across packets; records is the plan's static count
// of recording statements.
func (s *Server) exec(plan *ir.Plan, records int, pkt *packet.Packet, xfer []uint64) (ir.Result, error) {
	s.rec.room = records
	s.env.Pkt = pkt
	s.env.Xfer = xfer
	return plan.Exec(&s.rec, &s.env)
}

// takeUpdates hands ownership of the recorded updates to the caller (they
// may outlive this packet: the Testbed stages them for a flip scheduled
// later in virtual time, so the slice cannot be reused). The common
// steady-state case records nothing and returns nil without allocating.
func (s *Server) takeUpdates() []switchsim.Update {
	u := s.rec.updates
	s.rec.updates = nil
	return u
}

// ProcessFull runs the COMPLETE middlebox program over a punted packet
// (§7 cache mode: a switch cache miss proves nothing about the
// authoritative state, so the server re-executes everything). The packet
// must not carry a gallium header — the switch punts it unmodified.
func (s *Server) ProcessFull(pkt *packet.Packet) (Result, error) {
	if pkt.HasGallium {
		return Result{}, fmt.Errorf("serverrt: punted packet unexpectedly carries a gallium header")
	}
	r, err := s.exec(s.full, s.fullRecords, pkt, nil)
	if err != nil {
		return Result{}, fmt.Errorf("serverrt: full program: %w", err)
	}
	if s.reg != nil {
		s.c.fullPackets.Inc()
		s.c.fullSteps.Add(uint64(r.Steps))
		s.c.updates.Add(uint64(len(s.rec.updates)))
	}
	return Result{Action: r.Action, Steps: r.Steps, Updates: s.takeUpdates()}, nil
}

// Software is the non-offloaded baseline: the unpartitioned middlebox
// running entirely on the server.
type Software struct {
	Prog  *ir.Program
	State *ir.State

	// env is reused across packets (a Software instance is single-goroutine,
	// one per engine worker).
	env ir.Env

	packets, steps *obs.Counter
}

// NewSoftware builds the baseline with fresh state.
func NewSoftware(p *ir.Program) *Software {
	return &Software{Prog: p, State: ir.NewState(p)}
}

// Instrument registers the baseline's metrics with reg.
func (s *Software) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.packets = reg.Counter("server.packets")
	s.steps = reg.Counter("server.steps")
}

// SetClock sets the virtual time and traffic class stamped onto
// lifecycle-armed flow-table entries by subsequent Process calls.
func (s *Software) SetClock(nowNs int64, class uint8) {
	s.State.NowNs = nowNs
	s.State.Class = class
}

// Process runs the whole input program over one packet.
func (s *Software) Process(pkt *packet.Packet) (Result, error) {
	s.env.State = s.State
	s.env.Pkt = pkt
	r, err := s.Prog.Exec(&s.env)
	if err != nil {
		return Result{}, err
	}
	s.packets.Inc()
	s.steps.Add(uint64(r.Steps))
	return Result{Action: r.Action, Steps: r.Steps}, nil
}

// ClassifyUpdates splits the server's replicated-state updates into cache
// fills (inserts of keys the switch cannot currently serve — safe to apply
// without stalling the packet, since a racing lookup just punts to the
// authoritative server) and synchronous updates (everything else: deletes,
// overwrites of visible entries, register writes, non-cached tables),
// which output commit must wait for. Classification reads switch state
// through VisibleEntry (lock-free, like a packet's lookup), so an engine
// worker can call it while the other workers keep processing packets.
func ClassifyUpdates(sw *switchsim.Switch, updates []switchsim.Update) (fills, syncs []switchsim.Update) {
	for _, u := range updates {
		if u.Table != "" && !u.Delete {
			if visible, cached := sw.VisibleEntry(u.Table, u.Key); cached {
				if !visible {
					fills = append(fills, u)
					continue
				}
				if u.ReadFill {
					continue // already cached: nothing to do
				}
			}
		}
		if u.ReadFill {
			continue // read fills never synchronize
		}
		syncs = append(syncs, u)
	}
	return fills, syncs
}
