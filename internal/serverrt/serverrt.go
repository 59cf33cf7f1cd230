// Package serverrt implements the middlebox server: it executes the
// non-offloaded partition (the paper's generated DPDK application) against
// the authoritative middlebox state, records every update touching
// replicated state, and hands those updates to the runtime so they can be
// pushed through the switch's write-back control plane while the packet is
// held by output commit (§4.3.3). The same Server, built by NewSoftware
// with nothing replicated, runs the software baseline — the whole input
// program on the server — which plays the paper's FastClick comparison.
package serverrt

import (
	"fmt"

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
	// to the switch before the packet is released (output commit). They
	// stay valid until the caller hands them back with Server.Recycle.
	Updates []switchsim.Update
}

// Server runs the non-offloaded partition, or (built by NewSoftware) only
// the whole program. A Server is NOT safe for concurrent use — the engine
// runs one per worker shard — which lets it keep a reusable execution
// scratchpad (transfer slots, register file, recorder) so a steady-state
// packet allocates nothing, and neither does a packet that records updates
// once its caller recycles them.
type Server struct {
	// Res is the partition the server runs; nil for a software server.
	Res   *partition.Result
	State *ir.State

	// prog is the program whose globals the state holds.
	prog *ir.Program
	// srv and full are the server partition (nil for a software server)
	// and the whole program lowered to execution plans, once, at build.
	srv, full *ir.Plan

	// replicated and cached are indexed like prog.Globals. cached marks
	// tables running in §7 cache mode: authoritative hits are republished
	// to the switch as read-through fills.
	replicated, cached []bool

	// Reusable per-packet scratch (single-goroutine use).
	rec  recorder
	env  ir.Env
	xfer []uint64
	// xferA and xferB are the transfer headers compiled against xfer; a
	// layout error fails their first packet.
	xferA, xferB *packet.Codec

	reg *obs.Registry
	c   serverCounters
	// fills tracks per-cached-table read-through fills, indexed like
	// prog.Globals.
	fills []*obs.Counter
}

// room is what one packet's recorded updates can need at most.
type room struct{ updates, words int }

// serverCounters are the server-wide activity counters.
type serverCounters struct {
	packets, steps         *obs.Counter // slow-path partition executions
	fullPackets, fullSteps *obs.Counter // §7 punts and software-baseline runs
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
	s.fills = make([]*obs.Counter, len(s.cached))
	for gi, g := range s.prog.Globals {
		if s.cached[gi] {
			s.fills[gi] = reg.Counter("server.cache." + g.Name + ".fills")
		}
	}
}

// NewSoftware builds the software baseline with fresh state: a server
// that runs p whole through ProcessFull, with nothing replicated, so it
// records no updates.
func NewSoftware(p *ir.Program) *Server {
	s := &Server{
		prog:       p,
		State:      ir.NewState(p),
		full:       ir.CompilePlan(p, p.Fn),
		replicated: make([]bool, len(p.Globals)),
		cached:     make([]bool, len(p.Globals)),
	}
	s.rec.srv = s
	return s
}

// New builds a server for a partitioned middlebox with fresh state.
func New(res *partition.Result) *Server {
	s := NewSoftware(res.Prog)
	s.Res, s.srv = res, ir.CompilePlan(res.Prog, res.SrvFn)
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
	// recording counts fn's statements that can record an update — writes
	// to replicated globals and finds on §7 cache tables — and bounds the
	// value words they carry (a remove carries none).
	recording := func(fn *ir.Function) (r room) {
		for _, in := range fn.Stmts() {
			gi, isGlobal := index[in.Obj]
			writes := in.Kind == ir.MapInsert || in.Kind == ir.MapRemove || in.Kind == ir.GlobalStore
			if isGlobal && (writes && s.replicated[gi] || in.Kind == ir.MapFind && s.cached[gi]) {
				r.updates++
				r.words += len(res.Prog.Globals[gi].ValTypes)
			}
		}
		return r
	}
	// The recorder's update list and value arena are sized once, for
	// either plan.
	srvRoom, fullRoom := recording(res.SrvFn), recording(res.Prog.Fn)
	s.rec.room = room{max(srvRoom.updates, fullRoom.updates), max(srvRoom.words, fullRoom.words)}
	s.xfer = make([]uint64, res.NumXferSlots)
	s.xferA, _ = partition.XferCodec(res.TransferA, res.FormatA, res.NumXferSlots)
	s.xferB, _ = partition.XferCodec(res.TransferB, res.FormatB, res.NumXferSlots)
	return s
}

// recorder is the server's ir.PlanState: it applies state mutations to the
// authoritative State — maps by global index, straight to their tables —
// and records those that touch replicated state.
type recorder struct {
	srv *Server
	// updates is the packet's update list and vals the arena holding its
	// value tuples. Both are allocated at the first recorded update, with
	// the capacity room, and reused from packet to packet unless lent.
	updates []switchsim.Update
	vals    []uint64
	// lent marks updates and vals as handed out in a Result its caller
	// has not recycled: the next packet records into new ones.
	lent bool
	room room
}

func (r *recorder) name(g int) string { return r.srv.prog.Globals[g].Name }

// reset readies the recorder for the next packet.
func (r *recorder) reset() {
	if r.lent {
		r.updates, r.vals, r.lent = nil, nil, false
		return
	}
	r.updates, r.vals = r.updates[:0], r.vals[:0]
}

func (r *recorder) record(u switchsim.Update) {
	if r.updates == nil {
		r.updates = make([]switchsim.Update, 0, r.room.updates)
	}
	r.updates = append(r.updates, u)
}

// keep copies an update's value tuple into the packet's arena.
func (r *recorder) keep(vals []uint64) []uint64 {
	if r.vals == nil {
		r.vals = make([]uint64, 0, r.room.words)
	}
	n := len(r.vals)
	r.vals = append(r.vals, vals...)
	return r.vals[n:len(r.vals):len(r.vals)]
}

func (r *recorder) MapFind(g int, key *ir.MapKey) ([]uint64, bool) {
	name, cached := r.name(g), r.srv.cached[g]
	vals, ok := r.srv.State.FindAt(g, key)
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
		r.record(switchsim.Update{Table: name, Key: *key, Vals: r.keep(vals), ReadFill: true})
		if r.srv.reg != nil {
			r.srv.c.cacheFills.Inc()
			r.srv.fills[g].Inc()
		}
	}
	return vals, ok
}

func (r *recorder) MapInsert(g int, key *ir.MapKey, vals []uint64) error {
	if r.srv.replicated[g] {
		r.record(switchsim.Update{Table: r.name(g), Key: *key, Vals: r.keep(vals)})
	}
	return r.srv.State.InsertAt(g, key, vals)
}

func (r *recorder) MapRemove(g int, key *ir.MapKey) error {
	if r.srv.replicated[g] {
		r.record(switchsim.Update{Table: r.name(g), Key: *key, Delete: true})
	}
	return r.srv.State.RemoveAt(g, key)
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
	if err := s.xferA.Unpack(pkt.GalData, xfer); err != nil {
		return Result{}, fmt.Errorf("serverrt: %w", err)
	}
	pkt.StripGallium()

	r, err := s.exec(s.srv, pkt, xfer)
	if err != nil {
		return Result{}, fmt.Errorf("serverrt: %w", err)
	}
	if r.Action == ir.ActionNext {
		if err := s.xferB.Attach(pkt, xfer); err != nil {
			return Result{}, fmt.Errorf("serverrt: %w", err)
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
// (Env.Regs) is retained across packets. The environment lets go of pkt
// on return: it is the caller's packet, which the server must not keep
// reachable.
func (s *Server) exec(plan *ir.Plan, pkt *packet.Packet, xfer []uint64) (ir.Result, error) {
	s.rec.reset()
	s.env.Pkt = pkt
	s.env.Xfer = xfer
	r, err := plan.Exec(&s.rec, &s.env)
	s.env.Pkt = nil
	return r, err
}

// takeUpdates lends the packet's recorded updates to the caller, or
// returns nil when it recorded none (the steady-state case). Both drivers
// stage a batch inside their Commit, which copies every key and value
// into table nodes, and then Recycle it; a caller that keeps a Result
// longer simply never recycles, and its updates stay valid for good.
func (s *Server) takeUpdates() []switchsim.Update {
	if len(s.rec.updates) == 0 {
		return nil
	}
	s.rec.lent = true
	return s.rec.updates
}

// Recycle hands the Updates of the last Result back to the server: the
// next Process or ProcessFull records into the same update list and value
// arena, so a new flow's server run allocates nothing. The caller must
// not read those Updates afterwards. Without a Recycle, every Result's
// Updates outlive any later call.
func (s *Server) Recycle() { s.rec.lent = false }

// ProcessFull runs the COMPLETE middlebox program over a packet: a punted
// one (§7 cache mode: a switch cache miss proves nothing about the
// authoritative state, so the server re-executes everything), or every
// packet of the software baseline. The packet must not carry a gallium
// header — the switch punts it unmodified.
func (s *Server) ProcessFull(pkt *packet.Packet) (Result, error) {
	if pkt.HasGallium {
		return Result{}, fmt.Errorf("serverrt: punted packet unexpectedly carries a gallium header")
	}
	r, err := s.exec(s.full, pkt, nil)
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
