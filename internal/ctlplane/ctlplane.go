// Package ctlplane is the live control plane above the engine: typed
// reconfiguration operations (firewall rule-set swaps, load-balancer pool
// changes with weights and connection draining, NAT port-range
// repartitioning), validated against the compiled partition and lowered
// into the engine's mechanism-level Reconfig — per-shard state mutations
// plus switch updates applied as ONE §4.3.3 visibility flip. It also
// defines the JSON wire protocol and the unix-socket server/client pair
// that expose reconfiguration to galliumctl against a running
// galliumsim -serve.
//
// The layering mirrors yanet2's controlplane/coordinator/CLI split: the
// engine owns the apply mechanism (Reconfigure's pause and one flip),
// this package owns operation semantics and validation, and the CLI is a
// thin JSON client.
package ctlplane

import (
	"fmt"
	"slices"

	"gallium/internal/engine"
	"gallium/internal/flowstate"
	"gallium/internal/ir"
	"gallium/internal/packet"
	"gallium/internal/partition"
	"gallium/internal/switchsim"
)

// Target describes one pipeline stage the control plane can address: the
// middlebox's name plus its compiled partition (nil in software mode,
// where every change is server-side only).
type Target struct {
	Name string
	Res  *partition.Result
	Prog *ir.Program
}

// program returns the stage's IR program from whichever field carries it.
func (t Target) program() *ir.Program {
	if t.Res != nil {
		return t.Res.Prog
	}
	return t.Prog
}

// offloaded reports whether the named global is switch-resident.
func (t Target) offloaded(name string) bool {
	return t.Res != nil && slices.Contains(t.Res.OffloadedGlobals, name)
}

// Op is one typed reconfiguration operation. Stage() addresses the
// pipeline stage it applies to (0 for single-middlebox sessions).
type Op interface {
	Stage() int
	// compile validates the op against its target and lowers it.
	compile(t Target, workers int) (engine.Reconfig, error)
}

// Compile validates op against the pipeline's compiled stages and lowers
// it to the engine's mechanism-level Reconfig. workers is the engine's
// shard count (repartition ops split allocator spaces across it).
func Compile(op Op, targets []Target, workers int) (engine.Reconfig, error) {
	si := op.Stage()
	if si < 0 || si >= len(targets) {
		return engine.Reconfig{}, fmt.Errorf("ctlplane: stage %d out of range (pipeline has %d stages)", si, len(targets))
	}
	if workers <= 0 {
		workers = 1
	}
	r, err := op.compile(targets[si], workers)
	if err != nil {
		return engine.Reconfig{}, err
	}
	r.Stage = si
	return r, nil
}

// FirewallRuleSwap atomically replaces the firewall's whitelist with a new
// rule set. Rules are split between wl_out and wl_in by the deployment's
// addressing convention (sources inside 10/8 are outbound, matching
// middleboxes.AllowFlow); both tables flip together, so no packet ever
// sees one direction's new rules with the other's old ones.
type FirewallRuleSwap struct {
	// At addresses the pipeline stage (0 = first).
	At int
	// Rules is the complete new whitelist; rules absent from it are
	// revoked at the flip.
	Rules []packet.FiveTuple
}

// Stage implements Op.
func (o FirewallRuleSwap) Stage() int { return o.At }

// firewallTables are the whitelist firewall's two direction tables.
var firewallTables = []string{"wl_out", "wl_in"}

func (o FirewallRuleSwap) compile(t Target, workers int) (engine.Reconfig, error) {
	prog := t.program()
	if prog == nil {
		return engine.Reconfig{}, fmt.Errorf("ctlplane: stage %q has no compiled program", t.Name)
	}
	split := map[string]map[ir.MapKey][]uint64{}
	for _, name := range firewallTables {
		g := prog.Global(name)
		if g == nil || g.Kind != ir.KindMap {
			return engine.Reconfig{}, fmt.Errorf("ctlplane: stage %q is not a whitelist firewall (no map %q)", t.Name, name)
		}
		split[name] = map[ir.MapKey][]uint64{}
	}
	for _, rule := range o.Rules {
		name := "wl_in"
		if byte(rule.SrcIP>>24) == 10 {
			name = "wl_out"
		}
		key := ir.MakeMapKey(uint64(rule.SrcIP), uint64(rule.DstIP), uint64(rule.SrcPort), uint64(rule.DstPort), uint64(rule.Proto))
		split[name][key] = []uint64{1}
	}
	var updates []switchsim.Update
	for _, name := range firewallTables {
		g := prog.Global(name)
		if g.MaxEntries > 0 && len(split[name]) > g.MaxEntries {
			return engine.Reconfig{}, fmt.Errorf("ctlplane: %d %s rules exceed the table's annotated max %d", len(split[name]), name, g.MaxEntries)
		}
		if t.offloaded(name) {
			updates = append(updates, switchsim.Update{Table: name, Replace: true, Entries: split[name]})
		}
	}
	return engine.Reconfig{
		Updates: updates,
		Mutate: func(shard int, st *ir.State) []switchsim.Update {
			for _, name := range firewallTables {
				fresh := make(map[ir.MapKey][]uint64, len(split[name]))
				for k, v := range split[name] {
					fresh[k] = append([]uint64(nil), v...)
				}
				st.ReplaceMap(name, fresh)
			}
			return nil
		},
	}, nil
}

// Backend is one load-balancer pool member with its traffic weight.
type Backend struct {
	Addr packet.IPv4Addr
	// Weight is the member's share of the hash space, realized by entry
	// repetition in the backend vector (>= 1; 0 removes the member from
	// the pool, which combined with Drain lets existing connections
	// finish on it while new flows go elsewhere).
	Weight int
}

// LBPoolChange atomically replaces a load balancer's backend pool,
// optionally draining connections off removed backends. The expanded
// weighted vector flips into the switch together with any connection
// purges, so hash-based assignment and connection consistency never
// disagree mid-change.
type LBPoolChange struct {
	// At addresses the pipeline stage (0 = first).
	At int
	// Backends is the complete new pool with weights.
	Backends []Backend
	// Drain keeps established connections pinned to their (possibly
	// removed) backends until natural teardown — the draining protocol —
	// instead of purging their entries at the flip. Without Drain, every
	// connection entry pointing at a backend absent from the new pool is
	// deleted in the same flip, and those flows re-hash onto the new pool
	// on their next packet.
	Drain bool
}

// Stage implements Op.
func (o LBPoolChange) Stage() int { return o.At }

// connTables are the connection-consistency maps of the two load
// balancers (l4lb's five-tuple map, minilb's hash-key map); whichever the
// target program declares is the one drained or purged.
var connTables = []string{"conns", "conn"}

func (o LBPoolChange) compile(t Target, workers int) (engine.Reconfig, error) {
	prog := t.program()
	if prog == nil {
		return engine.Reconfig{}, fmt.Errorf("ctlplane: stage %q has no compiled program", t.Name)
	}
	g := prog.Global("backends")
	if g == nil || g.Kind != ir.KindVec {
		return engine.Reconfig{}, fmt.Errorf("ctlplane: stage %q is not a load balancer (no vector %q)", t.Name, "backends")
	}
	var vec []uint64
	keep := map[uint64]bool{}
	for _, b := range o.Backends {
		if b.Weight < 0 {
			return engine.Reconfig{}, fmt.Errorf("ctlplane: backend %v has negative weight %d", b.Addr, b.Weight)
		}
		if b.Weight > 0 {
			keep[uint64(b.Addr)] = true
		}
		for i := 0; i < b.Weight; i++ {
			vec = append(vec, uint64(b.Addr))
		}
	}
	if len(vec) == 0 {
		return engine.Reconfig{}, fmt.Errorf("ctlplane: pool change leaves no backend with positive weight")
	}
	if g.MaxEntries > 0 && len(vec) > g.MaxEntries {
		return engine.Reconfig{}, fmt.Errorf("ctlplane: weighted pool expands to %d entries, exceeding the vector's annotated max %d", len(vec), g.MaxEntries)
	}
	connTable := ""
	for _, name := range connTables {
		if cg := prog.Global(name); cg != nil && cg.Kind == ir.KindMap {
			connTable = name
			break
		}
	}
	var updates []switchsim.Update
	if t.offloaded("backends") {
		updates = append(updates, switchsim.Update{Vec: "backends", VecVals: vec})
	}
	connOffloaded := connTable != "" && t.offloaded(connTable)
	drain := o.Drain
	return engine.Reconfig{
		Updates: updates,
		Mutate: func(shard int, st *ir.State) []switchsim.Update {
			st.Vecs["backends"] = append([]uint64(nil), vec...)
			if drain || connTable == "" {
				return nil
			}
			// Purge this shard's connections pinned to removed backends;
			// the deletions ride the same flip as the new pool.
			var dels []switchsim.Update
			for k, v := range st.Maps[connTable] {
				if len(v) > 0 && !keep[v[0]] {
					st.MapRemove(connTable, k)
					if connOffloaded {
						dels = append(dels, switchsim.Update{Table: connTable, Key: k, Delete: true})
					}
				}
			}
			return dels
		},
	}, nil
}

// NATRepartition re-splits the NAT's external-port space across the
// engine's shards. The allocator global stays server-only (partition rule
// 7: reads of server-written globals never offload), so the change is
// pure per-shard state — but it still rides the engine's reconfiguration
// barrier, so no shard allocates from a half-moved range.
type NATRepartition struct {
	// At addresses the pipeline stage (0 = first).
	At int
	// Bases gives each shard's first external port, one per shard, in
	// shard order. Nil means an even split of the 16-bit port space.
	Bases []uint16
}

// Stage implements Op.
func (o NATRepartition) Stage() int { return o.At }

// natPortGlobal is the NAT's monotonic external-port allocator.
const natPortGlobal = "next_port"

func (o NATRepartition) compile(t Target, workers int) (engine.Reconfig, error) {
	prog := t.program()
	if prog == nil {
		return engine.Reconfig{}, fmt.Errorf("ctlplane: stage %q has no compiled program", t.Name)
	}
	g := prog.Global(natPortGlobal)
	if g == nil || g.Kind != ir.KindScalar {
		return engine.Reconfig{}, fmt.Errorf("ctlplane: stage %q is not a NAT (no scalar global %q)", t.Name, natPortGlobal)
	}
	if t.offloaded(natPortGlobal) {
		// A switch-resident allocator is a single register — there is no
		// per-shard copy to repartition (and rule 7 keeps it server-side
		// for every compiled NAT anyway).
		return engine.Reconfig{}, fmt.Errorf("ctlplane: %q is switch-resident; per-shard repartitioning needs a server-owned allocator", natPortGlobal)
	}
	bases := o.Bases
	if bases == nil {
		bases = make([]uint16, workers)
		for i := range bases {
			bases[i] = uint16(i * (65536 / workers))
		}
	}
	if len(bases) != workers {
		return engine.Reconfig{}, fmt.Errorf("ctlplane: %d port bases for %d shards", len(bases), workers)
	}
	return engine.Reconfig{
		Mutate: func(shard int, st *ir.State) []switchsim.Update {
			st.Globals[natPortGlobal] = uint64(bases[shard])
			return nil
		},
	}, nil
}

// FlowTableUpdate retunes the session's flow-state lifecycle live:
// capacity, protocol timeouts, and eviction policy take effect at the
// reconfiguration barrier — atomically with respect to packet
// processing — and a session opened without WithFlowTable can be armed
// mid-run this way. The lifecycle is engine-wide, so the op carries no
// stage address.
type FlowTableUpdate struct {
	// Table is the complete new flow-table config (zero timeout fields
	// select the defaults, as at open time).
	Table flowstate.Config
}

// Stage implements Op. The lifecycle is engine-wide; stage 0 is only
// the compile-time anchor.
func (o FlowTableUpdate) Stage() int { return 0 }

func (o FlowTableUpdate) compile(t Target, workers int) (engine.Reconfig, error) {
	if err := o.Table.Validate(); err != nil {
		return engine.Reconfig{}, fmt.Errorf("ctlplane: flow table: %w", err)
	}
	cfg := o.Table
	return engine.Reconfig{FlowTable: &cfg}, nil
}

// TableReplace is the generic escape hatch: it atomically replaces one
// named map's entire content on every shard (and, when the table is
// offloaded, on the switch). The typed ops above are preferred — they
// validate middlebox semantics — but tests and unanticipated middleboxes
// can reach the same flip through this.
type TableReplace struct {
	// At addresses the pipeline stage (0 = first).
	At      int
	Table   string
	Entries map[ir.MapKey][]uint64
}

// Stage implements Op.
func (o TableReplace) Stage() int { return o.At }

func (o TableReplace) compile(t Target, workers int) (engine.Reconfig, error) {
	prog := t.program()
	if prog == nil {
		return engine.Reconfig{}, fmt.Errorf("ctlplane: stage %q has no compiled program", t.Name)
	}
	g := prog.Global(o.Table)
	if g == nil || g.Kind != ir.KindMap {
		return engine.Reconfig{}, fmt.Errorf("ctlplane: stage %q has no map %q", t.Name, o.Table)
	}
	if g.MaxEntries > 0 && len(o.Entries) > g.MaxEntries {
		return engine.Reconfig{}, fmt.Errorf("ctlplane: %d entries exceed %q's annotated max %d", len(o.Entries), o.Table, g.MaxEntries)
	}
	arity := uint8(len(g.KeyTypes))
	for k := range o.Entries {
		if k.N != arity {
			return engine.Reconfig{}, fmt.Errorf("ctlplane: key arity %d does not match %q's %d-part key", k.N, o.Table, arity)
		}
	}
	var updates []switchsim.Update
	if t.offloaded(o.Table) {
		updates = append(updates, switchsim.Update{Table: o.Table, Replace: true, Entries: o.Entries})
	}
	table := o.Table
	entries := o.Entries
	return engine.Reconfig{
		Updates: updates,
		Mutate: func(shard int, st *ir.State) []switchsim.Update {
			fresh := make(map[ir.MapKey][]uint64, len(entries))
			for k, v := range entries {
				fresh[k] = append([]uint64(nil), v...)
			}
			st.ReplaceMap(table, fresh)
			return nil
		},
	}, nil
}
