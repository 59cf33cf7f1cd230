package ir

import (
	"bytes"
	"fmt"
	"maps"
	"slices"

	"gallium/internal/packet"
)

// This file implements the reference interpreter. Its behaviour on the
// input program *defines* functional equivalence: the partitioned pipeline
// (switch simulator + server runtime) must produce the same packet outputs
// and the same final state as this interpreter fed the same trace.

// Action is the disposition of a packet after executing a function.
type Action uint8

// Packet dispositions.
const (
	// ActionSent means the packet was forwarded.
	ActionSent Action = iota
	// ActionDropped means the packet was discarded.
	ActionDropped
	// ActionNext means this partition finished its work without reaching
	// a terminator it owns; the packet proceeds to the next stage of the
	// offloaded pipeline. The reference interpreter never returns it.
	ActionNext
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case ActionSent:
		return "sent"
	case ActionDropped:
		return "dropped"
	case ActionNext:
		return "next"
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// MapKey is a comparable composite map key of up to 8 components —
// enough for an IPv6 seven-tuple (four 64-bit address halves, two ports,
// next header) with one slot to spare.
type MapKey struct {
	K [8]uint64
	N uint8
}

// MakeMapKey builds a key from component values.
func MakeMapKey(vals ...uint64) MapKey {
	var k MapKey
	if len(vals) > len(k.K) {
		panic(fmt.Sprintf("ir: map key arity %d exceeds max %d", len(vals), len(k.K)))
	}
	for i, v := range vals {
		k.K[i] = v
	}
	k.N = uint8(len(vals))
	return k
}

// LpmEntry is one longest-prefix-match rule: Key's top PrefixLen bits
// must match the lookup key's top bits.
type LpmEntry struct {
	Key       uint64
	PrefixLen int // 0..32 (keys are 32-bit for IPv4 prefixes)
	Vals      []uint64
}

func (e LpmEntry) equal(o LpmEntry) bool {
	return e.Key == o.Key && e.PrefixLen == o.PrefixLen && slices.Equal(e.Vals, o.Vals)
}

// Matches reports whether key falls under the entry's prefix.
func (e LpmEntry) Matches(key uint64) bool {
	if e.PrefixLen <= 0 {
		return true
	}
	shift := 32 - e.PrefixLen
	return key>>shift == e.Key>>shift
}

// State is the middlebox's global state.
type State struct {
	// Tables holds the map globals' tables, indexed like Program.Globals
	// (nil at the other kinds' indices).
	Tables  []*Table
	Vecs    map[string][]uint64
	Globals map[string]uint64
	Lpms    map[string][]LpmEntry

	// Life, when set (by the flow-state tracker, internal/flowstate),
	// hears of every find hit, insert and Touch with NowNs and Class, and
	// of every removal. Unarmed state pays one nil check per access. It is
	// runtime scaffolding, not middlebox state: Clone leaves it behind and
	// Equal ignores it.
	Life Lifecycle
	// NowNs and Class are the current packet's virtual time and
	// traffic class, set by the runtime before each packet executes.
	NowNs int64
	Class uint8
}

// Lifecycle is what a State tells of its map entries' comings and goings,
// naming each by table and index.
type Lifecycle interface {
	// Touch: entry e was found or written at nowNs by a packet of class.
	Touch(t *Table, e int32, nowNs int64, class uint8)
	// Forget: entry e is about to be removed.
	Forget(t *Table, e int32)
}

// NewState initializes empty state for the program's globals.
func NewState(p *Program) *State {
	s := &State{
		Tables:  make([]*Table, len(p.Globals)),
		Vecs:    map[string][]uint64{},
		Globals: map[string]uint64{},
		Lpms:    map[string][]LpmEntry{},
	}
	for gi, g := range p.Globals {
		switch g.Kind {
		case KindMap:
			s.Tables[gi] = newTable(g)
		case KindVec:
			s.Vecs[g.Name] = nil
		case KindScalar:
			s.Globals[g.Name] = 0
		case KindLPM:
			s.Lpms[g.Name] = nil
		}
	}
	return s
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	c := &State{
		Tables:  make([]*Table, len(s.Tables)),
		Vecs:    make(map[string][]uint64, len(s.Vecs)),
		Globals: maps.Clone(s.Globals),
		Lpms:    make(map[string][]LpmEntry, len(s.Lpms)),
		NowNs:   s.NowNs,
		Class:   s.Class,
	}
	for gi, t := range s.Tables {
		if t != nil {
			ct := *t
			ct.words, ct.index = slices.Clone(t.words), slices.Clone(t.index)
			c.Tables[gi] = &ct
		}
	}
	for name, v := range s.Vecs {
		c.Vecs[name] = slices.Clone(v)
	}
	for name, es := range s.Lpms {
		cp := make([]LpmEntry, len(es))
		for i, e := range es {
			cp[i] = LpmEntry{Key: e.Key, PrefixLen: e.PrefixLen, Vals: slices.Clone(e.Vals)}
		}
		c.Lpms[name] = cp
	}
	return c
}

// Equal reports whether two states of one program hold identical
// contents.
func (s *State) Equal(o *State) bool {
	return slices.EqualFunc(s.Tables, o.Tables, (*Table).equal) && maps.Equal(s.Globals, o.Globals) &&
		maps.EqualFunc(s.Vecs, o.Vecs, slices.Equal[[]uint64]) &&
		maps.EqualFunc(s.Lpms, o.Lpms, func(a, b []LpmEntry) bool { return slices.EqualFunc(a, b, LpmEntry.equal) })
}

// Table returns the named map global's table, or nil.
func (s *State) Table(name string) *Table { return s.tableAt(s.tableIndex(name)) }

func (s *State) tableAt(g int) *Table {
	if uint(g) < uint(len(s.Tables)) {
		return s.Tables[g]
	}
	return nil
}

func (s *State) tableIndex(name string) int {
	for gi, t := range s.Tables {
		if t != nil && t.name == name {
			return gi
		}
	}
	return -1
}

// The accessors below are how the interpreter (by name) and the server
// (by global index) reach the state; the switch has its own PlanState.

// FindAt looks key up in map global g, returning the table's own words.
func (s *State) FindAt(g int, key *MapKey) ([]uint64, bool) {
	t := s.tableAt(g)
	e := t.Find(key)
	if e < 0 {
		return nil, false
	}
	if s.Life != nil {
		s.Life.Touch(t, e, s.NowNs, s.Class)
	}
	return t.Vals(e), true
}

// InsertAt stores a copy of vals under key in map global g.
func (s *State) InsertAt(g int, key *MapKey, vals []uint64) error {
	t := s.tableAt(g)
	if t == nil {
		return fmt.Errorf("ir: insert into global %d, which is no map", g)
	}
	e, err := t.Put(key, vals)
	if err == nil && s.Life != nil {
		s.Life.Touch(t, e, s.NowNs, s.Class)
	}
	return err
}

// RemoveAt deletes key from map global g.
func (s *State) RemoveAt(g int, key *MapKey) error {
	t := s.tableAt(g)
	if e := t.Find(key); e >= 0 {
		if s.Life != nil {
			s.Life.Forget(t, e)
		}
		t.Delete(e)
	}
	return nil
}

// MapFind looks key up in the named map.
func (s *State) MapFind(name string, key MapKey) ([]uint64, bool) {
	return s.FindAt(s.tableIndex(name), &key)
}

// MapInsert stores a copy of vals under key in the named map.
func (s *State) MapInsert(name string, key MapKey, vals []uint64) error {
	return s.InsertAt(s.tableIndex(name), &key, vals)
}

// MapRemove deletes key from the named map.
func (s *State) MapRemove(name string, key MapKey) error {
	return s.RemoveAt(s.tableIndex(name), &key)
}

// ReplaceMap makes fresh the named map's whole contents (control-plane
// path), copying its values; an entry of another shape than the
// declaration's, which the control plane refuses earlier, is dropped.
func (s *State) ReplaceMap(name string, fresh map[MapKey][]uint64) {
	g := s.tableIndex(name)
	t := s.tableAt(g)
	if t == nil {
		return
	}
	t.Range(func(e int32) bool {
		k := t.Key(e)
		s.RemoveAt(g, &k)
		return true
	})
	for k, v := range fresh {
		_, _ = t.Put(&k, v)
	}
}

// Touch reports an existing entry as live at the state's current
// NowNs/Class. It is a no-op unless a lifecycle is armed and the key
// present; the switch fast path uses it to record liveness for entries
// it serves without a server round trip.
func (s *State) Touch(name string, key MapKey) {
	if s.Life != nil {
		s.FindAt(s.tableIndex(name), &key)
	}
}

// VecGet reads one element of the named vector.
func (s *State) VecGet(name string, idx uint64) (uint64, error) {
	vec := s.Vecs[name]
	if idx >= uint64(len(vec)) {
		return 0, fmt.Errorf("ir: vector %q index %d out of range (len %d)", name, idx, len(vec))
	}
	return vec[idx], nil
}

// VecLen reports the named vector's length.
func (s *State) VecLen(name string) uint64 { return uint64(len(s.Vecs[name])) }

// GlobalLoad reads the named scalar.
func (s *State) GlobalLoad(name string) uint64 { return s.Globals[name] }

// GlobalStore writes the named scalar.
func (s *State) GlobalStore(name string, v uint64) error {
	s.Globals[name] = v
	return nil
}

// LpmFind looks key up in the named LPM table: longest matching prefix wins.
func (s *State) LpmFind(name string, key uint64) ([]uint64, bool) {
	return LongestPrefix(s.Lpms[name], key)
}

// LongestPrefix returns the value tuple of the longest entry matching key.
func LongestPrefix(entries []LpmEntry, key uint64) ([]uint64, bool) {
	best := -1
	var vals []uint64
	for _, e := range entries {
		if e.Matches(key) && e.PrefixLen > best {
			best = e.PrefixLen
			vals = e.Vals
		}
	}
	return vals, best >= 0
}

// AddRoute appends an LPM entry (configuration/control-plane path).
func (s *State) AddRoute(name string, key uint64, prefixLen int, vals ...uint64) {
	s.Lpms[name] = append(s.Lpms[name], LpmEntry{Key: key, PrefixLen: prefixLen, Vals: vals})
}

// Env is the execution context for one packet through one function.
type Env struct {
	// State is what the reference interpreter executes against; Plan.Exec
	// takes its state as an argument and ignores it.
	State *State
	Pkt   *packet.Packet
	// Xfer is the flat transfer-variable scratchpad for partitioned
	// functions, indexed by the compile-time slot of each XferLoad/
	// XferStore (Instr.Slot, 1-based); nil for the reference program.
	// Callers reusing an Env across packets clear it between packets.
	Xfer []uint64
	// Regs, when its capacity suffices, is reused as the virtual-register
	// file instead of allocating one per ExecFunc call. ExecFunc stores
	// the (possibly grown) buffer back, so a pooled Env converges to
	// zero-allocation execution.
	Regs []uint64
	// key and vals are the scratch map key and value tuple Plan.Exec
	// builds map operations in.
	key  MapKey
	vals []uint64
}

// regFile returns a zeroed register file of n registers, reusing Regs.
func (e *Env) regFile(n int) []uint64 {
	if cap(e.Regs) < n {
		e.Regs = make([]uint64, n)
		return e.Regs
	}
	regs := e.Regs[:n]
	clear(regs)
	return regs
}

// Result reports what happened to the packet and how much work was done.
type Result struct {
	Action Action
	// Steps is the number of executed statements, the unit the cycle-cost
	// model scales from.
	Steps int
}

// maxSteps bounds a single packet's execution to catch runaway loops.
const maxSteps = 1_000_000

// Exec runs the program's function on one packet, mutating env.State and
// env.Pkt in place.
func (p *Program) Exec(env *Env) (Result, error) {
	return ExecFunc(p, p.Fn, env)
}

// ExecFunc runs fn (the whole program or one partition) against env.
func ExecFunc(p *Program, fn *Function, env *Env) (Result, error) {
	regs := env.regFile(len(fn.Regs))
	blk := fn.Blocks[0]
	steps := 0
	for {
		for i := range blk.Instrs {
			if steps++; steps > maxSteps {
				return Result{}, fmt.Errorf("ir: %s: step limit exceeded (infinite loop?)", fn.Name)
			}
			if err := execInstr(p, fn, &blk.Instrs[i], regs, env); err != nil {
				return Result{}, err
			}
		}
		if steps++; steps > maxSteps {
			return Result{}, fmt.Errorf("ir: %s: step limit exceeded (infinite loop?)", fn.Name)
		}
		t := &blk.Term
		switch t.Kind {
		case Jump:
			blk = fn.Blocks[t.Then]
		case Branch:
			if regs[t.Args[0]] != 0 {
				blk = fn.Blocks[t.Then]
			} else {
				blk = fn.Blocks[t.Else]
			}
		case Send:
			return Result{Action: ActionSent, Steps: steps}, nil
		case Drop:
			return Result{Action: ActionDropped, Steps: steps}, nil
		case ToNext:
			return Result{Action: ActionNext, Steps: steps}, nil
		default:
			return Result{}, fmt.Errorf("ir: %s: bad terminator %s", fn.Name, t.Kind)
		}
	}
}

func execInstr(p *Program, fn *Function, in *Instr, regs []uint64, env *Env) error {
	mask := func(r Reg, v uint64) uint64 { return v & fn.RegType(r).Mask() }
	switch in.Kind {
	case Const:
		regs[in.Dst[0]] = mask(in.Dst[0], in.Imm)
	case BinOp:
		a, b := regs[in.Args[0]], regs[in.Args[1]]
		v, err := evalBinOp(in.Op, a, b)
		if err != nil {
			return fmt.Errorf("ir: stmt %d: %w", in.ID, err)
		}
		regs[in.Dst[0]] = mask(in.Dst[0], v)
	case Not:
		if regs[in.Args[0]] == 0 {
			regs[in.Dst[0]] = 1
		} else {
			regs[in.Dst[0]] = 0
		}
	case Convert:
		regs[in.Dst[0]] = mask(in.Dst[0], regs[in.Args[0]])
	case LoadHeader:
		v, err := env.Pkt.GetField(in.Obj)
		if err != nil {
			return err
		}
		regs[in.Dst[0]] = mask(in.Dst[0], v)
	case StoreHeader:
		if err := env.Pkt.SetField(in.Obj, regs[in.Args[0]]); err != nil {
			return err
		}
	case PayloadMatch:
		pat := in.pat
		if pat == nil {
			// Hand-built IR that skipped Finalize's precompile step.
			pat = []byte(in.Obj)
		}
		if bytes.Contains(env.Pkt.Payload, pat) {
			regs[in.Dst[0]] = 1
		} else {
			regs[in.Dst[0]] = 0
		}
	case Hash:
		regs[in.Dst[0]] = hashValues(regs, in.Args) & U32.Mask()
	case MapFind:
		key := keyOf(regs, in.Args)
		if vals, ok := env.State.MapFind(in.Obj, key); ok {
			regs[in.Dst[0]] = 1
			for i, r := range in.Dst[1:] {
				regs[r] = mask(r, vals[i])
			}
		} else {
			regs[in.Dst[0]] = 0
			for _, r := range in.Dst[1:] {
				regs[r] = 0
			}
		}
	case MapInsert:
		g := p.Global(in.Obj)
		nk := len(g.KeyTypes)
		key := keyOf(regs, in.Args[:nk])
		vals := make([]uint64, len(in.Args)-nk)
		for i, r := range in.Args[nk:] {
			vals[i] = regs[r] & g.ValTypes[i].Mask()
		}
		if err := env.State.MapInsert(in.Obj, key, vals); err != nil {
			return fmt.Errorf("ir: stmt %d: %w", in.ID, err)
		}
	case MapRemove:
		if err := env.State.MapRemove(in.Obj, keyOf(regs, in.Args)); err != nil {
			return fmt.Errorf("ir: stmt %d: %w", in.ID, err)
		}
	case VecGet:
		v, err := env.State.VecGet(in.Obj, regs[in.Args[0]])
		if err != nil {
			return fmt.Errorf("ir: stmt %d: %w", in.ID, err)
		}
		regs[in.Dst[0]] = mask(in.Dst[0], v)
	case VecLen:
		regs[in.Dst[0]] = env.State.VecLen(in.Obj)
	case GlobalLoad:
		regs[in.Dst[0]] = mask(in.Dst[0], env.State.GlobalLoad(in.Obj))
	case GlobalStore:
		g := p.Global(in.Obj)
		if err := env.State.GlobalStore(in.Obj, regs[in.Args[0]]&g.ValTypes[0].Mask()); err != nil {
			return fmt.Errorf("ir: stmt %d: %w", in.ID, err)
		}
	case XferLoad:
		if in.Slot <= 0 || in.Slot > len(env.Xfer) {
			return fmt.Errorf("ir: stmt %d: xferload %q with no transfer context (slot %d, %d slots)", in.ID, in.Obj, in.Slot, len(env.Xfer))
		}
		regs[in.Dst[0]] = mask(in.Dst[0], env.Xfer[in.Slot-1])
	case LpmFind:
		if vals, ok := env.State.LpmFind(in.Obj, regs[in.Args[0]]); ok {
			regs[in.Dst[0]] = 1
			for i, r := range in.Dst[1:] {
				regs[r] = mask(r, vals[i])
			}
		} else {
			regs[in.Dst[0]] = 0
			for _, r := range in.Dst[1:] {
				regs[r] = 0
			}
		}
	case XferStore:
		if in.Slot <= 0 || in.Slot > len(env.Xfer) {
			return fmt.Errorf("ir: stmt %d: xferstore %q with no transfer context (slot %d, %d slots)", in.ID, in.Obj, in.Slot, len(env.Xfer))
		}
		env.Xfer[in.Slot-1] = regs[in.Args[0]]
	default:
		return fmt.Errorf("ir: stmt %d: cannot execute kind %s", in.ID, in.Kind)
	}
	return nil
}

func evalBinOp(op Op, a, b uint64) (uint64, error) {
	switch op {
	case Add:
		return a + b, nil
	case Sub:
		return a - b, nil
	case And:
		return a & b, nil
	case Or:
		return a | b, nil
	case Xor:
		return a ^ b, nil
	case Shl:
		if b >= 64 {
			return 0, nil
		}
		return a << b, nil
	case Shr:
		if b >= 64 {
			return 0, nil
		}
		return a >> b, nil
	case Mul:
		return a * b, nil
	case Div:
		if b == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		return a / b, nil
	case Mod:
		if b == 0 {
			return 0, fmt.Errorf("modulo by zero")
		}
		return a % b, nil
	case Eq:
		return boolVal(a == b), nil
	case Ne:
		return boolVal(a != b), nil
	case Lt:
		return boolVal(a < b), nil
	case Le:
		return boolVal(a <= b), nil
	case Gt:
		return boolVal(a > b), nil
	case Ge:
		return boolVal(a >= b), nil
	}
	return 0, fmt.Errorf("unknown op %s", op)
}

func boolVal(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// keyOf builds a composite key directly from the register file, without
// the intermediate slice MakeMapKey's variadic signature would allocate.
func keyOf(regs []uint64, args []Reg) MapKey {
	var k MapKey
	if len(args) > len(k.K) {
		panic(fmt.Sprintf("ir: map key arity %d exceeds max %d", len(args), len(k.K)))
	}
	for i, r := range args {
		k.K[i] = regs[r]
	}
	k.N = uint8(len(args))
	return k
}

// hashValues computes a deterministic 64-bit FNV-1a hash over the argument
// values. Both the reference interpreter and the switch/server runtimes
// use it, so hashes agree across the partition boundary.
func hashValues(regs []uint64, args []Reg) uint64 {
	h := uint64(fnvOffset)
	for _, r := range args {
		h = fnvMix(h, regs[r])
	}
	return h
}

const fnvOffset = 14695981039346656037

// fnvMix folds v's eight bytes, low byte first, into the FNV-1a hash h.
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v >> (8 * i) & 0xFF
		h *= 1099511628211
	}
	return h
}
