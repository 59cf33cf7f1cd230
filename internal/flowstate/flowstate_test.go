package flowstate

import (
	"reflect"
	"testing"
	"time"

	"gallium/internal/ir"
	"gallium/internal/packet"
)

// newState builds the state of a program declaring one-word-key,
// one-word-value maps of the given names.
func newState(tables ...string) *ir.State {
	p := &ir.Program{}
	for _, n := range tables {
		p.Globals = append(p.Globals, &ir.Global{Name: n, Kind: ir.KindMap, KeyTypes: []ir.Type{ir.U64}, ValTypes: []ir.Type{ir.U64}})
	}
	return ir.NewState(p)
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"good", Config{Capacity: 100}, true},
		{"zero capacity", Config{}, false},
		{"negative capacity", Config{Capacity: -1}, false},
		{"negative timeout", Config{Capacity: 1, UDPTimeout: -time.Second}, false},
		{"negative tcp", Config{Capacity: 1, TCPTimeouts: TCPTimeouts{Syn: -1}}, false},
		{"syn exceeds established", Config{Capacity: 1,
			TCPTimeouts: TCPTimeouts{Syn: time.Hour, Established: time.Minute}}, false},
		{"fin exceeds established", Config{Capacity: 1,
			TCPTimeouts: TCPTimeouts{Fin: time.Hour, Established: time.Minute}}, false},
		{"unknown policy", Config{Capacity: 1, EvictPolicy: EvictPolicy(7)}, false},
		{"explicit none policy", Config{Capacity: 1, EvictPolicy: EvictNone}, true},
		{"barrier-only sweeps", Config{Capacity: 1, SweepEvery: -1}, false},
		{"negative sweep limit", Config{Capacity: 1, SweepLimit: -1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("want valid, got %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("want error, got nil")
			}
		})
	}
}

func TestNormalizedDefaults(t *testing.T) {
	n := Config{Capacity: 10}.Normalized()
	want := Config{
		Capacity: 10,
		TCPTimeouts: TCPTimeouts{
			Syn: DefaultSynTimeout, Established: DefaultEstablishedTimeout, Fin: DefaultFinTimeout,
		},
		UDPTimeout: DefaultUDPTimeout,
		SweepEvery: DefaultSweepEvery,
		SweepLimit: DefaultSweepLimit,
	}
	if n != want {
		t.Fatalf("Normalized = %+v, want %+v", n, want)
	}
}

func TestShardSplitsCapacity(t *testing.T) {
	c := Config{Capacity: 10}
	if got := c.Shard(1).Capacity; got != 10 {
		t.Fatalf("1 worker: %d, want 10", got)
	}
	if got := c.Shard(4).Capacity; got != 3 { // ceil(10/4)
		t.Fatalf("4 workers: %d, want 3", got)
	}
	if got := c.Shard(3).Capacity; got != 4 { // ceil(10/3)
		t.Fatalf("3 workers: %d, want 4", got)
	}
}

func TestClassOf(t *testing.T) {
	tcp := func(flags uint8) *packet.Packet {
		p := &packet.Packet{HasTCP: true}
		p.TCP.Flags = flags
		return p
	}
	cases := []struct {
		name string
		p    *packet.Packet
		want Class
	}{
		{"nil", nil, ClassOther},
		{"syn", tcp(packet.TCPFlagSYN), ClassTCPSyn},
		{"syn-ack", tcp(packet.TCPFlagSYN | packet.TCPFlagACK), ClassTCPEst},
		{"ack", tcp(packet.TCPFlagACK), ClassTCPEst},
		{"fin", tcp(packet.TCPFlagFIN | packet.TCPFlagACK), ClassTCPFin},
		{"rst", tcp(packet.TCPFlagRST), ClassTCPFin},
		{"udp", &packet.Packet{HasUDP: true}, ClassUDP},
		{"bare ip", &packet.Packet{}, ClassOther},
	}
	for _, tc := range cases {
		if got := ClassOf(tc.p); got != tc.want {
			t.Errorf("%s: ClassOf = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestParseEvictPolicy(t *testing.T) {
	if p, ok := ParseEvictPolicy("lru"); !ok || p != EvictLRU {
		t.Fatalf("lru: %v %v", p, ok)
	}
	if p, ok := ParseEvictPolicy("none"); !ok || p != EvictNone {
		t.Fatalf("none: %v %v", p, ok)
	}
	if _, ok := ParseEvictPolicy("fifo"); ok {
		t.Fatalf("fifo parsed")
	}
}

// TestSweepExpiry: entries idle past their class timeout are removed;
// fresh ones survive. The stamping rides State.MapInsert/MapFind.
func TestSweepExpiry(t *testing.T) {
	st := newState("conns")
	tr := NewTracker(Config{Capacity: 100, UDPTimeout: 30 * time.Second}, st, []string{"conns"})

	st.Class = uint8(ClassUDP)
	st.NowNs = 0
	st.MapInsert("conns", ir.MakeMapKey(1), []uint64{1})
	st.NowNs = int64(25 * time.Second)
	st.MapInsert("conns", ir.MakeMapKey(2), []uint64{2})

	// At t=31s key 1 is 31s idle (expired), key 2 is 6s idle (alive).
	rm := tr.Sweep(int64(31*time.Second), true)
	if len(rm) != 1 || rm[0].Key != ir.MakeMapKey(1) || rm[0].Evicted {
		t.Fatalf("removals = %+v, want timeout of key 1", rm)
	}
	if _, ok := st.MapFind("conns", ir.MakeMapKey(2)); !ok {
		t.Fatalf("fresh entry swept")
	}
	s := tr.Stats()
	if s.Expired != 1 || s.Evicted != 0 || s.Occupancy != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestSweepTouchRefreshes: a MapFind hit re-stamps the entry, deferring
// expiry.
func TestSweepTouchRefreshes(t *testing.T) {
	st := newState("conns")
	tr := NewTracker(Config{Capacity: 100, UDPTimeout: 30 * time.Second}, st, []string{"conns"})

	st.Class = uint8(ClassUDP)
	st.NowNs = 0
	st.MapInsert("conns", ir.MakeMapKey(1), []uint64{1})
	st.NowNs = int64(20 * time.Second)
	st.MapFind("conns", ir.MakeMapKey(1)) // hit refreshes the stamp

	if rm := tr.Sweep(int64(40*time.Second), true); len(rm) != 0 {
		t.Fatalf("refreshed entry expired: %+v", rm)
	}
	if rm := tr.Sweep(int64(51*time.Second), true); len(rm) != 1 {
		t.Fatalf("idle entry survived: %+v", rm)
	}
}

// TestSweepClassTimeouts: half-open TCP expires on the SYN timeout while
// an established flow of the same age survives.
func TestSweepClassTimeouts(t *testing.T) {
	st := newState("conns")
	tr := NewTracker(Config{Capacity: 100}, st, []string{"conns"}) // defaults: syn 5s, est 5m

	st.NowNs = 0
	st.Class = uint8(ClassTCPSyn)
	st.MapInsert("conns", ir.MakeMapKey(1), []uint64{1})
	st.Class = uint8(ClassTCPEst)
	st.MapInsert("conns", ir.MakeMapKey(2), []uint64{2})

	rm := tr.Sweep(int64(6*time.Second), true)
	if len(rm) != 1 || rm[0].Key != ir.MakeMapKey(1) {
		t.Fatalf("removals = %+v, want half-open key 1 only", rm)
	}
	if _, ok := st.MapFind("conns", ir.MakeMapKey(2)); !ok {
		t.Fatalf("established flow expired on SYN timeout")
	}
}

// TestSweepAdoptsUnstampedEntries: state seeded before arming carries no
// stamp; the first sweep adopts it as touched-now instead of expiring it.
func TestSweepAdoptsUnstampedEntries(t *testing.T) {
	st := newState("conns")
	st.MapInsert("conns", ir.MakeMapKey(9), []uint64{9}) // seeded pre-arming
	tr := NewTracker(Config{Capacity: 100, UDPTimeout: 30 * time.Second}, st, []string{"conns"})

	if rm := tr.Sweep(int64(time.Hour), true); len(rm) != 0 {
		t.Fatalf("adopted entry expired immediately: %+v", rm)
	}
	// Adopted at t=1h as ClassOther; idle past UDPTimeout it now expires.
	if rm := tr.Sweep(int64(time.Hour+31*time.Second), true); len(rm) != 1 {
		t.Fatalf("adopted entry never expires: %+v", rm)
	}
}

// TestSweepLRUEviction: a full sweep over capacity evicts exactly the
// least-recently-touched entries, deterministically.
func TestSweepLRUEviction(t *testing.T) {
	st := newState("conns")
	tr := NewTracker(Config{Capacity: 2, UDPTimeout: time.Hour}, st, []string{"conns"})

	st.Class = uint8(ClassUDP)
	for i, at := range []int64{30, 10, 20, 40} { // keys 0..3 touched at these ns
		st.NowNs = at
		st.MapInsert("conns", ir.MakeMapKey(uint64(i)), []uint64{1})
	}
	rm := tr.Sweep(50, true)
	if len(rm) != 2 {
		t.Fatalf("removals = %+v, want 2 evictions", rm)
	}
	// Oldest first: key 1 (t=10), then key 2 (t=20).
	want := []ir.MapKey{ir.MakeMapKey(1), ir.MakeMapKey(2)}
	got := []ir.MapKey{rm[0].Key, rm[1].Key}
	if !reflect.DeepEqual(got, want) || !rm[0].Evicted || !rm[1].Evicted {
		t.Fatalf("evicted %+v, want %+v (oldest first)", rm, want)
	}
	s := tr.Stats()
	if s.Evicted != 2 || s.Occupancy != 2 || s.Peak != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestSweepEvictNone: EvictNone reports occupancy above capacity without
// removing anything.
func TestSweepEvictNone(t *testing.T) {
	st := newState("conns")
	tr := NewTracker(Config{Capacity: 1, UDPTimeout: time.Hour, EvictPolicy: EvictNone},
		st, []string{"conns"})
	st.Class = uint8(ClassUDP)
	for i := 0; i < 5; i++ {
		st.MapInsert("conns", ir.MakeMapKey(uint64(i)), []uint64{1})
	}
	if rm := tr.Sweep(1, true); len(rm) != 0 {
		t.Fatalf("EvictNone removed entries: %+v", rm)
	}
	if s := tr.Stats(); s.Occupancy != 5 {
		t.Fatalf("occupancy = %d, want 5", s.Occupancy)
	}
}

// TestIncrementalSweepBudget: an incremental sweep removes at most
// SweepLimit entries per call, oldest first, and repeated calls converge.
func TestIncrementalSweepBudget(t *testing.T) {
	st := newState("conns")
	tr := NewTracker(Config{Capacity: 1000, UDPTimeout: time.Second, SweepLimit: 10},
		st, []string{"conns"})
	st.Class = uint8(ClassUDP)
	for i := 0; i < 100; i++ {
		st.NowNs = int64(i)
		st.MapInsert("conns", ir.MakeMapKey(uint64(i)), []uint64{1})
	}
	now := int64(2 * time.Second) // everything is stale
	for call := 0; call < 10; call++ {
		rm := tr.Sweep(now, false)
		if len(rm) != 10 {
			t.Fatalf("sweep %d removed %d entries, want the budget of 10", call, len(rm))
		}
		for i, r := range rm {
			if want := ir.MakeMapKey(uint64(call*10 + i)); r.Key != want || r.Evicted {
				t.Fatalf("sweep %d removal %d = %+v, want timeout of key %v", call, i, r, want)
			}
		}
	}
	if rm := tr.Sweep(now, false); len(rm) != 0 {
		t.Fatalf("sweep after convergence removed %+v", rm)
	}
	if s := tr.Stats(); s.Expired != 100 || s.Occupancy != 0 {
		t.Fatalf("stats = %+v, want 100 expired, empty", s)
	}
}

// TestIncrementalSweepEvictsGlobalLRU: with two tracked tables over
// capacity, one default-budget incremental sweep evicts exactly the
// least recently touched entries — all of them from the older table,
// in touch order, none picked because its table happened to come first.
func TestIncrementalSweepEvictsGlobalLRU(t *testing.T) {
	st := newState("a_old", "b_new")
	// "b_new" sorts after "a_old" but is listed first: order is by name.
	tr := NewTracker(Config{Capacity: 8192, UDPTimeout: time.Hour}, st, []string{"b_new", "a_old"})
	st.Class = uint8(ClassUDP)
	const per = 6000
	for i := 0; i < per; i++ {
		st.NowNs = int64(i)
		st.MapInsert("a_old", ir.MakeMapKey(uint64(i)), []uint64{1})
	}
	for i := 0; i < per; i++ {
		st.NowNs = int64(per + i)
		st.MapInsert("b_new", ir.MakeMapKey(uint64(i)), []uint64{1})
	}
	rm := tr.Sweep(2*per, false)
	if want := 2*per - 8192; len(rm) != want {
		t.Fatalf("evicted %d entries, want %d", len(rm), want)
	}
	for i, r := range rm {
		if r.Table != "a_old" || r.Key != ir.MakeMapKey(uint64(i)) || !r.Evicted {
			t.Fatalf("removal %d = %+v, want eviction of a_old key %d", i, r, i)
		}
	}
	if st.Table("b_new").Len() != per || st.Table("a_old").Len() != 8192-per {
		t.Fatalf("tables hold %d + %d entries", st.Table("a_old").Len(), st.Table("b_new").Len())
	}
	if s := tr.Stats(); s.Occupancy != 8192 || s.Evicted != uint64(len(rm)) {
		t.Fatalf("stats = %+v", s)
	}
}

// TestTouchOrderIsCanonical: the lists, and so the eviction order, depend
// only on (touch, table, key) — not on the order entries were touched in
// within one timestamp, nor on timestamps arriving out of order.
func TestTouchOrderIsCanonical(t *testing.T) {
	type touch struct {
		table string
		key   uint64
		at    int64
	}
	touches := []touch{
		{"x", 3, 20}, {"y", 1, 10}, {"x", 1, 10}, {"x", 2, 10}, {"y", 2, 5}, {"x", 4, 10},
	}
	want := []touch{{"y", 2, 5}, {"x", 1, 10}, {"x", 2, 10}, {"x", 4, 10}, {"y", 1, 10}, {"x", 3, 20}}
	for rot := range touches {
		st := newState("x", "y")
		tr := NewTracker(Config{Capacity: 1, UDPTimeout: time.Hour}, st, []string{"x", "y"})
		st.Class = uint8(ClassUDP)
		for i := range touches {
			tc := touches[(i+rot)%len(touches)]
			st.NowNs = tc.at
			st.MapInsert(tc.table, ir.MakeMapKey(tc.key), []uint64{1})
		}
		// Re-touch one entry at its old time from a different position.
		st.NowNs = 10
		st.MapFind("x", ir.MakeMapKey(1))
		rm := tr.Sweep(30, true)
		if len(rm) != len(want)-1 {
			t.Fatalf("rotation %d: %d removals, want %d", rot, len(rm), len(want)-1)
		}
		for i, r := range rm {
			if r.Table != want[i].table || r.Key != ir.MakeMapKey(want[i].key) {
				t.Fatalf("rotation %d: removal %d = %s %v, want %s %d", rot, i, r.Table, r.Key, want[i].table, want[i].key)
			}
		}
	}
}

// TestReplaceMapForgetsOldKeys: a control-plane table swap through the
// state drops the old entries' records; the new entries, which the swap
// writes without telling the lifecycle (here one written the same way,
// Table.Put, into the emptied table), are adopted by the next sweep and
// age from there.
func TestReplaceMapForgetsOldKeys(t *testing.T) {
	st := newState("conns")
	tr := NewTracker(Config{Capacity: 100, UDPTimeout: 30 * time.Second}, st, []string{"conns"})
	st.Class = uint8(ClassUDP)
	st.MapInsert("conns", ir.MakeMapKey(1), []uint64{1})
	st.MapInsert("conns", ir.MakeMapKey(2), []uint64{2})
	st.ReplaceMap("conns", nil)
	k := ir.MakeMapKey(7)
	st.Table("conns").Put(&k, []uint64{7})

	// Keys 1 and 2 would be a minute idle here, had their records survived.
	if rm := tr.Sweep(int64(time.Minute), true); len(rm) != 0 {
		t.Fatalf("sweep after replace removed %+v", rm)
	}
	if s := tr.Stats(); s.Occupancy != 1 {
		t.Fatalf("occupancy = %d, want the one new entry", s.Occupancy)
	}
	rm := tr.Sweep(int64(time.Minute+31*time.Second), true)
	if len(rm) != 1 || rm[0].Key != ir.MakeMapKey(7) {
		t.Fatalf("removals = %+v, want timeout of adopted key 7", rm)
	}
}

// TestSweepAllocsIndependentOfOccupancy: a steady-state incremental sweep
// allocates nothing — the removal list it returns is the tracker's own,
// reused — and the inserts feeding it nothing either once the table has
// grown.
func TestSweepAllocsIndependentOfOccupancy(t *testing.T) {
	const over = 512
	vals := []uint64{1} // shared, so an insert allocates nothing itself
	for _, resident := range []int{8192, 65536} {
		st := newState("conns")
		tr := NewTracker(Config{Capacity: resident, UDPTimeout: time.Hour}, st, []string{"conns"})
		st.Class = uint8(ClassUDP)
		next := uint64(0)
		fill := func(n int) {
			for i := 0; i < n; i++ {
				st.NowNs++
				st.MapInsert("conns", ir.MakeMapKey(next), vals)
				next++
			}
		}
		fill(resident)
		allocs := testing.AllocsPerRun(50, func() {
			fill(over)
			if rm := tr.Sweep(st.NowNs, false); len(rm) != over {
				t.Fatalf("resident %d: sweep removed %d, want %d", resident, len(rm), over)
			}
		})
		if allocs > 0 {
			t.Errorf("resident %d: %.1f allocs per %d inserts + sweep, want 0", resident, allocs, over)
		}
	}
}

// TestSetConfigPreservesCounters: live retune keeps the counters and
// applies the new timeouts.
func TestSetConfigPreservesCounters(t *testing.T) {
	st := newState("conns")
	tr := NewTracker(Config{Capacity: 10, UDPTimeout: time.Second}, st, []string{"conns"})
	st.Class = uint8(ClassUDP)
	st.NowNs = 0
	st.MapInsert("conns", ir.MakeMapKey(1), []uint64{1})
	tr.Sweep(int64(2*time.Second), true)
	if tr.Stats().Expired != 1 {
		t.Fatalf("setup sweep: %+v", tr.Stats())
	}

	tr.SetConfig(Config{Capacity: 10, UDPTimeout: time.Hour})
	st.NowNs = int64(3 * time.Second)
	st.MapInsert("conns", ir.MakeMapKey(2), []uint64{2})
	if rm := tr.Sweep(int64(10*time.Second), true); len(rm) != 0 {
		t.Fatalf("entry expired under retuned 1h timeout: %+v", rm)
	}
	if s := tr.Stats(); s.Expired != 1 {
		t.Fatalf("retune lost counters: %+v", s)
	}
}
