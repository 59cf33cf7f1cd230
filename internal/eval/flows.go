package eval

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"gallium"
	"gallium/internal/flowstate"
	"gallium/internal/packet"
)

// FlowPoint is one snapshot of the flow-state lifecycle during the soak:
// taken at a settle barrier after each feed chunk, when capacity
// enforcement is exact.
type FlowPoint struct {
	// FlowsOffered is the cumulative number of distinct flows injected
	// so far.
	FlowsOffered int
	// Occupancy is the live entry count across all shards at the
	// barrier.
	Occupancy uint64
	// Peak is the high-water occupancy seen so far, including between
	// sweeps.
	Peak uint64
	// Expired / Evicted are the cumulative lifecycle removals.
	Expired uint64
	Evicted uint64
	// HeapAllocBytes is the live heap after a GC at the barrier — the
	// bounded-memory evidence.
	HeapAllocBytes uint64
}

// FlowsReport is the flow-state soak: a middlebox offered far more
// distinct flows than its flow table admits, with the lifecycle (protocol
// timeouts + LRU capacity eviction) keeping live state and memory bounded
// the whole way.
type FlowsReport struct {
	Middlebox string
	Workers   int
	// TotalFlows is the number of distinct five-tuples offered.
	TotalFlows int
	// Capacity is the configured engine-wide flow-table limit.
	Capacity int
	// UDPTimeoutNs is the session timeout the soak opened with. It is
	// deliberately longer than capacity/rate so LRU eviction (not the
	// timeout) bounds the table in the first half.
	UDPTimeoutNs int64
	// RetuneAtFlows is the offered-flow count at which the soak retuned
	// the live session (Session.Reconfigure + FlowTableUpdate) down to
	// RetunedUDPTimeoutNs, short enough that expiry drains the backlog.
	RetuneAtFlows       int
	RetunedUDPTimeoutNs int64
	Points              []FlowPoint
}

// flowFlood offers n distinct single-packet UDP flows, one every
// spacingNs of virtual time, starting at flow index base (so successive
// feed chunks continue the same virtual clock). Flow i's source address
// is unique, which spreads flows across RSS shards and makes every
// packet a slow-path insert into the connection table.
type flowFlood struct {
	base, n   int
	spacingNs int64
}

// Tuples returns nil deliberately: announcing a million five-tuples
// would itself cost the memory the soak is proving bounded, and the
// engine's RSS dispatch hashes per packet.
func (f *flowFlood) Tuples() []packet.FiveTuple { return nil }

func (f *flowFlood) Generate(emit func(int64, *packet.Packet) error) error {
	dst := packet.MakeIPv4Addr(192, 168, 1, 9)
	for i := f.base; i < f.base+f.n; i++ {
		src := packet.MakeIPv4Addr(10, byte(i>>16), byte(i>>8), byte(i))
		p := packet.BuildUDP(src, dst, 4000, 80, nil)
		if err := emit(int64(i)*f.spacingNs, p); err != nil {
			return err
		}
	}
	return nil
}

// FlowSoak floods the L4 load balancer — whose connection table inserts
// one entry per new flow — with distinct flows well past the flow
// table's capacity: 1.2M flows full-size, 150k under -quick. The soak
// has two phases. First half: at one flow per µs the opening UDP
// timeout keeps ~timeout/spacing flows naturally live, above the
// configured capacity, so LRU eviction pins the table at its limit.
// Halfway through, a live FlowTableUpdate retunes the timeout an order
// of magnitude shorter — the natural live window drops below capacity
// and protocol expiry drains the backlog while the flood continues.
// Both lifecycle mechanisms are therefore exercised under load, plus
// the retune path itself. Occupancy is snapshotted at settle barriers
// (where capacity enforcement is exact) along with the post-GC heap.
func FlowSoak(quick bool) (*FlowsReport, error) {
	const name = "l4lb"
	total, capacity := 1_200_000, 32_768
	timeout, retuned := 50*time.Millisecond, 5*time.Millisecond
	if quick {
		total, capacity = 150_000, 8_192
		timeout, retuned = 20*time.Millisecond, 2*time.Millisecond
	}
	const (
		workers   = 8
		spacingNs = int64(1000)
		chunks    = 8
	)
	c, err := CompileOne(name)
	if err != nil {
		return nil, err
	}
	s, err := gallium.Open(c,
		gallium.WithWorkers(workers),
		gallium.WithScenario(),
		gallium.WithFlowTable(gallium.FlowTable{
			Capacity:   capacity,
			UDPTimeout: timeout,
		}),
	)
	if err != nil {
		return nil, err
	}
	rep := &FlowsReport{
		Middlebox: name, Workers: workers,
		TotalFlows: total, Capacity: capacity,
		UDPTimeoutNs:        int64(timeout),
		RetuneAtFlows:       total / 2,
		RetunedUDPTimeoutNs: int64(retuned),
	}
	per := total / chunks
	for k := 0; k < chunks; k++ {
		if k*per == rep.RetuneAtFlows {
			err := s.Reconfigure(gallium.FlowTableUpdate{
				Table: gallium.FlowTable{Capacity: capacity, UDPTimeout: retuned},
			})
			if err != nil {
				return nil, err
			}
		}
		n := per
		if k == chunks-1 {
			n = total - k*per
		}
		if err := s.Feed(&flowFlood{base: k * per, n: n, spacingNs: spacingNs}); err != nil {
			return nil, err
		}
		st, err := s.Stats()
		if err != nil {
			return nil, err
		}
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		rep.Points = append(rep.Points, FlowPoint{
			FlowsOffered:   k*per + n,
			Occupancy:      st.Flow.Occupancy,
			Peak:           st.Flow.Peak,
			Expired:        st.Flow.Expired,
			Evicted:        st.Flow.Evicted,
			HeapAllocBytes: m.HeapAlloc,
		})
	}
	if _, err := s.Close(); err != nil {
		return nil, err
	}
	return rep, nil
}

// ValidateFlows checks the soak's invariants: more flows offered than
// the table admits, occupancy at or under capacity at every barrier,
// a bounded high-water mark (capacity plus at most one sweep limit of
// slack per worker), both lifecycle mechanisms actually exercised,
// monotone cumulative counters, and a live heap that never grew to
// per-offered-flow size.
func ValidateFlows(rep *FlowsReport) error {
	if len(rep.Points) == 0 {
		return fmt.Errorf("flows report has no points")
	}
	if rep.Capacity <= 0 || rep.TotalFlows <= rep.Capacity {
		return fmt.Errorf("soak offered %d flows against capacity %d — nothing to bound",
			rep.TotalFlows, rep.Capacity)
	}
	// An incremental sweep removes at most flowstate.DefaultSweepLimit
	// entries, so each worker's shard can end a sweep that far over its
	// share of the capacity; settle barriers sweep without a cap and pull
	// occupancy back under it.
	slack := uint64(rep.Workers * flowstate.DefaultSweepLimit)
	last := rep.Points[len(rep.Points)-1]
	prev := FlowPoint{}
	for i, p := range rep.Points {
		if p.Occupancy > uint64(rep.Capacity) {
			return fmt.Errorf("point %d: barrier occupancy %d exceeds capacity %d", i, p.Occupancy, rep.Capacity)
		}
		if p.Peak > uint64(rep.Capacity)+slack {
			return fmt.Errorf("point %d: peak occupancy %d exceeds capacity %d + sweep slack %d",
				i, p.Peak, rep.Capacity, slack)
		}
		if p.FlowsOffered <= prev.FlowsOffered && i > 0 {
			return fmt.Errorf("point %d: flows offered did not advance", i)
		}
		if p.Expired < prev.Expired || p.Evicted < prev.Evicted || p.Peak < prev.Peak {
			return fmt.Errorf("point %d: cumulative counters went backwards", i)
		}
		prev = p
	}
	if last.Expired == 0 {
		return fmt.Errorf("soak never expired a flow — timeouts not exercised")
	}
	if last.Evicted == 0 {
		return fmt.Errorf("soak never evicted a flow — capacity enforcement not exercised")
	}
	if removed := last.Expired + last.Evicted; removed+uint64(rep.Capacity) < uint64(rep.TotalFlows)/2 {
		return fmt.Errorf("lifecycle removed only %d of %d offered flows — state is accumulating",
			removed, rep.TotalFlows)
	}
	if last.Occupancy > uint64(rep.Capacity)/2 {
		return fmt.Errorf("after retuning the timeout to %v occupancy is still %d of %d — expiry never drained the backlog",
			time.Duration(rep.RetunedUDPTimeoutNs), last.Occupancy, rep.Capacity)
	}
	// The bounded-memory gate: live heap must track capacity, not the
	// offered flow count. 1KiB per admitted entry is generous; a leak
	// that retains per-offered-flow state blows through it immediately.
	budget := uint64(256 << 20)
	for i, p := range rep.Points {
		if p.HeapAllocBytes > budget {
			return fmt.Errorf("point %d: live heap %d MiB exceeds the %d MiB soak budget",
				i, p.HeapAllocBytes>>20, budget>>20)
		}
	}
	return nil
}

// FormatFlows renders the soak for the terminal.
func FormatFlows(rep *FlowsReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Flow-state soak (%s, %d workers, capacity %d, udp timeout %v)\n",
		rep.Middlebox, rep.Workers, rep.Capacity, time.Duration(rep.UDPTimeoutNs))
	fmt.Fprintf(&b, "live retune at %d flows: udp timeout -> %v\n",
		rep.RetuneAtFlows, time.Duration(rep.RetunedUDPTimeoutNs))
	fmt.Fprintf(&b, "%-12s %10s %10s %12s %12s %10s\n",
		"flows", "live", "peak", "expired", "evicted", "heap_mb")
	for _, p := range rep.Points {
		fmt.Fprintf(&b, "%-12d %10d %10d %12d %12d %10.1f\n",
			p.FlowsOffered, p.Occupancy, p.Peak, p.Expired, p.Evicted,
			float64(p.HeapAllocBytes)/(1<<20))
	}
	return b.String()
}
