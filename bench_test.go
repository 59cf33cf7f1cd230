// Package gallium's top-level benchmarks regenerate every table and
// figure of the paper's evaluation (§6) under `go test -bench`. Each
// benchmark runs the corresponding experiment end to end — compiler,
// partitioner, simulated testbed — and reports the headline metric via
// b.ReportMetric so `-benchmem` output doubles as the experiment log.
//
//	BenchmarkTable1LinesOfCode   — Table 1
//	BenchmarkFigure7Throughput   — Figure 7
//	BenchmarkTable2Latency       — Table 2
//	BenchmarkTable3StateSync     — Table 3
//	BenchmarkFigure8Workloads    — Figure 8
//	BenchmarkFigure9FCT          — Figure 9
//	BenchmarkHeadline            — §6.3 summary
//
// Component microbenchmarks (compiler passes, switch pipeline, server
// runtime) follow the experiment benches.
package gallium_test

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gallium"
	"gallium/internal/eval"
	"gallium/internal/flowstate"
	"gallium/internal/ir"
	"gallium/internal/middleboxes"
	"gallium/internal/obs"
	"gallium/internal/packet"
	"gallium/internal/partition"
	"gallium/internal/serverrt"
	"gallium/internal/switchsim"
	"gallium/internal/trafficgen"
)

// BenchmarkTable1LinesOfCode regenerates Table 1 (lines of code before and
// after compilation) and reports the total generated lines per op.
func BenchmarkTable1LinesOfCode(b *testing.B) {
	var rows []eval.Table1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = eval.Table1()
		if err != nil {
			b.Fatal(err)
		}
	}
	var p4LoC, srvLoC float64
	for _, r := range rows {
		p4LoC += float64(r.P4LoC)
		srvLoC += float64(r.ServerLoC)
	}
	b.ReportMetric(p4LoC, "p4_lines")
	b.ReportMetric(srvLoC, "server_lines")
	b.Logf("\n%s", eval.FormatTable1(rows))
}

// BenchmarkFigure7Throughput regenerates Figure 7 (throughput vs packet
// size for all five middleboxes and four deployments).
func BenchmarkFigure7Throughput(b *testing.B) {
	var points []eval.Fig7Point
	for i := 0; i < b.N; i++ {
		var err error
		points, err = eval.Figure7(false)
		if err != nil {
			b.Fatal(err)
		}
	}
	var offGbps, c4Gbps float64
	for _, p := range points {
		if p.PktSize == 1500 {
			switch p.Config {
			case "Offloaded":
				offGbps += p.Gbps / 5
			case "Click-4c":
				c4Gbps += p.Gbps / 5
			}
		}
	}
	b.ReportMetric(offGbps, "offloaded_gbps@1500B")
	b.ReportMetric(c4Gbps, "click4c_gbps@1500B")
	b.Logf("\n%s", eval.FormatFigure7(points))
}

// BenchmarkTable2Latency regenerates Table 2 (end-to-end latency).
func BenchmarkTable2Latency(b *testing.B) {
	var rows []eval.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = eval.Table2()
		if err != nil {
			b.Fatal(err)
		}
	}
	var f, g float64
	for _, r := range rows {
		f += r.FastClickUs / float64(len(rows))
		g += r.GalliumUs / float64(len(rows))
	}
	b.ReportMetric(f, "fastclick_us")
	b.ReportMetric(g, "gallium_us")
	b.Logf("\n%s", eval.FormatTable2(rows))
}

// BenchmarkTable3StateSync regenerates Table 3 (control-plane update
// latency) and also exercises the write-back machinery itself.
func BenchmarkTable3StateSync(b *testing.B) {
	art, err := gallium.Compile(middleboxes.MazuNATSource, gallium.Options{})
	if err != nil {
		b.Fatal(err)
	}
	sw := switchsim.New(art.Res)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Wrap the key space so the table never exceeds its annotation.
		k := uint64(i % 50000)
		u := switchsim.Update{Table: "nat_fwd", Key: ir.MakeMapKey(k, k), Vals: []uint64{uint64(i)}}
		if err := sw.StageShard(0, u); err != nil {
			b.Fatal(err)
		}
		sw.FlipShard(0)
	}
	b.StopTimer()
	rows := eval.Table3()
	b.ReportMetric(rows[0].InsertUs, "1table_us")
	b.ReportMetric(rows[2].InsertUs, "4tables_us")
	b.Logf("\n%s", eval.FormatTable3(rows))
}

// BenchmarkFigure8Workloads regenerates Figure 8 (throughput on the
// enterprise and data-mining workloads).
func BenchmarkFigure8Workloads(b *testing.B) {
	var fig8 []eval.Fig8Point
	for i := 0; i < b.N; i++ {
		var err error
		fig8, _, err = eval.Figures89(false)
		if err != nil {
			b.Fatal(err)
		}
	}
	var offDM float64
	for _, p := range fig8 {
		if p.Config == "Offloaded" && p.Workload == "datamining" {
			offDM += p.Gbps / 5
		}
	}
	b.ReportMetric(offDM, "offloaded_dm_gbps")
	b.Logf("\n%s", eval.FormatFigure8(fig8))
}

// BenchmarkFigure9FCT regenerates Figure 9 (flow completion time by
// flow-size bin).
func BenchmarkFigure9FCT(b *testing.B) {
	var fig9 []eval.Fig9Point
	for i := 0; i < b.N; i++ {
		var err error
		_, fig9, err = eval.Figures89(false)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(fig9)), "series")
	b.Logf("\n%s", eval.FormatFigure9(fig9))
}

// BenchmarkHeadline regenerates the §6.3 summary numbers (cycle savings,
// latency reduction, slow-path fraction).
func BenchmarkHeadline(b *testing.B) {
	var h *eval.HeadlineStats
	for i := 0; i < b.N; i++ {
		var err error
		h, err = eval.Headline(false)
		if err != nil {
			b.Fatal(err)
		}
	}
	var sav, lat float64
	for _, v := range h.CycleSavingsPct {
		sav += v / 5
	}
	for _, v := range h.LatencyReductionPct {
		lat += v / 5
	}
	b.ReportMetric(sav, "cycle_savings_pct")
	b.ReportMetric(lat, "latency_cut_pct")
	b.Logf("\n%s", eval.FormatHeadline(h))
}

// BenchmarkEngineThroughput measures the concurrent sharded engine's
// wall-clock throughput at 1/2/4/8 workers on the NAT. Each sub-benchmark
// streams b.N packets (one flow per ~1000 packets) and reports pps; the
// fixed-size ladder, gated on scale-out, is TestScaleOut.
func BenchmarkEngineThroughput(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			art, err := gallium.CompileBuiltin("mazunat", gallium.Options{})
			if err != nil {
				b.Fatal(err)
			}
			flows := b.N/1000 + 1
			if flows > 512 {
				flows = 512
			}
			// 10Mpps offered for exactly b.N packets of virtual time.
			wl := trafficgen.IperfConfig{Conns: flows, PPS: 1e7, DurationNs: int64(b.N) * 100, Seed: 7}
			b.ResetTimer()
			rep, err := art.Run(context.Background(), wl,
				gallium.WithWorkers(workers), gallium.WithScenario())
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if rep.Stats.Delivered == 0 {
				b.Fatal("engine delivered nothing")
			}
			b.ReportMetric(rep.PPS, "pps")
			b.ReportMetric(float64(rep.Stats.Injected), "packets")
		})
	}
}

// --- component microbenchmarks ---

// BenchmarkCompileMazuNAT measures the full compiler pipeline: parse,
// lower, dependency analysis, partitioning, code generation.
func BenchmarkCompileMazuNAT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := gallium.Compile(middleboxes.MazuNATSource, gallium.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSwitchFastPath measures the simulated switch's per-packet cost
// on the fast path (table hit, rewrite, emit).
func BenchmarkSwitchFastPath(b *testing.B) {
	art, err := gallium.CompileBuiltin("minilb", gallium.Options{})
	if err != nil {
		b.Fatal(err)
	}
	sw := switchsim.New(art.Res)
	if err := sw.LoadVector("backends", middleboxes.Backends); err != nil {
		b.Fatal(err)
	}
	src := packet.MakeIPv4Addr(1, 2, 3, 4)
	dst := packet.MakeIPv4Addr(9, 9, 9, 9)
	key := ir.MakeMapKey(uint64(src^dst) & 0xFFFF)
	if err := sw.StageShard(0, switchsim.Update{Table: "conn", Key: key, Vals: []uint64{middleboxes.Backends[0]}}); err != nil {
		b.Fatal(err)
	}
	sw.FlipShard(0)
	pkt := packet.BuildTCP(src, dst, 1000, 80, packet.TCPOptions{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := *pkt // shallow copy is fine: fast path rewrites headers only
		if _, err := sw.ProcessPreShard(&p, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// natFlows is the traffic BenchmarkPrePass and BenchmarkEngineFeed share:
// mazunat with n established flows, a table too large for the cache. It
// returns each flow's steady ACK and the two switch-table entries that
// keep it on the fast path.
func natFlows(n int) (acks []packet.Packet, entries []switchsim.Update) {
	acks = make([]packet.Packet, n)
	for i := range acks {
		src, sport, ext := packet.IPv4Addr(10<<24|uint32(i)*2654435761>>8), uint16(1024+i%60000), uint64(1024+i)
		entries = append(entries,
			switchsim.Update{Table: "nat_fwd", Key: ir.MakeMapKey(uint64(src), uint64(sport)), Vals: []uint64{ext}},
			switchsim.Update{Table: "nat_rev", Key: ir.MakeMapKey(ext), Vals: []uint64{uint64(src), uint64(sport)}})
		acks[i] = *packet.BuildTCP(src, packet.MakeIPv4Addr(93, 184, 216, 34), sport, 80, packet.TCPOptions{Flags: packet.TCPFlagACK})
	}
	return acks, entries
}

// BenchmarkPrePass measures the pre-pass the way the repository benchmark's
// switchsim.pre_ns probe does: mazunat with 32,768 flows resident in both
// tables, packets rotating over all of them, so every lookup probes a
// table too large for the cache; beside it the same pass over 64 flows,
// whose tables stay cache-resident, so that the difference is the share
// of the pass that waits for memory. BenchmarkSwitchFastPath's single
// entry never leaves L1 and cannot see table layout at all. "wrapper" is
// ProcessPreShard (a pooled Pass checked out, flushed and returned per
// call), "owned" the Pass an engine worker keeps (flushed once per 32
// packets, as at a batch boundary): the difference is what the pool and
// the per-packet atomic counters cost.
func BenchmarkPrePass(b *testing.B) {
	art, err := gallium.Compile(middleboxes.MazuNATSource, gallium.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, flows := range []int{64, 32768} {
		sw := switchsim.New(art.Res)
		pkts, entries := natFlows(flows)
		for _, u := range entries {
			if err := sw.StageShard(0, u); err != nil {
				b.Fatal(err)
			}
		}
		sw.FlipShard(0)
		pass, owned := sw.NewPass(0), 0
		for _, v := range []struct {
			name string
			pre  func(*packet.Packet) (switchsim.PreResult, error)
		}{
			{"wrapper", func(p *packet.Packet) (switchsim.PreResult, error) { return sw.ProcessPreShard(p, 0, nil) }},
			{"owned", func(p *packet.Packet) (switchsim.PreResult, error) {
				if owned++; owned%32 == 0 {
					pass.Flush()
				}
				return pass.Pre(p, nil)
			}},
		} {
			b.Run(fmt.Sprintf("flows=%d/%s", flows, v.name), func(b *testing.B) {
				var p packet.Packet
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p = pkts[i%flows] // the pass rewrites headers only
					pre, err := v.pre(&p)
					if err != nil || pre.Action != ir.ActionSent {
						b.Fatalf("flow %d: %v %v", i%flows, pre.Action, err)
					}
				}
			})
		}
		pass.Flush()
		if st := sw.Stats(); st.PrePackets != st.FastPath {
			b.Fatalf("pre %d != fast %d after the final flush", st.PrePackets, st.FastPath)
		}
	}
}

// feedRound is one BenchmarkEngineFeed or BenchmarkEngineChurn round: every
// packet of a prepared buffer, one virtual millisecond apart.
type feedRound struct {
	pkts []packet.Packet
	t0   int64
}

func (r *feedRound) Tuples() []packet.FiveTuple { return nil }

func (r *feedRound) Generate(emit func(int64, *packet.Packet) error) error {
	for i := range r.pkts {
		if err := emit(r.t0+int64(i)*1e6, &r.pkts[i]); err != nil {
			return err
		}
	}
	return nil
}

// feedRig is the session BenchmarkEngineFeed times and TestFeedAllocs
// counts allocations on: mazunat with flows established flows seeded
// into every shard, fed rounds of fast-path ACKs through Session.Feed
// with a delivery callback that counts fast-path deliveries.
type feedRig struct {
	sess *gallium.Session
	wl   *feedRound
	acks []packet.Packet
	fast atomic.Int64
}

func newFeedRig(tb testing.TB, workers, flows, round int) *feedRig {
	art, err := gallium.Compile(middleboxes.MazuNATSource, gallium.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	acks, entries := natFlows(flows)
	r := &feedRig{wl: &feedRound{pkts: make([]packet.Packet, round)}, acks: acks}
	seeded := 0 // WithState fires again at Close
	r.sess, err = gallium.Open(art, gallium.WithWorkers(workers),
		gallium.WithDeliveries(func(d gallium.Delivery) {
			if d.Delivered && d.FastPath {
				r.fast.Add(1)
			}
		}),
		gallium.WithState(func(_ int, st *ir.State) {
			if seeded++; seeded > workers {
				return
			}
			for _, u := range entries {
				st.Table(u.Table).Put(&u.Key, u.Vals)
			}
		}))
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// prepare restores the round's packets, which the NAT rewrites.
func (r *feedRig) prepare() {
	for i := range r.wl.pkts {
		r.wl.pkts[i] = r.acks[i%len(r.acks)]
	}
}

// feed feeds the prepared round and advances virtual time past it.
func (r *feedRig) feed() error {
	err := r.sess.Feed(r.wl)
	r.wl.t0 += int64(len(r.wl.pkts)) * 1e6
	return err
}

// BenchmarkEngineFeed measures the engine's fast path end to end, as the
// repository benchmark's `steady` workload does but inside the root
// module: mazunat, 32,768 seeded flows, rounds of 131,072 fast-path ACKs
// through Session.Feed with a counting delivery callback. It reports
// wall ns per packet (dispatch, hand-off, pre-pass, virtual-time
// accounting, callback) and allocations per packet, which must be 0.
func BenchmarkEngineFeed(b *testing.B) {
	const flows, round = 32768, 131072
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			r := newFeedRig(b, workers, flows, round)
			feed := func() {
				r.prepare()
				b.StartTimer()
				err := r.feed()
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			feed() // warm: grow the bursts, the batch buffers, the register files
			b.ResetTimer()
			b.StopTimer()
			r.fast.Store(0)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				feed()
			}
			runtime.ReadMemStats(&after)
			if got, want := r.fast.Load(), int64(b.N)*round; got != want {
				b.Fatalf("%d of %d packets took the fast path", got, want)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*round), "ns/pkt")
			// A round's settle barrier allocates (a closure per worker);
			// a packet must not.
			perPkt := float64(after.Mallocs-before.Mallocs) / float64(b.N*round)
			b.ReportMetric(perPkt, "allocs/pkt")
			if perPkt > feedAllocBudget {
				b.Errorf("%.4f allocations per packet, want 0", perPkt)
			}
			if _, err := r.sess.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkEngineChurn measures the engine under never-repeating flows,
// as the repository benchmark's `churn` workload does but inside the root
// module: mazunat at one worker under an 8,192-entry LRU FlowTable, each
// flow a SYN (a slow-path packet whose port allocation the worker flips
// onto the switch before delivery) and two to four fast-path ACKs, 64
// flows interleaved, in rounds of 16,384 packets through Session.Feed.
// The flow table is full and evicting before the clock starts. It
// reports wall ns per packet and allocations per packet (nodes, views and
// undo records of the write-backs and evictions: not gated).
func BenchmarkEngineChurn(b *testing.B) {
	art, err := gallium.Compile(middleboxes.MazuNATSource, gallium.Options{})
	if err != nil {
		b.Fatal(err)
	}
	const round, interleave = 16384, 64
	long := 24 * time.Hour // eviction, not expiry, does the work
	var delivered atomic.Int64
	seeded := false // WithState fires again at Close
	sess, err := gallium.Open(art, gallium.WithWorkers(1),
		gallium.WithFlowTable(gallium.FlowTable{Capacity: 8192, EvictPolicy: gallium.EvictLRU,
			TCPTimeouts: gallium.TCPTimeouts{Syn: long, Established: long, Fin: long}, UDPTimeout: long,
			SweepLimit: 1 << 16}),
		gallium.WithDeliveries(func(d gallium.Delivery) {
			if d.Delivered {
				delivered.Add(1)
			}
		}),
		gallium.WithState(func(_ int, st *ir.State) {
			if !seeded {
				seeded = true
				middleboxes.ConfigureState("mazunat", st)
			}
		}))
	if err != nil {
		b.Fatal(err)
	}
	base := packet.BuildTCP(packet.MakeIPv4Addr(10, 0, 0, 1), packet.MakeIPv4Addr(93, 184, 216, 34), 1024, 80,
		packet.TCPOptions{Flags: packet.TCPFlagACK})
	buf := make([]packet.Packet, round)
	wl := &feedRound{}
	var flow uint64 // next flow never sent
	sent := 0
	feed := func() {
		n := 0
		for n+interleave*5 <= round {
			first := flow
			flow += interleave
			for step := 0; step <= 4; step++ {
				for k := first; k < first+interleave; k++ {
					if step > 2+int((k*0x9E3779B97F4A7C15>>40)%3) { // 2-4 ACKs
						continue
					}
					p := &buf[n]
					*p = *base
					p.IP.SrcIP = packet.IPv4Addr(10<<24 | uint32(k&0xFFFFFF))
					p.TCP.SrcPort = uint16(1024 + (k>>24)%60000)
					if step == 0 {
						p.TCP.Flags = packet.TCPFlagSYN
					}
					n++
				}
			}
		}
		wl.pkts = buf[:n]
		b.StartTimer()
		err := sess.Feed(wl)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		wl.t0 += int64(n) * 1e6
		sent += n
	}
	b.StopTimer()
	for flow < 3*8192 { // warm: fill the flow table and grow every buffer
		feed()
	}
	b.ResetTimer()
	b.StopTimer()
	warm := sent
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		feed()
	}
	runtime.ReadMemStats(&after)
	if _, err := sess.Close(); err != nil {
		b.Fatal(err)
	}
	if got := delivered.Load(); got != int64(sent) {
		b.Fatalf("%d of %d packets delivered", got, sent)
	}
	pkts := float64(sent - warm)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pkts, "ns/pkt")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/pkts, "allocs/pkt")
}

// BenchmarkDispatchRead measures the wire path's hand-off without a
// socket: reads of 32 mazunat ACKs on 32,768 seeded flows, 31 of them
// marked Packet.RxBurst and an unmarked last one, as the UDP front end
// dispatches a receive batch, go through Session.Dispatch at one worker.
// Delivered packets go back to a free list the next reads draw from, so at
// most four reads are in flight. It reports wall ns per packet (dispatch,
// hand-off, pre-pass, virtual-time accounting, callback), allocations per
// packet, which must be 0, and mailbox pulls per read: 1 when each read
// reaches the worker as one push and the worker keeps up with them.
func BenchmarkDispatchRead(b *testing.B) {
	art, err := gallium.Compile(middleboxes.MazuNATSource, gallium.Options{})
	if err != nil {
		b.Fatal(err)
	}
	const flows, read, inFlight = 32768, 32, 4
	acks, entries := natFlows(flows)
	free := make(chan *packet.Packet, inFlight*read)
	for len(free) < cap(free) {
		free <- new(packet.Packet)
	}
	var fast atomic.Int64
	seeded := false // WithState fires again at Close
	sess, err := gallium.Open(art,
		gallium.WithDeliveries(func(d gallium.Delivery) {
			if d.Delivered && d.FastPath {
				fast.Add(1)
			}
			free <- d.Pkt
		}),
		gallium.WithState(func(_ int, st *ir.State) {
			if seeded {
				return
			}
			seeded = true
			for _, u := range entries {
				st.Table(u.Table).Put(&u.Key, u.Vals)
			}
		}))
	if err != nil {
		b.Fatal(err)
	}
	sent, tNs := 0, int64(0)
	dispatchRead := func() {
		for i := 0; i < read; i++ {
			pkt := <-free
			*pkt = acks[sent%flows]
			pkt.RxBurst = i < read-1
			sent++
			tNs += 1e6
			if _, err := sess.Dispatch(tNs, pkt); err != nil {
				b.Fatal(err)
			}
		}
	}
	// returned waits until every packet is back on the free list.
	returned := func() {
		for len(free) < cap(free) {
			runtime.Gosched()
		}
	}
	for i := 0; i < 2*inFlight; i++ { // warm: grow the bursts and the batch buffers
		dispatchRead()
	}
	returned()
	warm := sent
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dispatchRead()
	}
	returned()
	b.StopTimer()
	runtime.ReadMemStats(&after)
	rep, err := sess.Close()
	if err != nil {
		b.Fatal(err)
	}
	if got := fast.Load(); got != int64(sent) {
		b.Fatalf("%d of %d packets took the fast path", got, sent)
	}
	pkts := float64(sent - warm)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pkts, "ns/pkt")
	perPkt := float64(after.Mallocs-before.Mallocs) / pkts
	b.ReportMetric(perPkt, "allocs/pkt")
	if perPkt > 0.001 {
		b.Errorf("%.4f allocations per packet, want 0", perPkt)
	}
	// Every job the worker pulled was a packet: read / mean pull is pulls per read.
	b.ReportMetric(read/rep.BatchSizes[0], "pulls/read")
}

// BenchmarkWriteback measures one control-plane write-back — stage and
// flip an insert of a fresh key, then stage and flip its deletion — into
// a table already holding n entries. It pins the write-back as O(1): the
// two sizes must cost the same.
func BenchmarkWriteback(b *testing.B) {
	art, err := gallium.CompileBuiltin("minilb", gallium.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1024, 32768} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sw := switchsim.New(art.Res)
			for k := 0; k < n; k++ {
				if err := sw.StageShard(0, switchsim.Update{Table: "conn", Key: ir.MakeMapKey(uint64(k)), Vals: []uint64{1}}); err != nil {
					b.Fatal(err)
				}
			}
			sw.FlipShard(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := ir.MakeMapKey(uint64(n + i))
				if err := sw.StageShard(0, switchsim.Update{Table: "conn", Key: key, Vals: []uint64{2}}); err != nil {
					b.Fatal(err)
				}
				sw.FlipShard(0)
				if err := sw.StageShard(0, switchsim.Update{Table: "conn", Key: key, Delete: true}); err != nil {
					b.Fatal(err)
				}
				sw.FlipShard(0)
			}
		})
	}
}

// BenchmarkSweep measures one incremental flow-table sweep that finds 512
// entries over capacity (what SweepEvery = 1024 NAT packets of new flows
// leave behind) in a table already holding n. It pins the sweep as
// O(removed): eight times the resident set costs the same 512 pops and
// no allocation, dearer only by the larger table's cache misses — where a
// sweep that scans or sorts the resident set costs eight times as much.
func BenchmarkSweep(b *testing.B) {
	const over = 512
	vals := []uint64{1}
	for _, n := range []int{8192, 65536} {
		b.Run(fmt.Sprintf("resident=%d", n), func(b *testing.B) {
			st := ir.NewState(&ir.Program{Globals: []*ir.Global{
				{Name: "conns", Kind: ir.KindMap, KeyTypes: []ir.Type{ir.U64}, ValTypes: []ir.Type{ir.U64}},
			}})
			tr := flowstate.NewTracker(flowstate.Config{Capacity: n, UDPTimeout: time.Hour}, st, []string{"conns"})
			next := uint64(0)
			fill := func(k int) {
				for i := 0; i < k; i++ {
					st.NowNs++
					st.MapInsert("conns", ir.MakeMapKey(next), vals)
					next++
				}
			}
			fill(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fill(over)
				b.StartTimer()
				if rm := tr.Sweep(st.NowNs, false); len(rm) != over {
					b.Fatalf("sweep removed %d entries, want %d", len(rm), over)
				}
			}
		})
	}
}

// BenchmarkServerSlowPath measures the server runtime on slow-path
// packets including transfer header parsing and update recording.
func BenchmarkServerSlowPath(b *testing.B) {
	art, err := gallium.CompileBuiltin("minilb", gallium.Options{})
	if err != nil {
		b.Fatal(err)
	}
	sw := switchsim.New(art.Res)
	if err := sw.LoadVector("backends", middleboxes.Backends); err != nil {
		b.Fatal(err)
	}
	srv := serverrt.New(art.Res)
	middleboxes.ConfigureState("minilb", srv.State)
	pristine := packet.BuildTCP(0, packet.MakeIPv4Addr(9, 9, 9, 9), 1000, 80, packet.TCPOptions{})
	pkt := &packet.Packet{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resetPacket(pkt, pristine)
		pkt.IP.SrcIP = packet.IPv4Addr(i)
		if _, err := sw.ProcessPreShard(pkt, 0, nil); err != nil {
			b.Fatal(err)
		}
		if pkt.HasGallium {
			if _, err := srv.Process(pkt); err != nil {
				b.Fatal(err)
			}
			srv.Recycle()
		}
	}
}

// BenchmarkNewFlow measures one never-seen mazunat flow's first packet
// through a Testbed under the zero-cost model, on a retained packet: the
// whole slow path of churn's new flows — pre-pass miss, the hop to the
// server, the server, output commit (stage + flip), the hop back,
// post-pass — with its allocations. Each Testbed is built and warmed with
// warm flows off the clock, which sizes its tables for the timed flows
// that follow, and replaced before the NAT's 16-bit port space wraps.
func BenchmarkNewFlow(b *testing.B) {
	const warm, timed = 30000, 19000
	var rig *newFlowRig
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rig == nil || rig.flows == warm+timed {
			b.StopTimer()
			rig = newNewFlowRig(b)
			for k := 0; k < warm; k++ {
				if err := rig.next(); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
		}
		if err := rig.next(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReferenceInterpreter measures the reference interpreter (the
// software baseline's inner loop).
func BenchmarkReferenceInterpreter(b *testing.B) {
	art, err := gallium.Compile(middleboxes.FirewallSource, gallium.Options{})
	if err != nil {
		b.Fatal(err)
	}
	prog := art.Prog
	st := ir.NewState(prog)
	tup := packet.FiveTuple{SrcIP: packet.MakeIPv4Addr(10, 0, 0, 1), DstIP: 2, SrcPort: 3, DstPort: 4, Proto: packet.IPProtocolTCP}
	middleboxes.AllowFlow(st, tup)
	pkt := packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort, packet.TCPOptions{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Exec(&ir.Env{State: st, Pkt: pkt}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPacketDecode measures the header parser: a 454-byte TCP frame
// decoded into one retained Packet, as the wire path and the walker's
// link hops decode, so the parse is timed without a Packet allocation.
func BenchmarkPacketDecode(b *testing.B) {
	raw := packet.BuildTCP(1, 2, 3, 4, packet.TCPOptions{Payload: make([]byte, 400)}).Serialize()
	var pkt packet.Packet
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pkt.Decode(raw, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSerializeTo measures the deparser: a 64-byte TCP frame (both
// checksums computed) into one reused buffer.
func BenchmarkSerializeTo(b *testing.B) {
	pkt := packet.BuildTCP(packet.MakeIPv4Addr(10, 0, 0, 1), packet.MakeIPv4Addr(93, 184, 216, 34),
		40000, 443, packet.TCPOptions{Flags: packet.TCPFlagACK, Payload: make([]byte, 10)})
	var buf packet.SerializeBuffer
	if n := len(pkt.SerializeTo(&buf)); n != 64 {
		b.Fatalf("frame is %d bytes, want 64", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt.SerializeTo(&buf)
	}
}

// BenchmarkTransferCodec measures mazunat's two transfer headers
// (gallium_a pre→server, gallium_b server→post), packed from and unpacked
// into the runtimes' scratchpad. Neither direction may allocate.
func BenchmarkTransferCodec(b *testing.B) {
	art, err := gallium.CompileBuiltin("mazunat", gallium.Options{})
	if err != nil {
		b.Fatal(err)
	}
	res := art.Res
	scratch := make([]uint64, res.NumXferSlots)
	for i := range scratch {
		scratch[i] = 0x9E3779B97F4A7C15 * uint64(i+1)
	}
	for _, h := range []struct {
		name   string
		vars   []partition.TransferVar
		format *packet.HeaderFormat
	}{{"gallium_a", res.TransferA, res.FormatA}, {"gallium_b", res.TransferB, res.FormatB}} {
		c, err := partition.XferCodec(h.vars, h.format, res.NumXferSlots)
		if err != nil {
			b.Fatal(err)
		}
		data := make([]byte, h.format.DataLen())
		for _, op := range []struct {
			name string
			fn   func([]byte, []uint64) error
		}{{"pack", c.Pack}, {"unpack", c.Unpack}} {
			b.Run(h.name+"/"+op.name, func(b *testing.B) {
				if n := testing.AllocsPerRun(100, func() { _ = op.fn(data, scratch) }); n != 0 {
					b.Fatalf("%s allocates %v times per call", op.name, n)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := op.fn(data, scratch); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFluidEngine measures the flow-level workload engine.
func BenchmarkFluidEngine(b *testing.B) {
	sizes := trafficgen.Enterprise().SampleFlows(100_000, 1)
	flows := trafficgen.SplitWorkers(sizes, 100)
	cfg := eval.DefaultFluidConfig()
	cfg.BottleneckBps = 100e9
	cfg.SetupNs = 100_000
	cfg.RTTNs = 16_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunFluid(cfg, flows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTestbedInject measures the packet-level testbed's per-packet
// cost in offloaded mode.
func BenchmarkTestbedInject(b *testing.B) {
	c, err := eval.CompileOne("firewall")
	if err != nil {
		b.Fatal(err)
	}
	gen := trafficgen.IperfConfig{Conns: 10, PacketSize: 500, PPS: 1, DurationNs: 1}
	tb, err := c.NewTestbed(gallium.TestbedConfig{}, gallium.WithScenario(), gallium.WithFlows(gen.Tuples()))
	if err != nil {
		b.Fatal(err)
	}
	tup := gen.Tuples()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort, packet.TCPOptions{})
		if _, err := tb.Inject(int64(i)*1000, pkt); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTestbedWithMetrics drives the firewall testbed with or without an
// observability registry; the Off/On pair quantifies the instrumentation
// overhead (the nil-handle fast path should keep it within a few percent).
func benchTestbedWithMetrics(b *testing.B, reg *obs.Registry) {
	b.Helper()
	art, err := gallium.CompileBuiltin("firewall", gallium.Options{})
	if err != nil {
		b.Fatal(err)
	}
	gen := trafficgen.IperfConfig{Conns: 10, PacketSize: 500, PPS: 1, DurationNs: 1}
	tb, err := art.NewTestbed(gallium.TestbedConfig{}, gallium.WithMode(gallium.Offloaded),
		gallium.WithScenario(), gallium.WithFlows(gen.Tuples()), gallium.WithMetrics(reg))
	if err != nil {
		b.Fatal(err)
	}
	tup := gen.Tuples()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort, packet.TCPOptions{})
		if _, err := tb.Inject(int64(i)*1000, pkt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTestbedMetricsOff is the baseline: observability disabled.
func BenchmarkTestbedMetricsOff(b *testing.B) {
	benchTestbedWithMetrics(b, nil)
}

// BenchmarkTestbedMetricsOn runs the same workload with every counter and
// histogram live.
func BenchmarkTestbedMetricsOn(b *testing.B) {
	benchTestbedWithMetrics(b, obs.NewRegistry())
}
