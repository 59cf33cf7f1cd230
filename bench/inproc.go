package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"gallium"
	"gallium/internal/ir"
	"gallium/internal/middleboxes"
	"gallium/internal/obs"
	"gallium/internal/packet"
)

// vtStepNs is the virtual time between injected packets. Virtual time
// costs nothing on the wall clock; the step only has to keep the cost
// model's simulated server queue from building. In the chain a
// slow-path packet leaves each stage ~270 µs (the modelled control-plane
// batch) after it entered and occupies the shared simulated core at
// that later time, so two slow stages need ~0.6 ms between arrivals or
// the model queue-drops the warm pass.
const vtStepNs = 1_000_000

// pipeSpec describes one pipeline under test and its traffic.
type pipeSpec struct {
	name      string
	boxes     []string // middlebox names in traversal order; more than one is a Chain
	flows     int      // distinct flows (churn: unused)
	roundPkts int      // packets fed per timed round
	warmPkts  int      // churn only: packets of the warm pass
	churn     bool     // never-repeating flows under a bounded flow table
	verify    bool     // compile with Options{Verify: true}
	workers   int      // engine shards; 0 means 1
	metrics   bool     // attach an obs.Registry (WithMetrics)
}

// churnTable bounds the churn workload's flow state. Timeouts are far
// beyond the run's virtual duration so capacity eviction, not expiry,
// does the work. SweepLimit covers both NAT tables: the default budget
// of 4096 entries is spent on nat_fwd alone at this capacity, nat_rev
// then grows until the next settle barrier and the over-capacity count
// evicts flows that are still sending.
var churnTable = gallium.FlowTable{
	Capacity:    8192,
	EvictPolicy: gallium.EvictLRU,
	TCPTimeouts: gallium.TCPTimeouts{Syn: 24 * time.Hour, Established: 24 * time.Hour, Fin: 24 * time.Hour},
	UDPTimeout:  24 * time.Hour,
	SweepLimit:  1 << 16,
}

// burst feeds a slice of prepared packets as one engine workload.
type burst struct {
	pkts []*packet.Packet
	t0   int64
	// stamps, when non-nil, receives the wall-clock emit time of every
	// stampEvery-th packet (traced runs: latency under load).
	stamps []time.Time
}

const stampEvery = 64

func (b *burst) Tuples() []packet.FiveTuple { return nil }

func (b *burst) Generate(emit func(int64, *packet.Packet) error) error {
	for i, p := range b.pkts {
		if b.stamps != nil && i%stampEvery == 0 {
			b.stamps[i/stampEvery] = time.Now()
		}
		if err := emit(b.t0+int64(i)*vtStepNs, p); err != nil {
			return err
		}
	}
	return nil
}

// pipe is one pipeline instance: compiled artifacts, an open session,
// its traffic, and the accounting of what came out.
type pipe struct {
	spec  pipeSpec
	seed  int64
	tmpl  []flowTmpl
	gen   *churnGen
	warm  []*packet.Packet
	round []*packet.Packet
	// roundN is how many of round's packets the current round uses.
	roundN  int
	expect  [][]byte // per flow: oracle output of the steady packet, nil = dropped
	scratch packet.Packet

	arts []*gallium.Artifacts
	sess *gallium.Session
	vt   int64
	seq  int64 // engine sequence number of the next packet dispatched

	delivered, mbDropped, queueDropped atomic.Int64
	// fate records warm-pass outcomes by sequence number (1 delivered,
	// 2 dropped); written by the worker, read after Feed's barrier.
	fate    []uint8
	probing bool
	probeAt chan time.Time

	// Traced runs: emit stamps of the round in flight and the latencies
	// of its stamped packets.
	stamps    []time.Time
	stampBase int64
	loadedUs  []float64

	inputDigest uint64
}

func newPipe(spec pipeSpec, seed int64) *pipe {
	// One buffered slot: the worker never blocks on a probe nobody awaits.
	return &pipe{spec: spec, seed: seed, probeAt: make(chan time.Time, 1)}
}

// prepare builds the instance's inputs from its seed. Untimed.
func (p *pipe) prepare() {
	rng := rand.New(rand.NewSource(p.seed))
	if p.spec.churn {
		p.gen = newChurnGen(rng)
		p.warm = newPackets(p.spec.warmPkts)
		p.warm = p.warm[:p.gen.fill(p.warm)]
	} else {
		p.tmpl = buildFlows(p.spec.boxes[0], p.spec.flows, rng)
		p.warm = newPackets(len(p.tmpl))
		for i := range p.tmpl {
			*p.warm[i] = p.tmpl[i].first
		}
	}
	p.round = newPackets(p.spec.roundPkts)
	for _, w := range p.warm {
		p.inputDigest = digest(p.inputDigest, w)
	}
	p.fate = make([]uint8, len(p.warm))
}

func newPackets(n int) []*packet.Packet {
	backing := make([]packet.Packet, n)
	out := make([]*packet.Packet, n)
	for i := range out {
		out[i] = &backing[i]
	}
	return out
}

// setup is everything paid before the first steady packet: compile,
// open, and a warm pass that sends every flow's first packet through
// the real slow path and waits for it to settle.
func (p *pipe) setup() error {
	for _, box := range p.spec.boxes {
		spec, err := middleboxes.Lookup(box)
		if err != nil {
			return err
		}
		art, err := gallium.Compile(spec.Source, gallium.Options{Verify: p.spec.verify})
		if err != nil {
			return fmt.Errorf("%s: compile %s: %w", p.spec.name, box, err)
		}
		p.arts = append(p.arts, art)
	}
	workers := max(1, p.spec.workers)
	opts := []gallium.Option{gallium.WithWorkers(workers), gallium.WithDeliveries(p.onDelivery)}
	if p.spec.metrics {
		opts = append(opts, gallium.WithMetrics(obs.NewRegistry()))
	}
	if p.spec.churn {
		opts = append(opts, gallium.WithFlowTable(churnTable))
	}
	var err error
	if len(p.arts) > 1 {
		tuples := make([]packet.FiveTuple, len(p.tmpl))
		for i := range p.tmpl {
			tuples[i] = p.tmpl[i].tuple
		}
		var pl *gallium.Pipeline
		if pl, err = gallium.Chain(p.arts...); err != nil {
			return err
		}
		opts = append(opts, gallium.WithScenario(), gallium.WithFlows(tuples))
		p.sess, err = pl.Open(opts...)
	} else {
		seeded := 0 // WithState also fires at Close; seed each shard once
		opts = append(opts, gallium.WithState(func(shard int, st *ir.State) {
			if seeded < workers {
				seedState(p.spec.boxes[0], p.tmpl, st, shard, workers)
				seeded++
			}
		}))
		p.sess, err = gallium.Open(p.arts[0], opts...)
	}
	if err != nil {
		return fmt.Errorf("%s: open: %w", p.spec.name, err)
	}
	return p.feed(p.warm, nil)
}

// feed sends pkts through the session and waits until they settled.
func (p *pipe) feed(pkts []*packet.Packet, stamps []time.Time) error {
	b := &burst{pkts: pkts, t0: p.vt, stamps: stamps}
	p.vt += int64(len(pkts)) * vtStepNs
	p.seq += int64(len(pkts))
	return p.sess.Feed(b)
}

func (p *pipe) onDelivery(d gallium.Delivery) {
	switch {
	case d.Delivered:
		p.delivered.Add(1)
	case d.MBDropped:
		p.mbDropped.Add(1)
	default:
		p.queueDropped.Add(1)
	}
	if d.Seq < int64(len(p.fate)) {
		p.fate[d.Seq] = 2
		if d.Delivered {
			p.fate[d.Seq] = 1
		}
	}
	if p.probing {
		p.probeAt <- time.Now()
	}
	if p.stamps != nil {
		if i := d.Seq - p.stampBase; i >= 0 && i%stampEvery == 0 && int(i/stampEvery) < len(p.stamps) {
			p.loadedUs = append(p.loadedUs, float64(time.Since(p.stamps[i/stampEvery]))/1e3)
		}
	}
}

// outBytes is a processed packet's observable output: its wire bytes
// without any transfer header a leg left attached.
func outBytes(pk *packet.Packet) []byte {
	q := pk.Clone()
	q.StripGallium()
	return q.Serialize()
}

// oracle is the unpartitioned IR of each stage on identically seeded
// state: the definition of the correct output, independent of the
// partitioned code under test.
type oracle struct {
	arts   []*gallium.Artifacts
	states []*ir.State
	envs   []ir.Env
}

func (p *pipe) newOracle() *oracle {
	o := &oracle{arts: p.arts, envs: make([]ir.Env, len(p.arts))}
	for i, a := range p.arts {
		st := ir.NewState(a.Prog)
		seedState(p.spec.boxes[i], p.tmpl, st, 0, 1)
		o.states = append(o.states, st)
	}
	return o
}

// exec runs in (a private copy) through every stage and returns the
// output bytes, or nil when some stage drops the packet.
func (o *oracle) exec(in *packet.Packet) ([]byte, error) {
	q := in.Clone()
	for i, a := range o.arts {
		env := &o.envs[i]
		env.State, env.Pkt = o.states[i], q
		res, err := a.Prog.Exec(env)
		if err != nil {
			return nil, err
		}
		if res.Action != ir.ActionSent {
			return nil, nil
		}
	}
	return outBytes(q), nil
}

// verifyWarm compares every delivery of the warm pass, byte for byte,
// with the oracle, then records the oracle's output for each flow's
// steady packet so the timed rounds can be spot-checked. Untimed.
func (p *pipe) verifyWarm() (attempted, failed int, err error) {
	o := p.newOracle()
	if p.spec.churn {
		return p.verifyChurnWarm(o)
	}
	for i := range p.tmpl {
		want, err := o.exec(&p.tmpl[i].first)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: oracle: %w", p.spec.name, err)
		}
		attempted++
		if (want != nil) != (p.fate[i] == 1) || want != nil && !bytes.Equal(want, outBytes(p.warm[i])) {
			failed++
		}
	}
	p.expect = make([][]byte, len(p.tmpl))
	for i := range p.tmpl {
		if p.expect[i], err = o.exec(&p.tmpl[i].steady); err != nil {
			return 0, 0, fmt.Errorf("%s: oracle: %w", p.spec.name, err)
		}
	}
	return attempted, failed, nil
}

// verifyChurnWarm is verifyWarm for the never-repeating NAT flows, whose
// inputs are regenerated (the warm packets were rewritten in place).
func (p *pipe) verifyChurnWarm(o *oracle) (attempted, failed int, err error) {
	g := newChurnGen(rand.New(rand.NewSource(p.seed)))
	inputs := newPackets(p.spec.warmPkts)
	inputs = inputs[:g.fill(inputs)]
	for i, in := range inputs {
		want, err := o.exec(in)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: oracle: %w", p.spec.name, err)
		}
		attempted++
		// The NAT drops nothing this workload sends.
		if want == nil || p.fate[i] != 1 || !bytes.Equal(want, outBytes(p.warm[i])) {
			failed++
		}
	}
	return attempted, failed, nil
}

// prepareRound restores the round's packets from their pristine
// templates (or, on churn, writes the next never-seen flows). Untimed.
func (p *pipe) prepareRound() {
	if p.spec.churn {
		p.roundN = p.gen.fill(p.round)
		return
	}
	p.roundN = len(p.round)
	for i, pk := range p.round {
		*pk = p.tmpl[i%len(p.tmpl)].steady
	}
}

// runRound feeds the prepared round and returns its wall duration.
func (p *pipe) runRound(trace bool) (time.Duration, error) {
	var stamps []time.Time
	if trace {
		stamps = make([]time.Time, (p.roundN+stampEvery-1)/stampEvery)
		p.stamps, p.stampBase = stamps, p.seq
	}
	t0 := time.Now()
	err := p.feed(p.round[:p.roundN], stamps)
	el := time.Since(t0)
	p.stamps = nil
	return el, err
}

// natExtIP is the address mazunat rewrites every outbound source to.
var natExtIP = packet.MakeIPv4Addr(203, 0, 113, 1)

// checkStride samples the round's outputs for comparison with the
// oracle; prime, so successive rounds cover different flows.
const checkStride = 61

// checkRound spot-checks the round's outputs: every checkStride-th
// packet against the oracle's bytes for its flow (on churn, where the
// oracle would have to replay every flow ever sent, against the NAT's
// invariant). Missing deliveries are counted by the caller.
func (p *pipe) checkRound() (failed int) {
	for i := 0; i < p.roundN; i += checkStride {
		pk := p.round[i]
		if p.spec.churn {
			if pk.IP.SrcIP != natExtIP {
				failed++
			}
			continue
		}
		if p.expect == nil {
			continue // two-worker control leg: no sequential oracle
		}
		if want := p.expect[i%len(p.tmpl)]; want != nil && !bytes.Equal(want, outBytes(pk)) {
			failed++
		}
	}
	return failed
}

// expectedDrops is how many of the current round's packets the oracle
// says the middlebox drops.
func (p *pipe) expectedDrops() int64 {
	var n int64
	for i := range p.expect {
		if p.expect[i] == nil {
			n += int64((p.roundN - i + len(p.expect) - 1) / len(p.expect))
		}
	}
	return n
}

// probe measures unloaded latency, one packet in flight: Dispatch to
// delivery callback. On churn a probe is a new flow's SYN followed, at
// its delivery, by the flow's first ACK, timed from the SYN's dispatch
// to the ACK's delivery: the engine releases a slow-path packet before
// its write-back is applied and only holds the flow's next packet for
// it, so the pair is what contains slow path + write-back + visibility
// flip. latUs and dispNs (time inside Dispatch) are appended to.
func (p *pipe) probe(n int, cursor int, latUs, dispNs *[]float64) error {
	p.probing = true
	defer func() { p.probing = false }()
	pk := &p.scratch
	send := func() (time.Time, error) {
		t0 := time.Now()
		_, err := p.sess.Dispatch(p.vt, pk)
		*dispNs = append(*dispNs, float64(time.Since(t0)))
		p.vt += vtStepNs
		p.seq++
		return t0, err
	}
	for i := 0; i < n; i++ {
		if p.spec.churn {
			k := p.gen.next
			p.gen.next++
			p.gen.write(pk, k, 0)
			t0, err := send()
			if err != nil {
				return err
			}
			<-p.probeAt
			p.gen.write(pk, k, 1)
			if _, err := send(); err != nil {
				return err
			}
			*latUs = append(*latUs, float64((<-p.probeAt).Sub(t0))/1e3)
			continue
		}
		*pk = p.tmpl[(cursor+i)%len(p.tmpl)].steady
		t0, err := send()
		if err != nil {
			return err
		}
		*latUs = append(*latUs, float64((<-p.probeAt).Sub(t0))/1e3)
	}
	return nil
}

// release drops the generator's buffers so a heap reading holds only
// what the session itself keeps.
func (p *pipe) release() {
	p.tmpl, p.warm, p.round, p.expect, p.gen, p.fate = nil, nil, nil, nil, nil, nil
}

func (p *pipe) close() error {
	if p.sess == nil {
		return nil
	}
	_, err := p.sess.Close()
	p.sess = nil
	return err
}

// counters is a snapshot of one session's own accounting.
type counters struct {
	injected, queueDrops, fast, ctlOps int64
	evicted, occupancy, capacity       int64
	batch                              float64 // mean worker batch size
}

// sub takes o's cumulative counts from c; gauges (occupancy, capacity,
// batch) keep c's values.
func (c counters) sub(o counters) counters {
	c.injected -= o.injected
	c.queueDrops -= o.queueDrops
	c.fast -= o.fast
	c.ctlOps -= o.ctlOps
	c.evicted -= o.evicted
	return c
}

// sumCounters adds up a workload's pipelines; batch is their mean.
func sumCounters(per []counters) counters {
	var sum counters
	for _, c := range per {
		sum.injected += c.injected
		sum.queueDrops += c.queueDrops
		sum.fast += c.fast
		sum.ctlOps += c.ctlOps
		sum.evicted += c.evicted
		sum.occupancy += c.occupancy
		sum.capacity += c.capacity
		sum.batch += c.batch / float64(len(per))
	}
	return sum
}

func sessionCounters(s *gallium.Session) (counters, error) {
	rep, err := s.Stats()
	if err != nil {
		return counters{}, err
	}
	c := counters{
		injected: int64(rep.Stats.Injected), queueDrops: int64(rep.Stats.QueueDrops),
		fast: int64(rep.Stats.FastPath), ctlOps: int64(rep.Stats.CtlOps),
	}
	if f := rep.Flow; f != nil {
		c.evicted, c.occupancy, c.capacity = int64(f.Evicted), int64(f.Occupancy), int64(f.Capacity)
	}
	for _, b := range rep.BatchSizes {
		c.batch += float64(b) / float64(len(rep.BatchSizes))
	}
	return c, nil
}

// probeStats is one round's unloaded-latency sample, reduced.
type probeStats struct {
	p50Us, p99Us, dispatchNs float64
}

// inprocSet is a workload of one or more in-process pipelines fed in
// rotation. With several, every rate and latency is the geometric mean
// over the pipelines, so none of them can dominate the figure.
type inprocSet struct {
	pipes  []*pipe
	probes int // latency probes per round, over all pipelines
	cursor int
	// perPipe holds every round's raw ns/packet, by pipeline.
	perPipe [][]float64
}

func newInprocSet(specs []pipeSpec, probes int, seed int64) *inprocSet {
	s := &inprocSet{probes: probes, perPipe: make([][]float64, len(specs))}
	for i, sp := range specs {
		s.pipes = append(s.pipes, newPipe(sp, seed*1000003+int64(i)))
	}
	return s
}

func (s *inprocSet) prepare() {
	for _, p := range s.pipes {
		p.prepare()
	}
}

func (s *inprocSet) setup() error {
	for _, p := range s.pipes {
		if err := p.setup(); err != nil {
			return err
		}
	}
	return nil
}

func (s *inprocSet) verifyWarm() (attempted, failed int, err error) {
	for _, p := range s.pipes {
		a, f, err := p.verifyWarm()
		if err != nil {
			return 0, 0, err
		}
		// Conservation: everything injected came out or was dropped by
		// the middlebox; the engine's queues dropped nothing.
		qd := p.queueDropped.Swap(0)
		if got := p.delivered.Swap(0) + p.mbDropped.Swap(0); got != int64(a) || qd != 0 {
			f += int(int64(a) - got + qd)
		}
		attempted, failed = attempted+a, failed+f
	}
	return attempted, failed, nil
}

func (s *inprocSet) prepareRound() {
	for _, p := range s.pipes {
		p.prepareRound()
	}
}

func (s *inprocSet) runRound(trace bool) (nsPerPkt float64, pkts int, err error) {
	ns := make([]float64, len(s.pipes))
	for i, p := range s.pipes {
		el, err := p.runRound(trace)
		if err != nil {
			return 0, 0, err
		}
		ns[i] = float64(el) / float64(p.roundN)
		s.perPipe[i] = append(s.perPipe[i], ns[i])
		pkts += p.roundN
	}
	return geomean(ns), pkts, nil
}

// checkRound counts the round's failures: missing deliveries, drops the
// oracle did not predict, queue drops, and sampled output mismatches.
// It resets the delivery counters for the next round.
func (s *inprocSet) checkRound() (failed int) {
	for _, p := range s.pipes {
		want := int64(p.roundN) - p.expectedDrops()
		if d := want - p.delivered.Swap(0); d != 0 {
			if d < 0 {
				d = -d
			}
			failed += int(d)
		}
		p.mbDropped.Store(0)
		failed += int(p.queueDropped.Swap(0))
		failed += p.checkRound()
	}
	return failed
}

func (s *inprocSet) probe() (probeStats, int, error) {
	per := s.probes / len(s.pipes)
	var p50, p99, disp []float64
	for _, p := range s.pipes {
		var lat, d []float64
		if err := p.probe(per, s.cursor, &lat, &d); err != nil {
			return probeStats{}, 0, err
		}
		p50 = append(p50, median(lat))
		p99 = append(p99, quantile(lat, 0.99))
		disp = append(disp, mean(d))
		// Probe deliveries are accounted here, not in the next round.
		sent := int64(per)
		if p.spec.churn {
			sent *= 2
		}
		if got := p.delivered.Swap(0); got != sent {
			return probeStats{}, 0, fmt.Errorf("%s: latency probe lost a packet: %d of %d delivered, %d dropped %d qdrop", p.spec.name, got, sent, p.mbDropped.Load(), p.queueDropped.Load())
		}
	}
	s.cursor += per
	return probeStats{p50Us: geomean(p50), p99Us: geomean(p99), dispatchNs: geomean(disp)}, per * len(s.pipes), nil
}

func (s *inprocSet) counters() ([]counters, error) {
	per := make([]counters, len(s.pipes))
	for i, p := range s.pipes {
		var err error
		if per[i], err = sessionCounters(p.sess); err != nil {
			return nil, err
		}
	}
	return per, nil
}

func (s *inprocSet) loadedLatencies() []float64 {
	var out []float64
	for _, p := range s.pipes {
		out = append(out, p.loadedUs...)
		p.loadedUs = p.loadedUs[:0]
	}
	return out
}

func (s *inprocSet) digest() uint64 {
	var h uint64
	for _, p := range s.pipes {
		h = h*1099511628211 ^ p.inputDigest
	}
	return h
}

// dropWarm ends the warm phase: its buffers go, and the delivery
// counters restart for the rounds (verifyWarm, when it ran, has already
// accounted for them).
func (s *inprocSet) dropWarm() {
	for _, p := range s.pipes {
		p.warm, p.fate = nil, nil
		p.delivered.Store(0)
		p.mbDropped.Store(0)
		p.queueDropped.Store(0)
	}
}

func (s *inprocSet) release() {
	for _, p := range s.pipes {
		p.release()
	}
}

func (s *inprocSet) close() error {
	var first error
	for _, p := range s.pipes {
		if err := p.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
