package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"gallium"
	"gallium/internal/packet"
)

// minWalkSample is the fewest packets a pipeline's traced sample holds
// (otherwise it is 1 in 64 of a round); walkReps is how many times the
// sample is walked each way. A pass is a few milliseconds, so one pass
// is at the mercy of a single scheduling hiccup; medians over passes
// are not.
const (
	minWalkSample = 512
	walkReps      = 15
)

// walkResult is what replaying a sample through the walker gives.
type walkResult struct {
	untracedNs, tracedNs float64 // ns per packet, spans off / on
	rows                 []layerRow
	packets              int
	failed               int
}

// walkPasses alternates untraced and traced passes over a sample. pass
// prepares and walks one pass and returns how many packets it walked;
// check, untimed, inspects what the pass produced. The result's times
// are medians over passes; its rows are, per layer, the median over the
// traced passes of that pass's self time per packet.
func walkPasses(tr *tracer, pass func() (int, error), check func()) (walkResult, error) {
	var out walkResult
	var un, on []float64
	perLayer := map[string][]layerRow{}
	for rep := 0; rep < walkReps; rep++ {
		for _, traced := range []bool{false, true} {
			tr.on = traced
			lo := len(tr.spans)
			t0 := time.Now()
			n, err := pass()
			el := float64(time.Since(t0)) / float64(n)
			tr.on = false
			if err != nil {
				return out, err
			}
			check()
			out.packets += n
			if !traced {
				un = append(un, el)
				continue
			}
			on = append(on, el)
			rows, _ := tr.selfTimes(lo, len(tr.spans))
			for _, r := range rows {
				perLayer[r.Layer] = append(perLayer[r.Layer], r)
			}
		}
	}
	for layer, rs := range perLayer {
		var ns, calls []float64
		for _, r := range rs {
			ns, calls = append(ns, r.NsPerPkt), append(calls, r.CallsPerPk)
		}
		// A layer absent from a pass (no slow-path packet in it) counts
		// as zero there.
		for len(ns) < walkReps {
			ns, calls = append(ns, 0), append(calls, 0)
		}
		out.rows = append(out.rows, layerRow{Layer: layer, NsPerPkt: median(ns), CallsPerPk: mean(calls)})
	}
	out.untracedNs, out.tracedNs = median(un), median(on)
	return out, nil
}

// walkSample replays a seeded 1-in-64 sample of every pipeline's round
// through the sequential walker, after warming the walker's own switch
// and server with every flow's first packet. Spans accumulate in tr; a
// span's request id is the pipeline index in the high 32 bits and the
// packet's position in the low. With several pipelines the result is
// the mean over them.
func (s *inprocSet) walkSample(tr *tracer, seed int64) (walkResult, error) {
	var out walkResult
	layers := map[string]*layerRow{}
	for pi, p := range s.pipes {
		var ft *gallium.FlowTable
		if p.spec.churn {
			ft = &churnTable
		}
		w, err := newWalker(p.arts, p.spec.boxes, p.tmpl, ft, tr)
		if err != nil {
			return out, err
		}
		n := max(minWalkSample, p.spec.roundPkts/stampEvery)
		var g *churnGen
		var flows []int
		var pkts []*packet.Packet
		if p.spec.churn {
			g = newChurnGen(rand.New(rand.NewSource(p.seed)))
			warm := newPackets(p.spec.warmPkts)
			for _, pk := range warm[:g.fill(warm)] {
				if _, err := w.walk(0, pk); err != nil {
					return out, err
				}
			}
			pkts = newPackets(n + churnInterleave*5)
		} else {
			var buf packet.Packet
			for i := range p.tmpl {
				buf = p.tmpl[i].first
				if _, err := w.walk(0, &buf); err != nil {
					return out, err
				}
			}
			stride := max(1, len(p.tmpl)/n)
			for i := rand.New(rand.NewSource(seed + int64(pi))).Intn(stride); len(flows) < n; i += stride {
				flows = append(flows, i%len(p.tmpl))
			}
			pkts = newPackets(n)
		}
		runtime.GC()
		use := pkts
		res, err := walkPasses(tr, func() (int, error) {
			// Preparing the pass is inside its timing on both sides of
			// the comparison, and a small part of either.
			if g != nil {
				use = pkts[:g.fill(pkts)]
			} else {
				for j, f := range flows {
					*pkts[j] = p.tmpl[f].steady
				}
			}
			for j, pk := range use {
				if _, err := w.walk(int64(pi)<<32|int64(j), pk); err != nil {
					return 0, err
				}
			}
			return len(use), nil
		}, func() {
			// The walker makes the engine's calls, so it must produce the
			// engine's (that is, the oracle's) outputs.
			for j, pk := range use {
				if g != nil {
					if pk.IP.SrcIP != natExtIP {
						out.failed++
					}
				} else if want := p.expect[flows[j]]; want != nil && !bytes.Equal(want, outBytes(pk)) {
					out.failed++
				}
			}
		})
		if err != nil {
			return out, err
		}
		k := float64(len(s.pipes))
		out.untracedNs += res.untracedNs / k
		out.tracedNs += res.tracedNs / k
		out.packets += res.packets
		for _, r := range res.rows {
			if layers[r.Layer] == nil {
				layers[r.Layer] = &layerRow{Layer: r.Layer}
			}
			layers[r.Layer].NsPerPkt += r.NsPerPkt / k
			layers[r.Layer].CallsPerPk += r.CallsPerPk / k
		}
	}
	for _, r := range layers {
		out.rows = append(out.rows, *r)
	}
	return out, nil
}

func (w *wire) walkSample(tr *tracer, seed int64) (walkResult, error) {
	wk, err := newWalker([]*gallium.Artifacts{w.art}, []string{"mazunat"}, nil, nil, tr)
	if err != nil {
		return walkResult{}, err
	}
	for i := range w.tmpl {
		if _, err := wk.walkFrame(0, w.tmpl[i].first.Serialize()); err != nil {
			return walkResult{}, err
		}
	}
	n := max(minWalkSample, wireRoundPkts/stampEvery)
	stride := max(1, len(w.steady)/n)
	var frames [][]byte
	for i := rand.New(rand.NewSource(seed)).Intn(stride); len(frames) < n; i += stride {
		frames = append(frames, w.steady[i%len(w.steady)])
	}
	echoes := make([][]byte, len(frames))
	failed := 0
	runtime.GC()
	res, err := walkPasses(tr, func() (int, error) {
		for j, f := range frames {
			if echoes[j], err = wk.walkFrame(int64(j), f); err != nil {
				return 0, err
			}
		}
		return len(frames), nil
	}, func() {
		for _, e := range echoes {
			if _, ok := w.expect[string(e)]; !ok {
				failed++
			}
		}
	})
	res.failed = failed
	return res, err
}

// drain settles every session (the quiescence barrier on an idle
// session) and returns how long that took.
func (s *inprocSet) drain() (time.Duration, error) {
	t0 := time.Now()
	for _, p := range s.pipes {
		if err := p.sess.Drain(); err != nil {
			return 0, err
		}
	}
	return time.Since(t0) / time.Duration(len(s.pipes)), nil
}

func (w *wire) drain() (time.Duration, error) {
	t0 := time.Now()
	err := w.sess.Drain()
	return time.Since(t0), err
}

// budget prints and returns the layer budget: the walker's per-layer
// self times, and the residual that makes them sum to the engine's raw
// ns/packet. The walker's own loop (bench.walker) is tracing cost, not
// engine cost, and stays below the line.
func budget(name, residualRow string, rows []layerRow, rawNs float64) (residual float64, table []layerRow) {
	var sum, walker float64
	sort.Slice(rows, func(i, j int) bool { return rows[i].NsPerPkt > rows[j].NsPerPkt })
	for _, r := range rows {
		if r.Layer == "bench.walker" {
			walker = r.NsPerPkt
			continue
		}
		sum += r.NsPerPkt
		table = append(table, r)
	}
	residual = rawNs - sum
	table = append(table, layerRow{Layer: residualRow, NsPerPkt: residual})
	fmt.Printf("  layer budget (%s): self ns/packet, summing to engine.ns_per_pkt_raw\n", name)
	for _, r := range table {
		fmt.Printf("    %-24s %12.1f  %5.1f%%  (%.2f calls/packet)\n", r.Layer, r.NsPerPkt, 100*r.NsPerPkt/rawNs, r.CallsPerPk)
	}
	fmt.Printf("    %-24s %12.1f\n", "= ns_per_pkt_raw", rawNs)
	fmt.Printf("    %-24s %12.1f  (walker loop and clock reads; not part of the sum)\n", "bench.walker", walker)
	return residual, table
}

// Shares of --seconds a traced run gives to the timed rounds of the
// workload it is about and to those of each other workload.
const (
	tracedOwnShare   = 0.35
	tracedOtherShare = 0.10
)

// runTraced produces every per-layer metric. It runs all four workloads
// at their own sizes with the accounting the end-to-end run leaves off:
// the named one longest, for the engine's numbers, the layer budget and
// the spans written to outDir; the others briefly, for the layers only
// they exercise (udpio on wire, each middlebox on mix). The layer probes
// follow. Every traced run therefore measures every metric.
func runTraced(name string, seed int64, seconds float64, outDir string) (*result, error) {
	if _, err := newWorkload(name, seed); err != nil {
		return nil, err
	}
	var res *result
	m := map[string]metric{}
	rawNs := map[string]float64{}
	var attempted, failed int64
	for _, wl := range workloadNames {
		share := tracedOtherShare
		if wl == name {
			share = tracedOwnShare
		}
		r, err := measure(wl, seed, share*seconds, 1, true)
		if err != nil {
			return nil, err
		}
		rawNs[wl] = median(r.lg.rawNs)
		switch wl {
		case "wire":
			wireLayers(m, r.w.(*wire), r.lg)
		case "mix":
			mixLayers(m, r.w.(*inprocSet), r)
		}
		if wl == name {
			res = r.res
			err = ownLayers(m, r, seed, outDir)
		}
		r.w.release()
		if cerr := r.w.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		attempted, failed = attempted+r.res.Attempted, failed+r.res.Failed
	}
	m["udpio.frontend_ns"] = metric{rawNs["wire"] - rawNs["steady"], "ns"}

	pa, pf, err := layerProbes(m, seed, seconds)
	if err != nil {
		return nil, err
	}
	res.Seconds = seconds
	res.Metrics = m
	res.Attempted, res.Failed = attempted+pa, failed+pf
	res.Correct = res.Failed == 0
	return res, nil
}

// ownLayers adds what a traced run says about the workload it is named
// for: the engine's accounting over the rounds, and the layer budget of
// a sample replayed through the walker, whose spans go to outDir.
func ownLayers(m map[string]metric, r *run, seed int64, outDir string) error {
	w, res, lg, name := r.w, r.res, r.lg, r.res.Workload
	final := sumCounters(r.final)
	var settle []float64
	for i := 0; i < 50; i++ {
		d, err := w.drain()
		if err != nil {
			return err
		}
		settle = append(settle, float64(d)/1e3)
	}
	raw := median(lg.rawNs)
	m["engine.ns_per_pkt_raw"] = metric{raw, "ns"}
	m["engine.cpu_ns_per_pkt"] = metric{(lg.userNs + lg.sysNs) / float64(lg.pkts), "ns"}
	m["engine.allocs_per_pkt"] = metric{median(lg.allocs), "count"}
	m["engine.alloc_bytes_per_pkt"] = metric{median(lg.allocBytes), "B"}
	m["engine.fast_path_pct"] = metric{res.Counts["engine.fast_path_pct"], "%"}
	m["engine.ctl_ops_per_kpkt"] = metric{res.Counts["engine.ctl_ops_per_kpkt"], "count"}
	m["engine.batch_size"] = metric{final.batch, "count"}
	m["engine.queue_drops"] = metric{float64(final.queueDrops), "count"}
	m["engine.dispatch_ns"] = metric{median(lg.dispNs), "ns"}
	m["engine.settle_us"] = metric{median(settle), "us"}
	m["engine.lat_p99_us"] = metric{median(lg.lat99), "us"}
	m["engine.lat_loaded_p99_us"] = metric{quantile(lg.loadedUs, 0.99), "us"}
	m["flowstate.occupancy"] = metric{float64(final.occupancy), "count"}
	m["flowstate.evicted_per_kpkt"] = metric{res.Counts["flowstate.evicted_per_kpkt"], "count"}
	m["bench.cal_ns"] = metric{median(lg.calNs), "ns"}
	res.Spread["ns_per_pkt_raw"] = summarize(lg.rawNs)
	res.Spread["cal_ns"] = summarize(lg.calNs)

	tr := newTracer()
	wr, err := w.walkSample(tr, seed)
	if err != nil {
		return err
	}
	residualRow := "engine.residual"
	if name == "wire" {
		residualRow = "engine+udpio.residual" // the walker cannot reach inside the front end
	}
	residual, table := budget(name, residualRow, wr.rows, raw)
	m["engine.residual_ns"] = metric{residual, "ns"}
	m["bench.trace_overhead_pct"] = metric{100 * (wr.tracedNs - wr.untracedNs) / wr.untracedNs, "%"}
	path := filepath.Join(outDir, "trace."+name+".json")
	if err := tr.write(path, name, table); err != nil {
		return err
	}
	fmt.Printf("  walker: %d packets, %.1f ns/packet untraced, %.1f traced; %d spans -> %s\n",
		wr.packets, wr.untracedNs, wr.tracedNs, len(tr.spans), path)
	res.Attempted += int64(wr.packets)
	res.Failed += int64(wr.failed)
	return nil
}

// wireLayers adds the udpio layer's own numbers from wire's traced
// rounds: batch sizes, kernel and user CPU per packet, round trips.
func wireLayers(m map[string]metric, w *wire, lg *roundLog) {
	m["udpio.rx_batch_mean"] = metric{float64(w.load.RxDatagrams) / float64(w.load.RxBatches), "count"}
	m["udpio.tx_batch_mean"] = metric{float64(w.load.TxDatagrams) / float64(w.load.TxBatches), "count"}
	m["udpio.sys_ns_per_pkt"] = metric{lg.sysNs / float64(lg.pkts), "ns"}
	m["udpio.user_ns_per_pkt"] = metric{lg.userNs / float64(lg.pkts), "ns"}
	m["udpio.rtt_p99_us"] = metric{median(lg.lat99), "us"}
	m["udpio.rtt_loaded_p50_us"] = metric{median(lg.loadedUs), "us"}
}

// mixLayers gives each of mix's ten pipelines its own line.
func mixLayers(m map[string]metric, s *inprocSet, r *run) {
	for i, p := range s.pipes {
		c := r.final[i].sub(r.afterWarm[i])
		m["middleboxes."+p.spec.name+".ns_per_pkt"] = metric{median(s.perPipe[i]), "ns"}
		m["middleboxes."+p.spec.name+".fast_path_pct"] = metric{100 * float64(c.fast) / float64(c.injected), "%"}
	}
}
