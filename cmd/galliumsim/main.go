// Command galliumsim runs one middlebox — or a chain of them — through
// the simulator: traffic generators, programmable switch, middlebox
// server. It prints throughput, latency, and path statistics, and can
// stay resident as a live deployment whose control plane galliumctl
// reconfigures over a unix socket.
//
// Traffic streams through the concurrent sharded engine (Artifacts.Run):
// -workers picks the shard count, and the report includes wall-clock
// throughput alongside the virtual-time numbers. -mb takes a comma-
// separated chain (firewall,mazunat,l4lb) sharing one engine pass. With
// -metrics it dumps the full observability snapshot (per-table hit/miss
// counters, server cache statistics, latency histograms) as JSON; with
// -trace N it prints the first N packets' hop traces at the end of the
// run — for -listen and -serve, at drain. Each trace is one packet's trip
// on its worker; with several workers, traces of different flows start in
// whichever order the workers reach them.
//
// With -serve PATH the simulator keeps generating traffic segment after
// segment until interrupted, answering the galliumctl JSON protocol on
// the unix socket at PATH: live stats, firewall rule swaps, LB pool
// changes with draining, NAT port repartitioning — each applied to the
// running engine as one atomic visibility flip.
//
// With -listen ADDR the simulator serves real traffic instead of
// generating its own: a batched UDP front end (internal/udpio) reads
// datagrams — each one serialized Ethernet frame — decodes them into the
// engine, and echoes every delivered packet (headers rewritten by the
// middlebox) back to its sender. -send ADDR is the matching traffic
// source: it ships the standard workload's frames to a listening
// simulator and reports the echoes. The two sides share the workload
// flags, so the listener's scenario whitelist matches the sender's flows.
//
// Usage:
//
//	galliumsim [-mb mazunat | -mb firewall,mazunat,l4lb]
//	           [-mode offloaded|software] [-workers 4]
//	           [-size 500] [-pps 4e6] [-ms 10]
//	           [-metrics out.json] [-trace 5]
//	           [-serve /tmp/gallium.sock]
//	           [-listen 127.0.0.1:9000 | -send 127.0.0.1:9000]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gallium"
	"gallium/internal/ir"
	"gallium/internal/obs"
	"gallium/internal/packet"
	"gallium/internal/trafficgen"
	"gallium/internal/udpio"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "galliumsim:", err)
		os.Exit(1)
	}
}

// parseCache reads -cache's table=entries; the count must be above 0.
func parseCache(cache string) (map[string]int, error) {
	if cache == "" {
		return nil, nil
	}
	table, count, ok := strings.Cut(cache, "=")
	if !ok || table == "" {
		return nil, fmt.Errorf("bad -cache value %q, want table=entries", cache)
	}
	entries, err := strconv.Atoi(count)
	if err != nil || entries <= 0 {
		return nil, fmt.Errorf("bad -cache entry count %q, want a whole number above 0", count)
	}
	return map[string]int{table: entries}, nil
}

// run parses galliumsim's command line and runs the mode it selects.
func run(args []string) error {
	var mbList, modeStr, cache, pcapPath, metricsPath, servePath, listenAddr, sendAddr string
	var workers, size, ms, traceN int
	var pps float64
	fs := flag.NewFlagSet("galliumsim", flag.ExitOnError)
	fs.StringVar(&mbList, "mb", "mazunat", "middlebox, or a comma-separated chain: mazunat, l4lb, firewall, proxy, trojandetector, minilb, ipgateway, ddosdetector")
	fs.StringVar(&modeStr, "mode", "offloaded", "deployment: offloaded or software")
	fs.IntVar(&workers, "workers", 1, "concurrent server shards (engine workers)")
	fs.IntVar(&size, "size", 500, "packet size in bytes")
	fs.Float64Var(&pps, "pps", 4e6, "offered aggregate packet rate")
	fs.IntVar(&ms, "ms", 10, "simulated duration in milliseconds (per segment with -serve)")
	fs.StringVar(&cache, "cache", "", "run a table as a §7 switch cache, e.g. -cache conn=512")
	fs.StringVar(&pcapPath, "pcap", "", "write delivered packets to this pcap file")
	fs.StringVar(&metricsPath, "metrics", "", "write the observability snapshot as JSON to this file")
	fs.IntVar(&traceN, "trace", 0, "print hop-by-hop traces for the first N packets")
	fs.StringVar(&servePath, "serve", "", "stay resident and answer the galliumctl protocol on this unix socket")
	fs.StringVar(&listenAddr, "listen", "", "serve real traffic: read Gallium frames from this UDP address and echo deliveries")
	fs.StringVar(&sendAddr, "send", "", "ship the workload as UDP datagrams to a listening simulator and report echoes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	resident := listenAddr != "" || servePath != ""
	switch {
	case listenAddr != "" && servePath != "":
		return errors.New("-listen and -serve are separate resident modes; pick one")
	case sendAddr != "" && resident:
		return errors.New("-send is a traffic source of its own; it does not combine with -listen or -serve")
	case pcapPath != "" && resident:
		return errors.New("-pcap writes a generated run's deliveries; -listen and -serve do not write it")
	}
	gen := trafficgen.IperfConfig{
		Conns: 10, PacketSize: size, PPS: pps,
		DurationNs: int64(ms) * 1_000_000, Seed: 7,
	}
	if sendAddr != "" {
		// Pure traffic source: no middlebox of its own.
		return runSend(gen, sendAddr)
	}

	caches, err := parseCache(cache)
	if err != nil {
		return err
	}
	names := strings.Split(mbList, ",")
	arts := make([]*gallium.Artifacts, 0, len(names))
	for _, name := range names {
		art, err := gallium.CompileBuiltin(strings.TrimSpace(name), gallium.Options{CacheEntries: caches})
		if err != nil {
			return err
		}
		arts = append(arts, art)
	}
	for table := range caches {
		if !slices.ContainsFunc(arts, func(a *gallium.Artifacts) bool {
			g := a.Prog.Global(table)
			return g != nil && g.Kind == ir.KindMap
		}) {
			return fmt.Errorf("-cache: no middlebox of -mb %s declares a map table %q", mbList, table)
		}
	}
	mode, err := gallium.ParseMode(modeStr)
	if err != nil {
		return err
	}

	var reg *obs.Registry
	if metricsPath != "" || traceN > 0 {
		reg = obs.NewRegistry()
		reg.EnableTracing(traceN)
	}

	chain, err := gallium.Chain(arts...)
	if err != nil {
		return err
	}
	if listenAddr != "" {
		return runListen(chain, gen, mbList, modeStr, mode, workers, listenAddr, reg, metricsPath)
	}
	if servePath != "" {
		return runServe(chain, gen, mbList, modeStr, mode, workers, servePath, reg, metricsPath)
	}

	// Deliveries are kept only to write them out.
	type delivered struct {
		deliverNs int64
		pkt       *packet.Packet
	}
	var mu sync.Mutex
	var outs []delivered
	opts := []gallium.Option{
		gallium.WithMode(mode),
		gallium.WithWorkers(workers),
		gallium.WithScenario(),
		gallium.WithMetrics(reg),
	}
	if pcapPath != "" {
		opts = append(opts, gallium.WithDeliveries(func(d gallium.Delivery) {
			if !d.Delivered {
				return
			}
			mu.Lock()
			outs = append(outs, delivered{d.DeliverNs, d.Pkt})
			mu.Unlock()
		}))
	}
	rep, err := chain.Run(context.Background(), gen, opts...)
	if err != nil {
		return err
	}
	fmt.Printf("middlebox %s, %s mode, %d worker(s), %dB packets, %.1f Mpps offered, %d ms\n",
		mbList, modeStr, rep.Workers, size, pps/1e6, ms)
	rep.WriteText(os.Stdout)
	if pcapPath != "" {
		// Deliveries arrive in per-worker order; restore global time order.
		sort.Slice(outs, func(i, j int) bool { return outs[i].deliverNs < outs[j].deliverNs })
		f, err := os.Create(pcapPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w := packet.NewPcapWriter(f)
		for _, d := range outs {
			if err := w.WritePacket(d.deliverNs, d.pkt.Serialize()); err != nil {
				return err
			}
		}
		fmt.Printf("  wrote %d delivered packets to %s\n", len(outs), pcapPath)
	}
	return writeMetrics(reg, metricsPath)
}

// runServe keeps the deployment live: segment after segment of generated
// traffic flows through one Session while the control server answers
// galliumctl on the unix socket. Interrupt (SIGINT/SIGTERM) drains and
// prints the final report.
func runServe(chain *gallium.Pipeline, gen trafficgen.IperfConfig, mbList, modeStr string,
	mode gallium.Mode, workers int, servePath string, reg *obs.Registry, metricsPath string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	s, err := chain.Open(
		gallium.WithMode(mode),
		gallium.WithWorkers(workers),
		gallium.WithScenario(),
		gallium.WithFlows(gen.Tuples()),
		gallium.WithMetrics(reg),
	)
	if err != nil {
		return err
	}
	srv, err := s.Serve(servePath)
	if err != nil {
		_, _ = s.Close()
		return err
	}
	fmt.Printf("galliumsim: serving %s (%s mode, %d worker(s)) on %s\n",
		mbList, modeStr, workers, servePath)
	fmt.Printf("galliumsim: feeding %.1f Mpps in %d ms segments until interrupted\n",
		gen.PPS/1e6, gen.DurationNs/1_000_000)

	var offset int64
	segments := 0
	for ctx.Err() == nil {
		if err := s.Feed(trafficgen.Shifted{WL: gen, OffsetNs: offset}); err != nil {
			if ctx.Err() != nil {
				break
			}
			_ = srv.Close()
			_, _ = s.Close()
			return err
		}
		offset += gen.DurationNs
		segments++
	}

	fmt.Printf("galliumsim: interrupted after %d segment(s), draining\n", segments)
	if err := srv.Close(); err != nil {
		return err
	}
	rep, err := s.Close()
	if err != nil {
		return err
	}
	rep.WriteText(os.Stdout)
	return writeMetrics(reg, metricsPath)
}

// runListen keeps the deployment live behind a batched UDP front end:
// every datagram is one Gallium frame, every delivery echoes back to its
// sender with the middlebox's rewrites applied. Interrupt drains and
// prints the final report.
func runListen(chain *gallium.Pipeline, gen trafficgen.IperfConfig, mbList, modeStr string,
	mode gallium.Mode, workers int, addr string, reg *obs.Registry, metricsPath string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fe, err := udpio.Listen(udpio.Config{Addr: addr})
	if err != nil {
		return err
	}
	defer fe.Close()
	s, err := chain.Open(
		gallium.WithMode(mode),
		gallium.WithWorkers(workers),
		gallium.WithScenario(),
		gallium.WithFlows(gen.Tuples()),
		gallium.WithMetrics(reg),
		gallium.WithDeliveries(fe.Deliver),
	)
	if err != nil {
		return err
	}
	fmt.Printf("galliumsim: %s (%s mode, %d worker(s)) listening on udp://%s\n",
		mbList, modeStr, workers, fe.Addr())
	fmt.Printf("galliumsim: feed it with: galliumsim -send %s -size %d -pps %g -ms %d\n",
		fe.Addr(), gen.PacketSize, gen.PPS, gen.DurationNs/1_000_000)

	if err := fe.Serve(ctx, s); err != nil && !errors.Is(err, context.Canceled) {
		_, _ = s.Close()
		return err
	}
	fmt.Println("galliumsim: interrupted, draining")
	rep, err := s.Close()
	if err != nil {
		return err
	}
	st := fe.Stats()
	fmt.Printf("  udp: rx %d datagrams in %d batches, tx %d in %d, decode-errors %d\n",
		st.RxDatagrams, st.RxBatches, st.TxDatagrams, st.TxBatches, st.DecodeErrors)
	rep.WriteText(os.Stdout)
	return writeMetrics(reg, metricsPath)
}

// runSend is the traffic side of -listen: serialize the workload, ship it
// over UDP in sendmmsg-style batches, and report the echoes.
func runSend(gen trafficgen.IperfConfig, addr string) error {
	var frames [][]byte
	err := gen.Generate(func(_ int64, pkt *packet.Packet) error {
		frames = append(frames, pkt.Serialize())
		return nil
	})
	if err != nil {
		return err
	}
	c, err := udpio.Dial(addr, udpio.Config{})
	if err != nil {
		return err
	}
	defer c.Close()
	// Receive concurrently with sending, or early echoes overflow the
	// client's socket buffer while the tail of the workload ships.
	type recvResult struct {
		echoes [][]byte
		err    error
	}
	rch := make(chan recvResult, 1)
	start := time.Now()
	go func() {
		e, err := c.Recv(len(frames), 5*time.Second)
		rch <- recvResult{e, err}
	}()
	if err := c.Send(frames); err != nil {
		return err
	}
	r := <-rch
	if r.err != nil {
		return r.err
	}
	echoes := r.echoes
	wall := time.Since(start)
	fmt.Printf("galliumsim: sent %d datagrams to %s, received %d echoes (%.1f%%) in %.1f ms (%.3f Mpps round-trip)\n",
		len(frames), addr, len(echoes), 100*float64(len(echoes))/max(1, float64(len(frames))),
		float64(wall.Nanoseconds())/1e6, float64(len(echoes))/wall.Seconds()/1e6)
	return nil
}

// writeMetrics prints the recorded hop traces and, given a path, writes
// the registry's snapshot there as JSON.
func writeMetrics(reg *obs.Registry, metricsPath string) error {
	if reg == nil {
		return nil
	}
	snap := reg.Snapshot()
	if len(snap.Traces) > 0 {
		fmt.Printf("\nhop traces (first %d packets):\n", len(snap.Traces))
		for _, tr := range snap.Traces {
			fmt.Print(tr.Format())
		}
	}
	if metricsPath != "" {
		data, err := snap.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(metricsPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote %d counters, %d histograms, %d traces to %s\n",
			len(snap.Counters), len(snap.Histograms), len(snap.Traces), metricsPath)
	}
	return nil
}
