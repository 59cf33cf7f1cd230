// Command galliumsim runs one middlebox — or a chain of them — through
// the simulator: traffic generators, programmable switch, middlebox
// server. It prints throughput, latency, and path statistics, and can
// stay resident as a live deployment whose control plane galliumctl
// reconfigures over a unix socket.
//
// Every run is one gallium.Session on the concurrent sharded engine
// (-workers shards; -mb may name a chain, firewall,mazunat,l4lb, sharing
// one engine pass). -metrics dumps the observability snapshot as JSON;
// -trace N prints the first N packets' hop traces at the end of the run,
// each one packet's trip on its worker.
//
// The session's ingress is the generated workload by default. With -serve
// PATH it is segment after segment of that workload until interrupted,
// while the galliumctl JSON protocol on the unix socket at PATH reports
// live stats and applies each reconfiguration (firewall rule swap, LB pool
// change, NAT repartition) as one atomic visibility flip. With -listen
// ADDR it is a batched UDP front end (internal/udpio): each datagram is
// one serialized Ethernet frame, and every delivered packet (headers
// rewritten by the middlebox) echoes back to its sender. Interrupting a
// generated run stops it at once; interrupting -serve or -listen drains
// the session and prints the final report and traces.
//
// -send ADDR is the matching traffic source: it ships the standard
// workload's frames to a listening simulator and reports the echoes. It
// reads only -size, -pps and -ms, which it shares with the listener, and
// refuses any other flag by name.
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
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
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
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	var usage usageError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.As(err, &usage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "galliumsim:", err)
		os.Exit(1)
	}
}

// usageError is a command line the flag set refused; the flag set has
// already printed the error and the usage.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

// config is galliumsim's command line.
type config struct {
	mb, mode, cache, pcap, metrics, serve, listen, send string
	workers, size, ms, trace                            int
	pps                                                 float64
}

// parseFlags reads the command line and refuses flags the selected mode
// would never read, each by name.
func parseFlags(args []string) (*config, error) {
	var c config
	fs := flag.NewFlagSet("galliumsim", flag.ContinueOnError)
	fs.StringVar(&c.mb, "mb", "mazunat", "middlebox, or a comma-separated chain: "+strings.Join(gallium.Builtins(), ", "))
	fs.StringVar(&c.mode, "mode", "offloaded", "deployment: offloaded or software")
	fs.IntVar(&c.workers, "workers", 1, "concurrent server shards (engine workers)")
	fs.IntVar(&c.size, "size", 500, "packet size in bytes")
	fs.Float64Var(&c.pps, "pps", 4e6, "offered aggregate packet rate")
	fs.IntVar(&c.ms, "ms", 10, "simulated duration in milliseconds (per segment with -serve)")
	fs.StringVar(&c.cache, "cache", "", "run a table as a §7 switch cache, e.g. -cache conn=512")
	fs.StringVar(&c.pcap, "pcap", "", "write delivered packets to this pcap file")
	fs.StringVar(&c.metrics, "metrics", "", "write the observability snapshot as JSON to this file")
	fs.IntVar(&c.trace, "trace", 0, "print hop-by-hop traces for the first N packets")
	fs.StringVar(&c.serve, "serve", "", "stay resident and answer the galliumctl protocol on this unix socket")
	fs.StringVar(&c.listen, "listen", "", "serve real traffic: read Gallium frames from this UDP address and echo deliveries")
	fs.StringVar(&c.send, "send", "", "ship the workload as UDP datagrams to a listening simulator and report echoes (reads only -size, -pps, -ms)")
	if err := fs.Parse(args); err != nil {
		return nil, usageError{err}
	}
	var unread []string // flags -send does not read: all but the workload's shape
	if c.send != "" {
		fs.Visit(func(f *flag.Flag) {
			if !slices.Contains([]string{"send", "size", "pps", "ms"}, f.Name) {
				unread = append(unread, "-"+f.Name)
			}
		})
	}
	switch {
	case c.listen != "" && c.serve != "":
		return nil, errors.New("-listen and -serve are separate resident modes; pick one")
	case len(unread) > 0:
		return nil, fmt.Errorf("-send is a traffic source of its own; it does not read %s", strings.Join(unread, ", "))
	case c.pcap != "" && (c.listen != "" || c.serve != ""):
		return nil, errors.New("-pcap writes a generated run's deliveries; -listen and -serve do not write it")
	}
	return &c, nil
}

// compileChain compiles -mb's middleboxes into one pipeline, each with
// -cache's table=entries (entries above 0) run as a §7 switch cache.
func compileChain(mbList, cache string) (*gallium.Pipeline, error) {
	var caches map[string]int
	if cache != "" {
		table, count, ok := strings.Cut(cache, "=")
		if !ok || table == "" {
			return nil, fmt.Errorf("bad -cache value %q, want table=entries", cache)
		}
		entries, err := strconv.Atoi(count)
		if err != nil || entries <= 0 {
			return nil, fmt.Errorf("bad -cache entry count %q, want a whole number above 0", count)
		}
		caches = map[string]int{table: entries}
	}
	names := strings.Split(mbList, ",")
	arts := make([]*gallium.Artifacts, 0, len(names))
	for _, name := range names {
		art, err := gallium.CompileBuiltin(strings.TrimSpace(name), gallium.Options{CacheEntries: caches})
		if err != nil {
			return nil, err
		}
		arts = append(arts, art)
	}
	for table := range caches {
		if !slices.ContainsFunc(arts, func(a *gallium.Artifacts) bool {
			g := a.Prog.Global(table)
			return g != nil && g.Kind == ir.KindMap
		}) {
			return nil, fmt.Errorf("-cache: no middlebox of -mb %s declares a map table %q", mbList, table)
		}
	}
	return gallium.Chain(arts...)
}

// run parses galliumsim's command line, runs the mode it selects until
// the mode ends or ctx is cancelled, and prints to stdout.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	c, err := parseFlags(args)
	if err != nil {
		return err
	}
	gen := trafficgen.IperfConfig{
		Conns: 10, PacketSize: c.size, PPS: c.pps,
		DurationNs: int64(c.ms) * 1_000_000, Seed: 7,
	}
	if c.send != "" {
		return runSend(ctx, gen, c.send, stdout)
	}
	chain, err := compileChain(c.mb, c.cache)
	if err != nil {
		return err
	}
	mode, err := gallium.ParseMode(c.mode)
	if err != nil {
		return err
	}
	var reg *obs.Registry
	if c.metrics != "" || c.trace > 0 {
		reg = obs.NewRegistry()
		reg.EnableTracing(c.trace)
	}
	opts := []gallium.Option{
		gallium.WithMode(mode),
		gallium.WithWorkers(c.workers),
		gallium.WithScenario(),
		gallium.WithFlows(gen.Tuples()),
		gallium.WithMetrics(reg),
	}

	var rep *gallium.Report
	var outs []gallium.Delivery // kept only to write -pcap
	if c.listen != "" || c.serve != "" {
		rep, err = resident(ctx, stdout, chain, opts, c, gen)
	} else {
		var mu sync.Mutex
		if c.pcap != "" {
			opts = append(opts, gallium.WithDeliveries(func(d gallium.Delivery) {
				if d.Delivered {
					mu.Lock()
					outs = append(outs, d)
					mu.Unlock()
				}
			}))
		}
		if rep, err = chain.Run(ctx, gen, opts...); err == nil {
			fmt.Fprintf(stdout, "middlebox %s, %s mode, %d worker(s), %dB packets, %.1f Mpps offered, %d ms\n",
				c.mb, c.mode, rep.Workers, c.size, c.pps/1e6, c.ms)
		}
	}
	if err != nil {
		return err
	}
	rep.WriteText(stdout)
	if c.pcap != "" {
		if err := writePcap(stdout, c.pcap, outs); err != nil {
			return err
		}
	}
	return writeMetrics(stdout, reg, c.metrics)
}

// resident keeps the deployment live until ctx is cancelled, then drains
// it: -serve feeds segment after segment of gen beside the control socket,
// -listen serves the UDP front end, whose deliveries echo to their senders.
func resident(ctx context.Context, stdout io.Writer, chain *gallium.Pipeline, opts []gallium.Option,
	c *config, gen trafficgen.IperfConfig) (*gallium.Report, error) {
	var fe *udpio.Frontend
	if c.listen != "" {
		var err error
		if fe, err = udpio.Listen(udpio.Config{Addr: c.listen}); err != nil {
			return nil, err
		}
		defer fe.Close()
		opts = append(opts, gallium.WithDeliveries(fe.Deliver))
	}
	s, err := chain.Open(opts...)
	if err != nil {
		return nil, err
	}
	defer s.Close() // for the error returns; Close is idempotent
	if fe != nil {
		fmt.Fprintf(stdout, "galliumsim: %s (%s mode, %d worker(s)) listening on udp://%s\n",
			c.mb, c.mode, c.workers, fe.Addr())
		fmt.Fprintf(stdout, "galliumsim: feed it with: galliumsim -send %s -size %d -pps %g -ms %d\n",
			fe.Addr(), c.size, c.pps, c.ms)
		if err := fe.Serve(ctx, s); err != nil && !errors.Is(err, context.Canceled) {
			return nil, err
		}
		fmt.Fprintln(stdout, "galliumsim: interrupted, draining")
	} else {
		srv, err := s.Serve(c.serve)
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "galliumsim: serving %s (%s mode, %d worker(s)) on %s\n",
			c.mb, c.mode, c.workers, c.serve)
		fmt.Fprintf(stdout, "galliumsim: feeding %.1f Mpps in %d ms segments until interrupted\n",
			c.pps/1e6, c.ms)
		// segments counts those fed, the one the interrupt cut short too.
		segments := 0
		for ctx.Err() == nil {
			seg := trafficgen.Shifted{WL: gen, OffsetNs: int64(segments) * gen.DurationNs}
			segments++
			if err := s.Feed(untilCancelled{ctx, seg}); err != nil {
				if ctx.Err() != nil {
					break
				}
				return nil, err
			}
		}
		fmt.Fprintf(stdout, "galliumsim: interrupted after %d segment(s), draining\n", segments)
		if err := srv.Close(); err != nil {
			return nil, err
		}
	}
	rep, err := s.Close()
	if err != nil || fe == nil {
		return rep, err
	}
	st := fe.Stats()
	fmt.Fprintf(stdout, "  udp: rx %d datagrams in %d batches, tx %d in %d, decode-errors %d\n",
		st.RxDatagrams, st.RxBatches, st.TxDatagrams, st.TxBatches, st.DecodeErrors)
	return rep, nil
}

// untilCancelled is a workload that stops emitting once ctx is cancelled,
// so an interrupted Feed settles only the packets already in flight.
type untilCancelled struct {
	ctx context.Context
	gallium.Workload
}

func (u untilCancelled) Generate(emit func(tNs int64, pkt *packet.Packet) error) error {
	done := u.ctx.Done()
	return u.Workload.Generate(func(tNs int64, pkt *packet.Packet) error {
		select {
		case <-done:
			return u.ctx.Err()
		default:
			return emit(tNs, pkt)
		}
	})
}

// writePcap stores a generated run's deliveries at path in global time
// order; they arrive in per-worker order.
func writePcap(stdout io.Writer, path string, outs []gallium.Delivery) error {
	sort.Slice(outs, func(i, j int) bool { return outs[i].DeliverNs < outs[j].DeliverNs })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := packet.NewPcapWriter(f)
	for _, d := range outs {
		if err := w.WritePacket(d.DeliverNs, d.Pkt.Serialize()); err != nil {
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "  wrote %d delivered packets to %s\n", len(outs), path)
	return nil
}

// runSend is the traffic side of -listen: serialize the workload, ship it
// over UDP in sendmmsg-style batches, and report the echoes. Cancelling
// ctx closes the socket, which ends the exchange.
func runSend(ctx context.Context, gen trafficgen.IperfConfig, addr string, stdout io.Writer) error {
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
	defer context.AfterFunc(ctx, func() { c.Close() })()
	// Receive concurrently with sending, or early echoes overflow the
	// client's socket buffer while the tail of the workload ships.
	var echoes [][]byte
	var recvErr error
	received := make(chan struct{})
	start := time.Now()
	go func() {
		echoes, recvErr = c.Recv(len(frames), 5*time.Second)
		close(received)
	}()
	if err = c.Send(frames); err != nil {
		c.Close() // ends Recv
	}
	<-received
	if err = cmp.Or(err, recvErr); err != nil {
		return cmp.Or(ctx.Err(), err)
	}
	wall := time.Since(start)
	fmt.Fprintf(stdout, "galliumsim: sent %d datagrams to %s, received %d echoes (%.1f%%) in %.1f ms (%.3f Mpps round-trip)\n",
		len(frames), addr, len(echoes), 100*float64(len(echoes))/max(1, float64(len(frames))),
		float64(wall.Nanoseconds())/1e6, float64(len(echoes))/wall.Seconds()/1e6)
	return nil
}

// writeMetrics prints the recorded hop traces and, given a path, writes
// the registry's snapshot there as JSON.
func writeMetrics(stdout io.Writer, reg *obs.Registry, metricsPath string) error {
	if reg == nil {
		return nil
	}
	snap := reg.Snapshot()
	if len(snap.Traces) > 0 {
		fmt.Fprintf(stdout, "\nhop traces (first %d packets):\n", len(snap.Traces))
		for _, tr := range snap.Traces {
			fmt.Fprint(stdout, tr.Format())
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
		fmt.Fprintf(stdout, "\nwrote %d counters, %d histograms, %d traces to %s\n",
			len(snap.Counters), len(snap.Histograms), len(snap.Traces), metricsPath)
	}
	return nil
}
