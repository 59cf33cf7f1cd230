// Command galliumctl drives the live control plane of a running
// galliumsim -serve deployment: it speaks the newline-delimited JSON
// protocol over the unix socket and applies typed reconfiguration
// operations — each one an atomic visibility flip in the running engine,
// with zero packet loss.
//
// Usage:
//
//	galliumctl -s /tmp/gallium.sock ping
//	galliumctl -s /tmp/gallium.sock stats
//	galliumctl -s /tmp/gallium.sock firewall-swap [-mb firewall] \
//	    10.0.0.1,93.184.216.34,34000,5001,tcp ...
//	galliumctl -s /tmp/gallium.sock firewall-swap -f rules.json
//	galliumctl -s /tmp/gallium.sock lb-pool [-mb l4lb] [-drain] \
//	    10.0.1.1=2,10.0.1.2=1,10.0.1.5=3
//	galliumctl -s /tmp/gallium.sock nat-repartition [-mb mazunat] \
//	    [-bases 0,16384,32768,49152]
//
// Stages of a chained pipeline are addressed by middlebox name (-mb) or
// index (-stage); single-middlebox deployments need neither.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"gallium/internal/ctlplane"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is galliumctl's whole command line: it parses args, talks to the
// socket, prints to stdout and stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("galliumctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { usage(stderr) }
	sock := fs.String("s", "/tmp/gallium.sock", "control socket of the running galliumsim -serve")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		usage(stderr)
		return 2
	}
	if err := command(*sock, fs.Arg(0), fs.Args()[1:], stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "galliumctl:", err)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintf(w, `usage: galliumctl [-s socket] <command> [flags] [args]

commands:
  ping                         liveness check
  stats                        live traffic and switch counters
  firewall-swap [rules...]     replace the firewall whitelist atomically
  lb-pool addr=weight,...      replace the LB backend pool (weights; -drain)
  nat-repartition              re-split the NAT port space across shards
  flow-table -capacity N       retune the flow-state lifecycle live
      [-tcp-syn 5s] [-tcp-est 5m] [-tcp-fin 10s] [-udp 30s] [-policy lru|none]
`)
}

// stageFlags registers the shared stage-addressing flags on a subcommand.
func stageFlags(fs *flag.FlagSet) (*int, *string) {
	stage := fs.Int("stage", 0, "pipeline stage index")
	mb := fs.String("mb", "", "pipeline stage by middlebox name (wins over -stage)")
	return stage, mb
}

func command(sock, cmd string, args []string, stdout, stderr io.Writer) error {
	c, err := ctlplane.Dial(sock)
	if err != nil {
		return err
	}
	defer c.Close()
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)

	switch cmd {
	case "ping":
		if _, err := c.Do(ctlplane.Request{Op: ctlplane.OpPing}); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "ok")
		return nil

	case "stats":
		resp, err := c.Do(ctlplane.Request{Op: ctlplane.OpStats})
		if err != nil {
			return err
		}
		if resp.Stats == nil {
			return fmt.Errorf("server returned no stats")
		}
		resp.Stats.WriteText(stdout)
		return nil

	case "firewall-swap":
		stage, mb := stageFlags(fs)
		file := fs.String("f", "", "read the rule set from this JSON file (array of {src,dst,sport,dport,proto})")
		if err := fs.Parse(args); err != nil {
			return err
		}
		rules, err := parseRules(*file, fs.Args())
		if err != nil {
			return err
		}
		_, err = c.Do(ctlplane.Request{
			Op: ctlplane.OpFirewallSwap, Stage: *stage, StageName: *mb, Rules: rules,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "swapped firewall whitelist: %d rule(s)\n", len(rules))
		return nil

	case "lb-pool":
		stage, mb := stageFlags(fs)
		drain := fs.Bool("drain", false, "keep established connections on removed backends until natural teardown")
		if err := fs.Parse(args); err != nil {
			return err
		}
		if fs.NArg() != 1 {
			return fmt.Errorf("lb-pool wants one addr=weight,... argument")
		}
		pool, err := parsePool(fs.Arg(0))
		if err != nil {
			return err
		}
		_, err = c.Do(ctlplane.Request{
			Op: ctlplane.OpLBPool, Stage: *stage, StageName: *mb,
			Backends: pool, Drain: *drain,
		})
		if err != nil {
			return err
		}
		mode := "purging stale connections"
		if *drain {
			mode = "draining"
		}
		fmt.Fprintf(stdout, "replaced LB pool: %d backend(s), %s\n", len(pool), mode)
		return nil

	case "flow-table":
		capacity := fs.Int("capacity", 0, "engine-wide concurrent-flow limit (required, positive)")
		tcpSyn := fs.Duration("tcp-syn", 0, "TCP half-open timeout (0 = runtime default)")
		tcpEst := fs.Duration("tcp-est", 0, "TCP established timeout (0 = runtime default)")
		tcpFin := fs.Duration("tcp-fin", 0, "TCP closing timeout (0 = runtime default)")
		udp := fs.Duration("udp", 0, "UDP session timeout (0 = runtime default)")
		policy := fs.String("policy", "", `eviction policy: "lru" (default) or "none"`)
		if err := fs.Parse(args); err != nil {
			return err
		}
		if fs.NArg() != 0 {
			return fmt.Errorf("flow-table takes flags only, got %q", fs.Args())
		}
		ft := &ctlplane.FlowTableConfig{
			Capacity:         *capacity,
			TCPSynNs:         int64(*tcpSyn),
			TCPEstablishedNs: int64(*tcpEst),
			TCPFinNs:         int64(*tcpFin),
			UDPNs:            int64(*udp),
			EvictPolicy:      *policy,
		}
		if _, err := c.Do(ctlplane.Request{Op: ctlplane.OpFlowTable, FlowTable: ft}); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "retuned flow table: capacity %d\n", *capacity)
		return nil

	case "nat-repartition":
		stage, mb := stageFlags(fs)
		basesArg := fs.String("bases", "", "per-shard first external ports, comma-separated (default: even split)")
		if err := fs.Parse(args); err != nil {
			return err
		}
		var bases []uint16
		if *basesArg != "" {
			for _, p := range strings.Split(*basesArg, ",") {
				v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 16)
				if err != nil {
					return fmt.Errorf("bad -bases entry %q: %v", p, err)
				}
				bases = append(bases, uint16(v))
			}
		}
		_, err = c.Do(ctlplane.Request{
			Op: ctlplane.OpNATRepartition, Stage: *stage, StageName: *mb, Bases: bases,
		})
		if err != nil {
			return err
		}
		if bases == nil {
			fmt.Fprintln(stdout, "repartitioned NAT port space: even split")
		} else {
			fmt.Fprintf(stdout, "repartitioned NAT port space: bases %v\n", bases)
		}
		return nil
	}
	usage(stderr)
	return fmt.Errorf("unknown command %q", cmd)
}

// parseRules reads the new whitelist from -f (JSON) or from positional
// "src,dst,sport,dport,proto" arguments (proto numeric or tcp/udp).
func parseRules(file string, args []string) ([]ctlplane.Rule, error) {
	if file != "" {
		if len(args) > 0 {
			return nil, fmt.Errorf("firewall-swap takes -f or inline rules, not both")
		}
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		var rules []ctlplane.Rule
		if err := json.Unmarshal(data, &rules); err != nil {
			return nil, fmt.Errorf("%s: %v", file, err)
		}
		return rules, nil
	}
	rules := make([]ctlplane.Rule, 0, len(args))
	for _, a := range args {
		parts := strings.Split(a, ",")
		if len(parts) != 5 {
			return nil, fmt.Errorf("bad rule %q, want src,dst,sport,dport,proto", a)
		}
		sport, err := strconv.ParseUint(parts[2], 10, 16)
		if err != nil {
			return nil, fmt.Errorf("bad rule %q: source port: %v", a, err)
		}
		dport, err := strconv.ParseUint(parts[3], 10, 16)
		if err != nil {
			return nil, fmt.Errorf("bad rule %q: destination port: %v", a, err)
		}
		var proto uint64
		switch strings.ToLower(parts[4]) {
		case "tcp":
			proto = 6
		case "udp":
			proto = 17
		default:
			proto, err = strconv.ParseUint(parts[4], 10, 8)
			if err != nil {
				return nil, fmt.Errorf("bad rule %q: protocol: %v", a, err)
			}
		}
		rules = append(rules, ctlplane.Rule{
			Src: parts[0], Dst: parts[1],
			Sport: uint16(sport), Dport: uint16(dport), Proto: uint8(proto),
		})
	}
	return rules, nil
}

// parsePool parses "addr=weight,addr=weight,..." (weight defaults to 1).
func parsePool(arg string) ([]ctlplane.PoolMember, error) {
	var pool []ctlplane.PoolMember
	for _, p := range strings.Split(arg, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		addr, weightStr, found := strings.Cut(p, "=")
		weight := 1
		if found {
			v, err := strconv.Atoi(weightStr)
			if err != nil {
				return nil, fmt.Errorf("bad backend %q: weight: %v", p, err)
			}
			weight = v
		}
		pool = append(pool, ctlplane.PoolMember{Addr: addr, Weight: weight})
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("empty backend pool")
	}
	return pool, nil
}
