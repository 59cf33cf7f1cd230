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
	"gallium/internal/flowstate"
	"gallium/internal/packet"
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

// command parses one subcommand into its request, so a malformed argument
// or rules file fails before anything is sent, then sends it and prints
// the outcome.
func command(sock, cmd string, args []string, stdout, stderr io.Writer) error {
	req, done, err := request(cmd, args, stderr)
	if err != nil {
		return err
	}
	c, err := ctlplane.Dial(sock)
	if err != nil {
		return err
	}
	defer c.Close()
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	if req.Op != ctlplane.OpStats {
		fmt.Fprintln(stdout, done)
		return nil
	}
	if resp.Stats == nil {
		return fmt.Errorf("server returned no stats")
	}
	resp.Stats.WriteText(stdout)
	return nil
}

// request builds the request a subcommand sends and the line printed once
// the server accepts it.
func request(cmd string, args []string, stderr io.Writer) (ctlplane.Request, string, error) {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	req := ctlplane.Request{Op: cmd}
	switch cmd {
	case ctlplane.OpPing:
		return req, "ok", nil

	case ctlplane.OpStats:
		return req, "", nil

	case ctlplane.OpFirewallSwap:
		stage, mb := stageFlags(fs)
		file := fs.String("f", "", "read the rule set from this JSON file (array of {src,dst,sport,dport,proto})")
		if err := fs.Parse(args); err != nil {
			return req, "", err
		}
		rules, err := parseRules(*file, fs.Args())
		if err != nil {
			return req, "", err
		}
		req.Stage, req.StageName, req.Rules = *stage, *mb, rules
		return req, fmt.Sprintf("swapped firewall whitelist: %d rule(s)", len(rules)), nil

	case ctlplane.OpLBPool:
		stage, mb := stageFlags(fs)
		drain := fs.Bool("drain", false, "keep established connections on removed backends until natural teardown")
		if err := fs.Parse(args); err != nil {
			return req, "", err
		}
		if fs.NArg() != 1 {
			return req, "", fmt.Errorf("lb-pool wants one addr=weight,... argument")
		}
		pool, err := parsePool(fs.Arg(0))
		if err != nil {
			return req, "", err
		}
		req.Stage, req.StageName, req.Backends, req.Drain = *stage, *mb, pool, *drain
		mode := "purging stale connections"
		if *drain {
			mode = "draining"
		}
		return req, fmt.Sprintf("replaced LB pool: %d backend(s), %s", len(pool), mode), nil

	case ctlplane.OpFlowTable:
		ft := &flowstate.Config{}
		fs.IntVar(&ft.Capacity, "capacity", 0, "engine-wide concurrent-flow limit (required, positive)")
		fs.DurationVar(&ft.Syn, "tcp-syn", 0, "TCP half-open timeout (0 = runtime default)")
		fs.DurationVar(&ft.Established, "tcp-est", 0, "TCP established timeout (0 = runtime default)")
		fs.DurationVar(&ft.Fin, "tcp-fin", 0, "TCP closing timeout (0 = runtime default)")
		fs.DurationVar(&ft.UDPTimeout, "udp", 0, "UDP session timeout (0 = runtime default)")
		fs.TextVar(&ft.EvictPolicy, "policy", flowstate.EvictLRU, `eviction policy: "lru" or "none"`)
		if err := fs.Parse(args); err != nil {
			return req, "", err
		}
		if fs.NArg() != 0 {
			return req, "", fmt.Errorf("flow-table takes flags only, got %q", fs.Args())
		}
		req.FlowTable = ft
		return req, fmt.Sprintf("retuned flow table: capacity %d", ft.Capacity), nil

	case ctlplane.OpNATRepartition:
		stage, mb := stageFlags(fs)
		basesArg := fs.String("bases", "", "per-shard first external ports, comma-separated (default: even split)")
		if err := fs.Parse(args); err != nil {
			return req, "", err
		}
		req.Stage, req.StageName = *stage, *mb
		if *basesArg == "" {
			return req, "repartitioned NAT port space: even split", nil
		}
		for _, p := range strings.Split(*basesArg, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 16)
			if err != nil {
				return req, "", fmt.Errorf("bad -bases entry %q: %v", p, err)
			}
			req.Bases = append(req.Bases, uint16(v))
		}
		return req, fmt.Sprintf("repartitioned NAT port space: bases %v", req.Bases), nil
	}
	usage(stderr)
	return req, "", fmt.Errorf("unknown command %q", cmd)
}

// parseRules reads the new whitelist from -f (JSON) or from positional
// "src,dst,sport,dport,proto" arguments (proto numeric or tcp/udp).
func parseRules(file string, args []string) ([]packet.FiveTuple, error) {
	if file != "" {
		if len(args) > 0 {
			return nil, fmt.Errorf("firewall-swap takes -f or inline rules, not both")
		}
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		var rules []packet.FiveTuple
		if err := json.Unmarshal(data, &rules); err != nil {
			return nil, fmt.Errorf("%s: %v", file, err)
		}
		return rules, nil
	}
	rules := make([]packet.FiveTuple, 0, len(args))
	for _, a := range args {
		parts := strings.Split(a, ",")
		if len(parts) != 5 {
			return nil, fmt.Errorf("bad rule %q, want src,dst,sport,dport,proto", a)
		}
		src, err := packet.ParseIPv4Addr(parts[0])
		if err != nil {
			return nil, fmt.Errorf("bad rule %q: %v", a, err)
		}
		dst, err := packet.ParseIPv4Addr(parts[1])
		if err != nil {
			return nil, fmt.Errorf("bad rule %q: %v", a, err)
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
		rules = append(rules, packet.FiveTuple{
			SrcIP: src, DstIP: dst,
			SrcPort: uint16(sport), DstPort: uint16(dport), Proto: packet.IPProtocol(proto),
		})
	}
	return rules, nil
}

// parsePool parses "addr=weight,addr=weight,..." (weight defaults to 1).
func parsePool(arg string) ([]ctlplane.Backend, error) {
	var pool []ctlplane.Backend
	for _, p := range strings.Split(arg, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		addrStr, weightStr, found := strings.Cut(p, "=")
		addr, err := packet.ParseIPv4Addr(addrStr)
		if err != nil {
			return nil, fmt.Errorf("bad backend %q: %v", p, err)
		}
		weight := 1
		if found {
			if weight, err = strconv.Atoi(weightStr); err != nil {
				return nil, fmt.Errorf("bad backend %q: weight: %v", p, err)
			}
		}
		pool = append(pool, ctlplane.Backend{Addr: addr, Weight: weight})
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("empty backend pool")
	}
	return pool, nil
}
