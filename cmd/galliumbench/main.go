// Command galliumbench regenerates the paper's evaluation: every table
// and figure of §6 (Table 1, Figure 7, Table 2, Table 3, Figures 8-9) plus
// the headline summary numbers.
//
// Usage:
//
//	galliumbench                 # run everything (full-size workloads)
//	galliumbench -exp fig7       # one experiment
//	galliumbench -quick          # smaller workloads (CI-sized)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"gallium/internal/eval"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1, offloading, fig7, table2, table3, fig8, fig9, headline, loadsweep, ablation, reconfig, flows, scale, all")
	quick := flag.Bool("quick", false, "shrink simulated durations and flow counts")
	flowsOut := flag.String("flowsout", "BENCH_flows.json", "where -exp flows writes the flow-soak artifact")
	checkFlows := flag.String("checkflows", "", "validate an existing BENCH_flows.json artifact and exit")
	scaleOut := flag.String("scaleout", "BENCH_scale.json", "where -exp scale writes the scale-out matrix artifact")
	checkScale := flag.String("checkscale", "", "validate an existing BENCH_scale.json artifact (and gate on speedup where the host allows) and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	flag.Parse()
	if *checkFlows != "" {
		rep, err := eval.LoadFlows(*checkFlows)
		if err == nil {
			err = eval.ValidateFlows(rep)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "galliumbench:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid\n%s", *checkFlows, eval.FormatFlows(rep))
		return
	}
	if *checkScale != "" {
		rep, err := eval.LoadScale(*checkScale)
		if err == nil {
			err = eval.ValidateScale(rep)
		}
		var skip string
		if err == nil {
			skip, err = eval.CheckScaleGate(rep)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "galliumbench:", err)
			os.Exit(1)
		}
		if skip != "" {
			notice(skip)
		}
		fmt.Printf("%s: valid\n%s", *checkScale, eval.FormatScale(rep))
		return
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "galliumbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "galliumbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if err := run(*exp, *quick, *flowsOut, *scaleOut); err != nil {
		fmt.Fprintln(os.Stderr, "galliumbench:", err)
		os.Exit(1)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "galliumbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows retained allocations
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "galliumbench:", err)
			os.Exit(1)
		}
	}
}

func run(exp string, quick bool, flowsOut, scaleOut string) error {
	want := func(name string) bool { return exp == "all" || exp == name }
	ran := false

	if want("scale") {
		rep, err := eval.EngineScale(quick)
		if err != nil {
			return err
		}
		if err := eval.ValidateScale(rep); err != nil {
			return err
		}
		if skip, err := eval.CheckScaleGate(rep); err != nil {
			return err
		} else if skip != "" {
			notice(skip)
		}
		if err := eval.WriteScale(rep, scaleOut); err != nil {
			return err
		}
		fmt.Print(eval.FormatScale(rep))
		fmt.Println("wrote", scaleOut)
		ran = true
	}

	if want("flows") {
		rep, err := eval.FlowSoak(quick)
		if err != nil {
			return err
		}
		if err := eval.ValidateFlows(rep); err != nil {
			return err
		}
		if err := eval.WriteFlows(rep, flowsOut); err != nil {
			return err
		}
		fmt.Print(eval.FormatFlows(rep))
		fmt.Println("wrote", flowsOut)
		ran = true
	}
	if want("table1") {
		rows, err := eval.Table1()
		if err != nil {
			return err
		}
		fmt.Println(eval.FormatTable1(rows))
		ran = true
	}
	if want("offloading") {
		rows, err := eval.Offloading()
		if err != nil {
			return err
		}
		fmt.Println(eval.FormatOffloading(rows))
		ran = true
	}
	if want("fig7") {
		points, err := eval.Figure7(quick)
		if err != nil {
			return err
		}
		fmt.Println(eval.FormatFigure7(points))
		ran = true
	}
	if want("table2") {
		rows, err := eval.Table2()
		if err != nil {
			return err
		}
		fmt.Println(eval.FormatTable2(rows))
		ran = true
	}
	if want("table3") {
		fmt.Println(eval.FormatTable3(eval.Table3()))
		ran = true
	}
	if want("fig8") || want("fig9") {
		fig8, fig9, err := eval.Figures89(quick)
		if err != nil {
			return err
		}
		if want("fig8") {
			fmt.Println(eval.FormatFigure8(fig8))
		}
		if want("fig9") {
			fmt.Println(eval.FormatFigure9(fig9))
		}
		ran = true
	}
	if want("loadsweep") {
		points, err := eval.LoadSweep("mazunat", quick)
		if err != nil {
			return err
		}
		fmt.Println(eval.FormatLoadSweep(points))
		ran = true
	}
	if want("ablation") {
		txt, err := eval.Ablations()
		if err != nil {
			return err
		}
		fmt.Println(txt)
		ran = true
	}
	if want("headline") {
		h, err := eval.Headline(quick)
		if err != nil {
			return err
		}
		fmt.Println(eval.FormatHeadline(h))
		ran = true
	}
	if want("reconfig") {
		rows, err := eval.ReconfigEval(quick)
		if err != nil {
			return err
		}
		fmt.Println(eval.FormatReconfig(rows))
		for _, r := range rows {
			if !r.Accounted() {
				return fmt.Errorf("reconfig: %s lost packets (injected %d != delivered %d + drops %d)",
					r.Middlebox, r.Injected, r.Delivered, r.MBDrops+r.QueueDrops)
			}
		}
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want %s)", exp,
			strings.Join([]string{"table1", "offloading", "fig7", "table2", "table3", "fig8", "fig9", "headline", "loadsweep", "ablation", "reconfig", "flows", "scale", "all"}, ", "))
	}
	return nil
}

// notice surfaces a skipped gate both as a GitHub Actions annotation (so
// the run is visibly marked, not silently green) and as plain text for
// terminals.
func notice(msg string) {
	if os.Getenv("GITHUB_ACTIONS") == "true" {
		fmt.Printf("::notice title=galliumbench::%s\n", msg)
	}
	fmt.Println("galliumbench:", msg)
}
