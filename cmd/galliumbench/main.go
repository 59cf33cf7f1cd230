// Command galliumbench regenerates the paper's evaluation: every table
// and figure of §6 (table1, offloading, fig7, table2, table3, fig8, fig9)
// plus the headline numbers, two sweeps beyond the paper (loadsweep,
// ablation) and two engine checks (scale, flows) that wait to move into
// bench/. Each experiment checks its own invariants as it runs and exits
// non-zero on a violation; none writes a file.
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
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"gallium/internal/eval"
)

// bench is one galliumbench invocation: where the experiments print, how
// large they run, and the Figures 8-9 simulation both figures read.
type bench struct {
	w     io.Writer
	quick bool
	fig8  []eval.Fig8Point
	fig9  []eval.Fig9Point
}

// figures89 runs the simulation behind Figures 8 and 9 once per
// invocation, so -exp all prints both from one run.
func (b *bench) figures89() error {
	if b.fig8 != nil {
		return nil
	}
	var err error
	b.fig8, b.fig9, err = eval.Figures89(b.quick)
	return err
}

// printed is an experiment that builds a result and prints it in format.
func printed[T any](build func(quick bool) (T, error), format func(T) string) func(*bench) error {
	return func(b *bench) error {
		v, err := build(b.quick)
		if err != nil {
			return err
		}
		fmt.Fprintln(b.w, format(v))
		return nil
	}
}

// experiments is every -exp target in the order -exp all runs them. Each
// runs, prints its result, and returns an error if it failed or broke one
// of its invariants.
var experiments = []struct {
	name string
	run  func(b *bench) error
}{
	{"scale", func(b *bench) error {
		rep, err := eval.EngineScale(b.quick)
		if err != nil {
			return err
		}
		fmt.Fprint(b.w, eval.FormatScale(rep))
		skip, err := eval.CheckScaleGate(rep)
		if skip != "" {
			notice(b.w, skip)
		}
		return err
	}},
	{"flows", func(b *bench) error {
		rep, err := eval.FlowSoak(b.quick)
		if err != nil {
			return err
		}
		fmt.Fprint(b.w, eval.FormatFlows(rep))
		return eval.ValidateFlows(rep)
	}},
	{"table1", printed(func(bool) ([]eval.Table1Row, error) { return eval.Table1() }, eval.FormatTable1)},
	{"offloading", printed(func(bool) ([]eval.OffloadSummary, error) {
		return eval.Offloading()
	}, eval.FormatOffloading)},
	{"fig7", printed(eval.Figure7, eval.FormatFigure7)},
	{"table2", printed(func(bool) ([]eval.Table2Row, error) { return eval.Table2() }, eval.FormatTable2)},
	{"table3", printed(func(bool) ([]eval.Table3Row, error) { return eval.Table3(), nil }, eval.FormatTable3)},
	{"fig8", func(b *bench) error {
		if err := b.figures89(); err != nil {
			return err
		}
		fmt.Fprintln(b.w, eval.FormatFigure8(b.fig8))
		return nil
	}},
	{"fig9", func(b *bench) error {
		if err := b.figures89(); err != nil {
			return err
		}
		fmt.Fprintln(b.w, eval.FormatFigure9(b.fig9))
		return nil
	}},
	{"loadsweep", printed(func(quick bool) ([]eval.LoadPoint, error) {
		return eval.LoadSweep("mazunat", quick)
	}, eval.FormatLoadSweep)},
	{"ablation", printed(func(bool) (string, error) { return eval.Ablations() }, func(s string) string { return s })},
	{"headline", printed(eval.Headline, eval.FormatHeadline)},
}

// experimentNames lists every value -exp accepts.
func experimentNames() string {
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return strings.Join(append(names, "all"), ", ")
}

func main() {
	exp := flag.String("exp", "all", "experiment: "+experimentNames())
	quick := flag.Bool("quick", false, "shrink simulated durations and flow counts")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	flag.Parse()
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
	if err := run(os.Stdout, *exp, *quick); err != nil {
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

// run runs the experiment named exp, or every experiment for "all",
// printing to w.
func run(w io.Writer, exp string, quick bool) error {
	b := &bench{w: w, quick: quick}
	ran := false
	for _, e := range experiments {
		if exp != "all" && exp != e.name {
			continue
		}
		if err := e.run(b); err != nil {
			return err
		}
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want %s)", exp, experimentNames())
	}
	return nil
}

// notice surfaces a skipped gate both as a GitHub Actions annotation (so
// the run is visibly marked, not silently green) and as plain text for
// terminals.
func notice(w io.Writer, msg string) {
	if os.Getenv("GITHUB_ACTIONS") == "true" {
		fmt.Fprintf(w, "::notice title=galliumbench::%s\n", msg)
	}
	fmt.Fprintln(w, "galliumbench:", msg)
}
