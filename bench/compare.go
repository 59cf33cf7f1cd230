package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// contract is the part of BENCHMARK.json that -compare applies.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadSet reads one side of a comparison: a result file, a directory
// searched for result files, or a comma-separated list of either. It
// returns every untraced result's metric values by workload and metric.
func loadSet(arg string) (map[string]map[string][]float64, error) {
	set := map[string]map[string][]float64{}
	add := func(path string) error {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil || r.Workload == "" || r.Trace {
			return nil // not an untraced result file
		}
		if set[r.Workload] == nil {
			set[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			set[r.Workload][name] = append(set[r.Workload][name], m.Value)
		}
		return nil
	}
	for _, p := range strings.Split(arg, ",") {
		info, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			if err := add(p); err != nil {
				return nil, err
			}
			continue
		}
		err = filepath.WalkDir(p, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
				return err
			}
			return add(path)
		})
		if err != nil {
			return nil, err
		}
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no result files", arg)
	}
	return set, nil
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the acceptance driver's
// rule). Fewer than two values have no spread.
func quartileSpread(vals []float64) float64 {
	m := len(vals)
	if m < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / median(s)
}

// compareMain prints one row per workload and end-to-end metric: both
// sides' medians, how much worse B is than A, each side's spread, and
// the verdict under the metric's bound.
func compareMain(args []string) error {
	if len(args) != 2 {
		return errors.New("-compare needs two arguments: result files, directories, or comma-separated lists")
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	a, err := loadSet(args[0])
	if err != nil {
		return err
	}
	b, err := loadSet(args[1])
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %-13s %14s %14s %9s %9s %9s %7s  %s\n",
		"workload", "metric", "A", "B", "B worse", "spread A", "spread B", "bound", "verdict")
	worse := 0
	for _, w := range c.Workloads {
		for _, m := range c.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-8s %-13s %14s %14s %9s %9s %9s %6.0f%%  missing\n", w.Name, m.Name, "-", "-", "-", "-", "-", 100*m.Bound)
				continue
			}
			ma, mb := median(va), median(vb)
			delta := (mb - ma) / ma // positive = B larger
			if m.Better == "higher" {
				delta = -delta
			}
			sa, sb := quartileSpread(va), quartileSpread(vb)
			verdict := "ok"
			switch {
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved" // the sets disagree with themselves by more than the bound
			case delta > m.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Printf("%-8s %-13s %14.5g %14.5g %+8.2f%% %8.2f%% %8.2f%% %6.0f%%  %s (n=%d,%d %s)\n",
				w.Name, m.Name, ma, mb, 100*delta, 100*sa, 100*sb, 100*m.Bound, verdict, len(va), len(vb), m.Unit)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", worse)
	}
	return nil
}
