// Command bench is the repository's benchmark: four closed-loop
// workloads (steady, churn, wire, mix) over the concurrent engine, four
// end-to-end metrics each, and — in a separate traced run — per-layer
// metrics with spans around the calls into each layer. README.md in this
// directory says what every number means; BENCHMARK.json at the
// repository root is the contract the numbers are judged by.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

var workloadNames = []string{"steady", "churn", "wire", "mix"}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// hostFacts are recorded in every result: the numbers compare builds on
// one host and are not line-rate claims.
type hostFacts struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Transport  string `json:"transport"`
}

// result is one workload's run. Its last-line form (correct, attempted,
// failed, metrics) is what the acceptance driver reads; the whole struct
// goes to out/result.<workload>.json for -compare.
type result struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Trace       bool               `json:"trace"`
	Host        hostFacts          `json:"host"`
	Correct     bool               `json:"correct"`
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
	Rounds      int                `json:"rounds"`
	Probes      int64              `json:"probes"`
	InputDigest string             `json:"input_digest"`
	Metrics     map[string]metric  `json:"metrics"`
	Spread      map[string]summary `json:"spread,omitempty"`
	// Counts repeat exactly for a seed: they are taken over the first
	// timed round, a fixed number of packets.
	Counts map[string]float64 `json:"counts,omitempty"`
	// Series holds the per-round (and per-set-up) raw values and
	// calibration, so an estimator can be re-examined offline.
	Series map[string][]float64 `json:"series,omitempty"`
}

func host() hostFacts {
	h := hostFacts{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Commit: "unknown",
		Transport: "loopback, single process, closed loop",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

type cpuTimes struct{ user, sys int64 } // ns

// cpuTime is the process's CPU time so far.
func cpuTime() cpuTimes {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTimes{}
	}
	return cpuTimes{user: ru.Utime.Nano(), sys: ru.Stime.Nano()}
}

// runUntraced produces the four end-to-end metrics of one workload,
// setting it up reps times.
func runUntraced(name string, seed int64, seconds float64, reps int) (*result, error) {
	r, err := measure(name, seed, seconds, reps, false)
	if err != nil {
		return nil, err
	}
	defer r.w.close()
	res, lg := r.res, r.lg
	withBuffers := heapAlloc()
	r.w.release()
	heapMB := (r.populated - r.base - (withBuffers - heapAlloc())) / (1 << 20)

	refSetup := make([]float64, len(r.rawSetup))
	for i, s := range r.rawSetup {
		refSetup[i] = atRef(s, r.setupCals[i])
	}
	res.Correct = res.Failed == 0
	res.Metrics["pps_ref"] = metric{1e9 / median(lg.refNs), "1/s"}
	// The lower quartile of the rounds' medians: whatever disturbs an
	// unloaded probe adds to its time, so the rounds are a floor plus
	// excursions, and the quartile below the median repeated twice as well
	// from run to run as the median did (README, "Two sets of runs").
	res.Metrics["lat_p50_us"] = metric{quantile(lg.lat50, 0.25), "us"}
	res.Metrics["live_heap_mb"] = metric{heapMB, "MB"}
	res.Metrics["setup_s"] = metric{median(refSetup), "s"}
	res.Spread["ns_per_pkt_ref"] = summarize(lg.refNs)
	res.Spread["ns_per_pkt_raw"] = summarize(lg.rawNs)
	res.Spread["lat_p50_us"] = summarize(lg.lat50)
	res.Spread["lat_p50_raw_us"] = summarize(lg.lat50Raw)
	res.Spread["setup_s"] = summarize(refSetup)
	res.Spread["setup_raw_s"] = summarize(r.rawSetup)
	res.Spread["cal_ns"] = summarize(lg.calNs)
	res.Series = map[string][]float64{
		"ns_per_pkt_raw": lg.rawNs, "lat_p50_raw_us": lg.lat50Raw, "round_cal_ns": lg.calNs,
		"setup_raw_s": r.rawSetup, "setup_cal_ns": r.setupCals,
	}
	return res, nil
}

// windowCounts derives the exactly-repeating counts from the engine's
// accounting of the first timed round.
func windowCounts(out map[string]float64, c counters) {
	if c.injected == 0 {
		return
	}
	out["engine.fast_path_pct"] = 100 * float64(c.fast) / float64(c.injected)
	out["engine.ctl_ops_per_kpkt"] = 1000 * float64(c.ctlOps) / float64(c.injected)
	out["flowstate.evicted_per_kpkt"] = 1000 * float64(c.evicted) / float64(c.injected)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// report prints the result for people, writes it to outDir, and prints
// the driver's one-line JSON last.
func report(res *result, outDir string) error {
	fmt.Printf("workload %s  seed %d  %.1fs  trace=%v  (%s; nproc=%d GOMAXPROCS=%d %s; %s; commit %s)\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Host.Transport,
		res.Host.NumCPU, res.Host.GOMAXPROCS, res.Host.GoVersion, res.Host.CPUModel, res.Host.Commit)
	fmt.Printf("  attempted %d  failed %d  rounds %d  probes %d  inputs %s\n",
		res.Attempted, res.Failed, res.Rounds, res.Probes, res.InputDigest)
	for _, n := range sortedKeys(res.Metrics) {
		fmt.Printf("  %-34s %16.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, n := range sortedKeys(res.Spread) {
		s := res.Spread[n]
		fmt.Printf("  spread %-27s n=%-5d q1 %.4f  median %.4f  q3 %.4f\n", n, s.N, s.Q1, s.Median, s.Q3)
	}
	for _, n := range sortedKeys(res.Counts) {
		fmt.Printf("  count  %-27s %.6f\n", n, res.Counts[n])
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	kind := "result"
	if res.Trace {
		kind = "layers"
	}
	if err := os.WriteFile(filepath.Join(outDir, kind+"."+res.Workload+".json"), data, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	workload := flag.String("workload", "all", "steady, churn, wire, mix, or all")
	seed := flag.Int64("seed", 1, "seed every input is derived from")
	seconds := flag.Float64("seconds", 30, "how long each workload is timed after set-up")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and spans instead of end-to-end metrics")
	outDir := flag.String("out", filepath.Join("bench", "out"), "directory for result and trace files")
	compare := flag.Bool("compare", false, "compare two result files or sets (args: A B) against BENCHMARK.json's bounds")
	flag.Parse()

	if *compare {
		if err := compareMain(flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		return
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	ok := true
	for _, name := range names {
		var res *result
		var err error
		t0 := time.Now()
		if *trace != 0 {
			res, err = runTraced(name, *seed, *seconds, *outDir)
		} else {
			res, err = runUntraced(name, *seed, *seconds, setupReps)
		}
		if err == nil {
			err = report(res, *outDir)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "bench: %s done in %.1fs\n", name, time.Since(t0).Seconds())
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}
