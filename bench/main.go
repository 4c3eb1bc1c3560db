// Command bench is the repository's two-clock benchmark: it drives the
// simulator from outside on four workloads and reports both what the
// simulated systems achieve (simulated time, bytes, hit ratios — the
// product) and what computing that costs the host (CPU, wall time,
// allocations — the price). See README.md in this directory.
//
// The driver's contract (BENCHMARK.json at the repository root):
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// prints one JSON object as the last line of standard output. Without
// --workload every workload runs three times and the medians are printed
// and written to out/result.json; -compare and -update-golden are the
// maintainer's tools.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload measured.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples states how many simulated transactions stand behind each
	// simulated percentile.
	Samples  int64    `json:"sim_samples,omitempty"`
	Failures []string `json:"failures,omitempty"`
	// Notes name what a count metric counted (which experiments drifted).
	Notes []string `json:"notes,omitempty"`
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// options are what a run takes. seed, seconds and trace are the driver's
// contract; the rest is fixed by defaultOptions and exists so the test can
// run every workload and probe in milliseconds.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	scale   float64 // multiplier on every frozen op count
	outDir  string  // where result.json and trace.json go
	suite   suiteLists
}

func defaultOptions() options {
	return options{seed: 1, seconds: 12, scale: 1, outDir: "out", suite: suiteLists{
		warm: suiteWarm, timed: suiteExperiments(false), all: suiteExperiments(true),
	}}
}

// runsPerWorkload is how many times an invocation without --workload runs
// each workload; result.json carries the median and quartiles.
const runsPerWorkload = 3

func (o options) scaled(n int, floor int) int {
	return max(int(float64(n)*o.scale), floor)
}

var workloadNames = []string{"oltp_commit", "oltp_miss", "oltp_group", "suite_quick"}

// runWorkload runs one workload once, traced or not.
func runWorkload(name string, o options) (*result, error) {
	if spec, ok := oltpSpecs[name]; ok {
		if o.trace {
			return traceOLTP(spec, o)
		}
		return measureOLTP(spec, o)
	}
	if name == "suite_quick" {
		if o.trace {
			return traceSuite(o)
		}
		return measureSuite(o)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// driverLine is the last line of standard output the driver parses: only
// the metrics BENCHMARK.json lists for the pass that ran.
func driverLine(r *result) string {
	defs := driverEndToEnd()
	if r.Traced {
		defs = perLayerDefs()
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]metric, len(defs))}
	for _, d := range defs {
		out.Metrics[d.Name] = r.Metrics[d.Name]
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and strings only
	}
	return string(b)
}

// printResult writes every metric of r by name with its unit.
func printResult(r *result) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Printf("== %s (seed %d, %s): attempted %d, failed %d, correct %v\n",
		r.Workload, r.Seed, mode, r.Attempted, r.Failed, r.Correct)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("  %-44s %16.6g %s\n", n, m.Value, m.Unit)
	}
	if r.Samples > 0 {
		fmt.Printf("  simulated percentiles rest on %d transactions\n", r.Samples)
	}
	for _, n := range r.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	for _, f := range r.Failures {
		fmt.Printf("  VERIFICATION FAILED: %s\n", f)
	}
}

func main() {
	o := defaultOptions()
	var (
		workload     = flag.String("workload", "", "workload to run once (default: all, three times each)")
		trace        = flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
		compare      = flag.Bool("compare", false, "compare two result.json files: -compare old.json new.json")
		updateGolden = flag.Bool("update-golden", false, "re-record golden.json (seed 1) and exit")
	)
	flag.Int64Var(&o.seed, "seed", o.seed, "seed of every generator")
	flag.Float64Var(&o.seconds, "seconds", o.seconds, "how long the timed section of a run measures")
	flag.Parse()
	o.trace = *trace != 0
	if err := mainErr(*workload, *compare, *updateGolden, flag.Args(), o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, compare, updateGolden bool, args []string, o options) error {
	switch {
	case compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files, got %d", len(args))
		}
		worse, err := compareFiles(os.Stdout, args[0], args[1])
		if err != nil {
			return err
		}
		if worse > 0 {
			return fmt.Errorf("%d metric(s) worse than their bound", worse)
		}
		return nil
	case updateGolden:
		return recordGolden("golden.json")
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	if workload != "" {
		r, err := runWorkload(workload, o)
		if err != nil {
			return err
		}
		printResult(r)
		if err := writeResults(filepath.Join(o.outDir, "result.json"), o, [][]*result{{r}}); err != nil {
			return err
		}
		fmt.Println(driverLine(r))
		if !r.Correct {
			return fmt.Errorf("%s: verification failed", workload)
		}
		return nil
	}
	start := time.Now()
	var all [][]*result
	bad := 0
	for _, name := range workloadNames {
		var rs []*result
		for i := 0; i < runsPerWorkload; i++ {
			r, err := runWorkload(name, o)
			if err != nil {
				return err
			}
			printResult(r)
			if !r.Correct {
				bad++
			}
			rs = append(rs, r)
		}
		all = append(all, rs)
	}
	if err := writeResults(filepath.Join(o.outDir, "result.json"), o, all); err != nil {
		return err
	}
	fmt.Printf("wrote %s in %.1fs\n", filepath.Join(o.outDir, "result.json"), time.Since(start).Seconds())
	if bad > 0 {
		return fmt.Errorf("%d run(s) failed verification", bad)
	}
	return nil
}
