// Command disagg-bench runs the experiment suite: the "comprehensive
// performance evaluation platform for disaggregated databases" that the
// tutorial's Future Directions section calls for. Each experiment
// regenerates one quantitative claim from the paper and self-checks the
// expected result shape.
//
// Usage:
//
//	disagg-bench -list
//	disagg-bench -run all -scale quick
//	disagg-bench -run E1,E6,E18 -scale full
//	disagg-bench -run E-elastic          # elastic fleet vs fixed node (E28)
//	disagg-bench -run E1 -trace          # span tree of one representative op
//	disagg-bench -run E1,E6,E18 -stats   # per-site latency/byte/meter tables
//	disagg-bench -run E1,E-profile       # with E30 critical-path attribution
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/disagglab/disagg/internal/harness"
	"github.com/disagglab/disagg/internal/sim"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list experiments and exit")
		run     = flag.String("run", "all", "comma-separated experiment IDs, or 'all'")
		scale   = flag.String("scale", "quick", "quick | full")
		rdmaUS  = flag.Float64("rdma-us", 0, "override one-sided RDMA base latency (µs)")
		cxlNS   = flag.Float64("cxl-ns", 0, "override CXL base latency (ns)")
		trace   = flag.Bool("trace", false, "print the span tree of one representative op per experiment")
		stats   = flag.Bool("stats", false, "print per-site telemetry tables after each experiment")
		verbose = flag.Bool("v", false, "print claims before each experiment")
	)
	flag.Parse()

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}
	var sc harness.Scale
	switch *scale {
	case "quick":
		sc = harness.Quick
	case "full":
		sc = harness.Full
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want quick or full)\n", *scale)
		os.Exit(2)
	}
	cfg := sim.DefaultConfig()
	if *rdmaUS > 0 {
		cfg.RDMA.Base = time.Duration(*rdmaUS * float64(time.Microsecond))
	}
	if *cxlNS > 0 {
		cfg.CXL.Base = time.Duration(*cxlNS * float64(time.Nanosecond))
	}

	var selected []harness.Experiment
	if *run == "all" {
		selected = harness.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			id = strings.TrimSpace(id)
			e, ok := harness.Lookup(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	failed := 0
	for _, e := range selected {
		if *verbose {
			fmt.Printf("---- %s claim: %s\n", e.ID, e.Claim)
		}
		start := time.Now()
		ecfg := cfg.Clone()
		ecfg.Trace = *trace
		var reg *sim.Registry
		if *stats {
			reg = sim.NewRegistry()
			ecfg.Stats = reg
		}
		r := e.Run(ecfg, sc)
		harness.Render(os.Stdout, r)
		if reg != nil {
			fmt.Println(reg.Table(e.ID + " per-site telemetry").String())
		}
		if r.Failed() {
			failed++
		}
		if *verbose {
			fmt.Printf("---- %s wall time: %v\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) had failing checks\n", failed)
		os.Exit(1)
	}
}
