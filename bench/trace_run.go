package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"

	"github.com/disagglab/disagg/internal/sim"
)

// The traced pass of a workload (--trace 1) produces the per-layer
// metrics. It is one invocation with three parts: an untraced baseline
// (per-engine host cost, host time and simulated results, and the
// denominator of trace.overhead_ratio), the traced section at one tenth of
// the op count (wall-clock spans, sim.Registry component accounting,
// allocation attribution at MemProfileRate 1), and the layer probes that
// belong to the workload. Every part has a fixed size, so that counts
// repeat: --seconds does not apply to it.

// hostMark is the start of an invocation, for the host.* metrics.
type hostMark struct {
	c         counters
	gc, total float64
}

func markHost() hostMark {
	gc, total := gcAndTotalCPUSeconds()
	return hostMark{c: readCounters(), gc: gc, total: total}
}

func (m hostMark) report(res *result) {
	now := readCounters()
	gc, total := gcAndTotalCPUSeconds()
	res.set("host.sys_cpu_s", float64(now.stimeNs-m.c.stimeNs)/1e9, "s")
	res.set("host.peak_rss_mb", peakRSSMB(), "MB")
	share := 0.0
	if total > m.total {
		share = (gc - m.gc) / (total - m.total)
	}
	res.set("host.gc_cpu_share", share, "share")
}

// siteTotals is the simulator's own accounting per component: operations
// and simulated microseconds, summed over the sites of that component.
type siteTotals map[string][2]float64

func harvestSites(reg *sim.Registry) siteTotals {
	t := siteTotals{}
	for _, site := range reg.Sites() {
		h := reg.Site(site).Hist
		n := float64(h.Count())
		c := siteComponent(site)
		v := t[c]
		v[0] += n
		v[1] += n * float64(h.Mean()) / 1e3
		t[c] = v
	}
	return t
}

// report writes simsite.<c>.* as the growth since before, per operation.
func (t siteTotals) report(res *result, before siteTotals, ops int64) {
	for _, c := range simComponents {
		res.set("simsite."+c+".ops_per_txn", (t[c][0]-before[c][0])/float64(ops), "count")
		res.set("simsite."+c+".virt_us_per_txn", (t[c][1]-before[c][1])/float64(ops), "sim_us")
	}
}

// allocProfile attributes the bytes allocated between start and stop to
// layers, from the runtime's allocation profile at rate 1.
type allocProfile struct {
	before  map[[32]uintptr]int64
	oldRate int
}

func allocSnapshot() map[[32]uintptr]int64 {
	// The profile lags allocation by up to two collections.
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs := make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			out := make(map[[32]uintptr]int64, n)
			for _, r := range recs[:n] {
				out[r.Stack0] += r.AllocBytes
			}
			return out
		}
	}
}

func startAllocProfile() *allocProfile {
	p := &allocProfile{before: allocSnapshot(), oldRate: runtime.MemProfileRate}
	runtime.MemProfileRate = 1
	return p
}

const internalPrefix = "github.com/disagglab/disagg/internal/"

// layerOf names the layer of the innermost internal/<pkg> frame of stack.
func layerOf(stack [32]uintptr) string {
	n := 0
	for n < len(stack) && stack[n] != 0 {
		n++
	}
	frames := runtime.CallersFrames(stack[:n])
	for {
		f, more := frames.Next()
		if rest, ok := strings.CutPrefix(f.Function, internalPrefix); ok {
			pkg := rest[:strings.IndexAny(rest, "/.")]
			for _, l := range allocLayers {
				if l == pkg {
					return l
				}
			}
			return "other"
		}
		if !more {
			return "other"
		}
	}
}

// stop ends the profile and reports alloc_share.<layer>.
func (p *allocProfile) stop(res *result) {
	after := allocSnapshot()
	runtime.MemProfileRate = p.oldRate
	bytes := map[string]float64{}
	var total float64
	for stack, b := range after {
		if d := float64(b - p.before[stack]); d > 0 {
			bytes[layerOf(stack)] += d
			total += d
		}
	}
	for _, l := range allocLayers {
		share := 0.0
		if total > 0 {
			share = bytes[l] / total
		}
		res.set("alloc_share."+l, share, "share")
	}
}

func sumCosts(cs []cost) cost {
	var s cost
	for _, c := range cs {
		s.add(c)
	}
	return s
}

// fixedRounds runs exactly simRounds rounds.
func fixedRounds(round func() (cost, error)) ([]cost, error) {
	return timedRounds(0, round)
}

func overheadRatio(traced, base cost) float64 {
	if base.utimeNs <= 0 || traced.ops == 0 {
		return 0
	}
	return traced.cpuUsPerOp() / base.cpuUsPerOp()
}

// traceOLTP is the traced pass of an oltp_* workload.
func traceOLTP(spec oltpSpec, o options) (*result, error) {
	mark := markHost()
	spec = o.oltpSpec(spec)
	res := &result{Workload: spec.name, Seed: o.seed, Traced: true, Metrics: map[string]metric{}}

	// Baseline: untraced, the run's own seed.
	base, err := setupOLTP(spec, o.seed, sim.DefaultConfig(), nil)
	if err != nil {
		return nil, err
	}
	baseRounds, err := fixedRounds(base.round)
	if err != nil {
		return nil, err
	}
	baseCost := sumCosts(baseRounds)
	failures := base.verify()
	base.simMetrics(res, true)
	timeMetrics(res, baseRounds)

	// Drift of the simulated results, always at the golden seed.
	if spec.clients == 1 {
		g, err := loadGolden()
		if err != nil {
			return nil, err
		}
		ref := base
		if o.seed != goldenSeed {
			if ref, err = goldenOLTP(spec); err != nil {
				return nil, err
			}
		}
		res.set("sim.drift_cells", float64(g.driftCells(spec.name, ref.engineStats())), "count")
	}

	// Traced section.
	small := spec
	small.perRound = max(spec.perRound/10, 8)
	log := newTraceLog()
	cfg := sim.DefaultConfig()
	cfg.Stats = sim.NewRegistry()
	prof := startAllocProfile()
	run, err := setupOLTP(small, o.seed, cfg, log)
	if err != nil {
		return nil, err
	}
	before := harvestSites(cfg.Stats)
	tracedRounds, err := fixedRounds(run.round)
	if err != nil {
		return nil, err
	}
	tracedCost := sumCosts(tracedRounds)
	harvestSites(cfg.Stats).report(res, before, tracedCost.ops)
	tfailures := run.verify()
	prof.stop(res)
	res.set("trace.overhead_ratio", overheadRatio(tracedCost, baseCost), "ratio")

	if err := runProbes(res, o, spec.name, log.tracer()); err != nil {
		return nil, err
	}
	res.Failed = base.failedOps() + run.failedOps()
	res.Attempted = baseCost.ops + tracedCost.ops
	res.Failures = append(failures, tfailures...)
	res.Correct = len(res.Failures) == 0 && res.Failed == 0
	mark.report(res)
	fillPerLayer(res)
	return res, log.write(filepath.Join(o.outDir, "trace.json"))
}

// traceSuite is the traced pass of suite_quick: one untraced pass over
// every experiment (the skipped ones included), then a traced pass
// over the timed subset.
func traceSuite(o options) (*result, error) {
	mark := markHost()
	res := &result{Workload: "suite_quick", Seed: o.seed, Traced: true, Metrics: map[string]metric{}}
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	subset, all := o.suite.timed, o.suite.all
	inSubset := map[string]bool{}
	for _, e := range subset {
		inSubset[e.ID] = true
	}

	var tally suiteTally
	outs, _ := suitePass(all, sim.DefaultConfig(), nil, 0)
	tally.add(outs)
	baseline := map[string]expOutcome{}
	var base cost
	var timed []expOutcome // the timed subset alone, as the untraced run sees it
	drifted := 0
	for _, out := range outs {
		baseline[out.id] = out
		if inSubset[out.id] {
			timed = append(timed, out)
			base.ops++
			base.utimeNs += int64(out.cpuMs * 1e6)
			base.wallNs += out.wallNs
		}
		if d := g.tableCellsDrifted(out.id, out.tables); d > 0 {
			drifted += d
			res.Notes = append(res.Notes, fmt.Sprintf("%s: %d table cells differ from golden.json", out.id, d))
		}
	}
	for _, id := range harnessCPUExperiments {
		if out, ok := baseline[id]; ok {
			res.set("harness."+id+".cpu_ms", out.cpuMs, "ms")
		}
	}
	timeMetrics(res, []cost{base})
	var timedTally suiteTally
	timedTally.add(timed)
	res.set("check_pass_share", median(timedTally.shares), "share")
	res.set("harness.cells_drifted", float64(drifted), "count")

	log := newTraceLog()
	cfg := sim.DefaultConfig()
	cfg.Stats = sim.NewRegistry()
	prof := startAllocProfile()
	touts, traced := suitePass(subset, cfg, log.tracer(), 1)
	prof.stop(res)
	tally.add(touts)
	harvestSites(cfg.Stats).report(res, siteTotals{}, traced.ops)
	res.set("trace.overhead_ratio", overheadRatio(traced, base), "ratio")
	unstable := 0
	for _, out := range touts {
		if out.panicked == "" && baseline[out.id].tables != out.tables {
			unstable++
			res.Notes = append(res.Notes, out.id+": tables differ between the two passes")
		}
	}
	res.set("harness.nondeterministic_experiments", float64(unstable), "count")

	if err := runProbes(res, o, "suite_quick", log.tracer()); err != nil {
		return nil, err
	}
	res.Attempted = int64(len(all) + len(subset))
	res.Failed = tally.failed
	res.Failures = tally.failures
	res.Correct = len(tally.failures) == 0
	mark.report(res)
	fillPerLayer(res)
	return res, log.write(filepath.Join(o.outDir, "trace.json"))
}
