package main

import "strings"

// metricDef is one metric: its name, unit and direction, and for an
// end-to-end metric its regression bounds. This file is the one table
// both BENCHMARK.json and -compare are held to; each quantity has one
// name, whichever pass prints it.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// bounds is the share of the old median by which -compare lets the
	// metric worsen, per workload in workloadNames order. Contention makes
	// oltp_group and the suite noisier than the single-client workloads, so
	// theirs are looser. 0 means no verdict there: the metric does not
	// apply to the workload, or no bound would hold. Per-layer metrics
	// have none.
	bounds [4]float64
}

func everywhere(b float64) [4]float64 { return [4]float64{b, b, b, b} }

// endToEndDefs are the ten end-to-end metrics of the issue. Host time —
// CPU per op and wall throughput — carries no bound: on the sizing sandbox
// identical code moved their medians 22 % (oltp_commit) and 36 %
// (oltp_group) between sets of ten runs minutes apart, so any verdict on
// two result files would be the machine's. They are printed beside the
// others, and a claim about time has to rest on paired, alternating runs
// of parent and change.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", everywhere(0.25)},
	{"host_ops_per_s", "1/s", "higher", [4]float64{}},
	{"host_cpu_us_per_op", "us", "lower", [4]float64{}},
	{"host_alloc_kb_per_op", "KB", "lower", [4]float64{0.02, 0.02, 0.05, 0.05}},
	{"host_allocs_per_op", "count", "lower", [4]float64{0.02, 0.02, 0.05, 0.05}},
	// On oltp_group a few dozen conflict aborts per 16 000 transactions,
	// each a long backoff, set the mean latency and so the throughput; how
	// many there are is the Go scheduler's choice (spread 18 % over eight
	// runs, not narrowed by more rounds). The median latency repeats to the
	// digit, so sim_txn_p50_us keeps its bound there.
	{"sim_txn_per_s", "1/sim_s", "higher", [4]float64{0.02, 0.02, 0, 0}},
	{"sim_txn_p50_us", "sim_us", "lower", [4]float64{0.02, 0.02, 0.10, 0}},
	{"sim_txn_p99_us", "sim_us", "lower", [4]float64{0.02, 0.02, 0, 0}},
	{"sim_net_bytes_per_commit", "B", "lower", [4]float64{0.02, 0.02, 0.10, 0}},
	{"check_pass_share", "share", "higher", [4]float64{0, 0, 0, 0.02}},
}

// bound is the metric's -compare bound on the named workload, 0 for none.
func (d metricDef) bound(workload string) float64 {
	for i, w := range workloadNames {
		if w == workload {
			return d.bounds[i]
		}
	}
	return 0
}

// driverBound is the bound BENCHMARK.json carries. The driver's file holds
// one bound per end-to-end metric and wants the metric on every workload,
// so it takes the metrics bounded everywhere, each with the loosest of its
// bounds. The others return 0 and are listed per layer, under the same
// name: the traced pass reports them from its untraced baseline section.
func (d metricDef) driverBound() float64 {
	loosest := 0.0
	for _, b := range d.bounds {
		if b == 0 {
			return 0
		}
		loosest = max(loosest, b)
	}
	return loosest
}

// driverEndToEnd lists what the driver's last line holds with --trace 0.
func driverEndToEnd() []metricDef {
	var out []metricDef
	for _, d := range endToEndDefs {
		if d.driverBound() > 0 {
			out = append(out, d)
		}
	}
	return out
}

// simComponents are the site-label prefixes the simulated component
// accounting is split by.
var simComponents = []string{"rdma", "tcp", "ssd", "pm", "obj", "logstore", "replica", "volume", "raft", "coherence"}

// allocLayers are the buckets of the allocation attribution.
var allocLayers = []string{"engine", "storagenode", "buffer", "rdma", "sim", "other"}

// perLayerDefs lists what the driver's last line holds with --trace 1, in
// BENCHMARK.json order. Units name the clock: sim_us and 1/sim_s are
// simulated time, everything else is the host's.
func perLayerDefs() []metricDef {
	var d []metricDef
	add := func(name, unit, better string) { d = append(d, metricDef{Name: name, Unit: unit, Better: better}) }
	for _, e := range endToEndDefs {
		if e.driverBound() == 0 {
			add(e.Name, e.Unit, e.Better)
		}
	}
	for _, e := range engineNames {
		add("engine."+e+".host_ns_per_txn", "ns", "lower")
		add("engine."+e+".allocs_per_txn", "count", "lower")
		add("engine."+e+".sim_us_per_txn", "sim_us", "lower")
	}
	hostNs, allocs := probeNames()
	for _, n := range hostNs {
		add(n, "ns", "lower")
	}
	for _, n := range allocs {
		add(n, "count", "lower")
	}
	for _, c := range simComponents {
		add("simsite."+c+".ops_per_txn", "count", "lower")
		add("simsite."+c+".virt_us_per_txn", "sim_us", "lower")
	}
	add("buffer.hit_ratio", "share", "higher")
	add("engine.retries_per_txn", "count", "lower")
	add("engine.abort_share", "share", "lower")
	add("engine.group_occupancy", "count", "higher")
	for _, e := range harnessCPUExperiments {
		add("harness."+e+".cpu_ms", "ms", "lower")
	}
	add("harness.nondeterministic_experiments", "count", "lower")
	add("harness.cells_drifted", "count", "lower")
	add("host.sys_cpu_s", "s", "lower")
	add("host.peak_rss_mb", "MB", "lower")
	add("host.gc_cpu_share", "share", "lower")
	add("sim.drift_cells", "count", "lower")
	add("trace.overhead_ratio", "ratio", "lower")
	for _, l := range allocLayers {
		add("alloc_share."+l, "share", "lower")
	}
	return d
}

// fillPerLayer gives every per-layer metric the workload does not produce
// the value 0 with its unit, so a traced run always prints the whole list.
func fillPerLayer(r *result) {
	for _, d := range perLayerDefs() {
		if _, ok := r.Metrics[d.Name]; !ok {
			r.set(d.Name, 0, d.Unit)
		}
	}
}

// siteComponent maps a simulator site label to its component: the label's
// first element, except that "<engine>.coherence.*" is coherence.
func siteComponent(site string) string {
	if strings.Contains(site, "coherence") {
		return "coherence"
	}
	first, _, _ := strings.Cut(site, ".")
	return first
}
