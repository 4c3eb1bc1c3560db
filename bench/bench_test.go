package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"github.com/disagglab/disagg/internal/harness"
	"github.com/disagglab/disagg/internal/sim"
)

// testOptions is 1/200 of the frozen op counts, no timed section beyond
// the minimum two rounds, and for the suite the experiments that take
// milliseconds.
func testOptions(t *testing.T, trace bool) options {
	o := defaultOptions()
	o.seconds, o.scale, o.trace, o.outDir = 0, 0.005, trace, t.TempDir()
	var small []harness.Experiment
	for _, id := range []string{"E6", "E7", "E18", "E19", "E21", "E23"} {
		e, ok := harness.Lookup(id)
		if !ok {
			t.Fatalf("experiment %s is not registered", id)
		}
		small = append(small, e)
	}
	o.suite = suiteLists{warm: []string{"E6"}, timed: small, all: small}
	return o
}

// jsonMetric is a metric row of BENCHMARK.json.
type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMirrorsTheTable holds BENCHMARK.json to metrics.go, the
// one table of names, units, directions and bounds.
func TestBenchmarkJSONMirrorsTheTable(t *testing.T) {
	b := readBenchmarkJSON(t)
	rows := func(defs []metricDef) []jsonMetric {
		var out []jsonMetric
		for _, d := range defs {
			out = append(out, jsonMetric{d.Name, d.Unit, d.Better, d.driverBound()})
		}
		return out
	}
	if want := rows(driverEndToEnd()); !slices.Equal(b.EndToEnd, want) {
		t.Errorf("end_to_end is\n%v\nmetrics.go says\n%v", b.EndToEnd, want)
	}
	if want := rows(perLayerDefs()); !slices.Equal(b.PerLayer, want) {
		t.Errorf("per_layer is\n%v\nmetrics.go says\n%v", b.PerLayer, want)
	}
	if len(b.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the driver takes 128", len(b.PerLayer))
	}
	for i, w := range b.Workloads {
		if i >= len(workloadNames) || w.Name != workloadNames[i] {
			t.Fatalf("workloads of BENCHMARK.json are %v, the program has %v", b.Workloads, workloadNames)
		}
	}
}

// TestEveryMetricEmitted runs every workload, traced and untraced, and
// every probe, and holds the driver's last line to BENCHMARK.json: every
// listed name present exactly once, no other name, the listed unit, a
// finite value. Each probe must have run in exactly one traced pass.
func TestEveryMetricEmitted(t *testing.T) {
	b := readBenchmarkJSON(t)
	probed := map[string]int{}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloadNames))
	}
	for _, w := range b.Workloads {
		for _, pass := range []struct {
			trace bool
			defs  []jsonMetric
		}{{false, b.EndToEnd}, {true, b.PerLayer}} {
			o := testOptions(t, pass.trace)
			res, err := runWorkload(w.Name, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, pass.trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d %v", w.Name, pass.trace, res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			var line struct {
				Metrics map[string]metric `json:"metrics"`
			}
			raw := driverLine(res)
			if err := json.Unmarshal([]byte(raw), &line); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w.Name, err)
			}
			for _, d := range pass.defs {
				if !nameRE.MatchString(d.Name) {
					t.Errorf("metric name %q is outside the allowed alphabet", d.Name)
				}
				if n := strings.Count(raw, `"`+d.Name+`":`); n != 1 {
					t.Errorf("%s trace=%v: %s emitted %d times, want 1", w.Name, pass.trace, d.Name, n)
				}
				m, ok := line.Metrics[d.Name]
				if !ok {
					continue
				}
				if m.Unit != d.Unit {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.Name, d.Name, m.Unit, d.Unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s is not finite", w.Name, d.Name)
				}
				if !pass.trace && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, d.Name)
				}
				if strings.HasSuffix(d.Name, ".host_ns") && m.Value != 0 {
					probed[d.Name]++
				}
			}
			if len(line.Metrics) != len(pass.defs) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json lists %d", w.Name, pass.trace, len(line.Metrics), len(pass.defs))
			}
			if pass.trace {
				if _, err := os.Stat(filepath.Join(o.outDir, "trace.json")); err != nil {
					t.Errorf("%s: traced pass wrote no trace.json: %v", w.Name, err)
				}
			}
		}
	}
	hostNs, _ := probeNames()
	for _, n := range hostNs {
		if probed[n] != 1 {
			t.Errorf("probe %s was measured in %d traced passes, want 1", n, probed[n])
		}
	}
}

// TestVerificationCatchesAFlippedValue flips one entry of the reference
// after a clean run and expects the read-back to fail on it.
func TestVerificationCatchesAFlippedValue(t *testing.T) {
	for _, name := range []string{"oltp_commit", "oltp_miss", "oltp_group"} {
		run, err := setupOLTP(testOptions(t, false).oltpSpec(oltpSpecs[name]), 1, sim.DefaultConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fixedRounds(run.round); err != nil {
			t.Fatal(err)
		}
		if failures := run.verify(); len(failures) != 0 {
			t.Fatalf("%s: clean run failed verification: %v", name, failures)
		}
		run.targets[1].clients[0].ref[3]++
		failures := run.verify()
		if len(failures) != 1 || !strings.Contains(failures[0], run.targets[1].name) {
			t.Fatalf("%s: flipped reference entry gave failures %v, want one on %s", name, failures, run.targets[1].name)
		}
	}
}

// TestHotKeyMustHoldAnAcknowledgedValue forges a hot-key value no client
// was acknowledged for.
func TestHotKeyMustHoldAnAcknowledgedValue(t *testing.T) {
	run, err := setupOLTP(testOptions(t, false).oltpSpec(oltpSpecs["oltp_group"]), 1, sim.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tg := run.targets[0]
	for _, cl := range tg.clients {
		clear(cl.acked)
	}
	if bad := run.readBack(tg, nil); !strings.Contains(bad, "no client was acknowledged") {
		t.Fatalf("read-back with an empty acknowledgement set said %q", bad)
	}
}

// TestCompareVerdicts pins the four verdicts of -compare.
func TestCompareVerdicts(t *testing.T) {
	s := func(med, q1, q3 float64) summary { return summary{Median: med, Q1: q1, Q3: q3} }
	r := metricDef{Better: "lower"}
	for _, c := range []struct {
		old, new summary
		want     string
	}{
		{s(10, 9.9, 10.1), s(10.5, 10.4, 10.6), "within bound"},
		{s(10, 9.9, 10.1), s(11.5, 11.4, 11.6), "worse"},
		{s(10, 9.9, 10.1), s(9, 8.9, 9.1), "better"},
		{s(10, 9, 11), s(12, 11.9, 12.1), "unresolved"},
	} {
		if got := r.verdict(0.10, c.old, c.new); got != c.want {
			t.Errorf("verdict(%v -> %v) = %q, want %q", c.old.Median, c.new.Median, got, c.want)
		}
	}
}
