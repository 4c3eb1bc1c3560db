package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// summary is one metric of one workload over the runs of an invocation.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// workloadSummary is what result.json holds per workload.
type workloadSummary struct {
	Runs      int                `json:"runs"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Samples   int64              `json:"sim_samples,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
	Failures  []string           `json:"failures,omitempty"`
}

type resultFile struct {
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Traced    bool                       `json:"traced"`
	Workloads map[string]workloadSummary `json:"workloads"`
}

func summarize(runs []*result) workloadSummary {
	w := workloadSummary{Runs: len(runs), Correct: true, Metrics: map[string]summary{}}
	values := map[string][]float64{}
	for _, r := range runs {
		w.Correct = w.Correct && r.Correct
		w.Attempted += r.Attempted
		w.Failed += r.Failed
		w.Samples = r.Samples
		w.Failures = append(w.Failures, r.Failures...)
		for name, m := range r.Metrics {
			values[name] = append(values[name], m.Value)
		}
	}
	for name, vs := range values {
		w.Metrics[name] = summary{
			Unit: runs[0].Metrics[name].Unit, Median: median(vs),
			Q1: quantile(vs, 0.25), Q3: quantile(vs, 0.75), Values: vs,
		}
	}
	return w
}

func writeResults(path string, o options, all [][]*result) error {
	f := resultFile{Seed: o.seed, Seconds: o.seconds, Traced: o.trace, Workloads: map[string]workloadSummary{}}
	for _, runs := range all {
		f.Workloads[runs[0].Workload] = summarize(runs)
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// verdict holds the old and new summaries of metric d to bound, a share
// of the old median.
func (d metricDef) verdict(bound float64, old, new summary) string {
	worse := new.Median - old.Median
	if d.Better == "higher" {
		worse = -worse
	}
	if old.Median != 0 {
		worse /= old.Median
	}
	spread := max(old.spread(), new.spread())
	switch {
	case spread > bound:
		return "unresolved"
	case worse > bound:
		return "worse"
	case worse < 0 && -worse > spread:
		return "better"
	}
	return "within bound"
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per (metric, workload) present in both
// files — both medians, the ratio new/old (base: old) and, where
// endToEndDefs bounds the metric on that workload, the bound and the
// verdict — and returns how many rows are "worse".
func compareFiles(w io.Writer, oldPath, newPath string) (worse int, err error) {
	oldF, err := readResultFile(oldPath)
	if err != nil {
		return 0, err
	}
	newF, err := readResultFile(newPath)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "%-14s %-40s %14s %14s %9s %7s  %s\n", "workload", "metric", "old", "new", "new/old", "bound", "verdict")
	for _, name := range workloadNames {
		ow, ok1 := oldF.Workloads[name]
		nw, ok2 := newF.Workloads[name]
		if !ok1 || !ok2 {
			continue
		}
		var metrics []string
		for m := range ow.Metrics {
			if _, ok := nw.Metrics[m]; ok {
				metrics = append(metrics, m)
			}
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			o, n := ow.Metrics[m], nw.Metrics[m]
			ratio := 0.0
			if o.Median != 0 {
				ratio = n.Median / o.Median
			}
			bound, verdict := "", ""
			for _, d := range endToEndDefs {
				if b := d.bound(name); d.Name == m && b > 0 {
					bound = fmt.Sprintf("%.2f", b)
					verdict = d.verdict(b, o, n)
					if verdict == "worse" {
						worse++
					}
				}
			}
			fmt.Fprintf(w, "%-14s %-40s %14.6g %14.6g %9.4f %7s  %s\n", name, m, o.Median, n.Median, ratio, bound, verdict)
		}
	}
	return worse, nil
}
