package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"

	"github.com/disagglab/disagg/internal/sim"
)

// goldenSeed is the seed the checked-in simulated results were recorded
// under. Drift is always measured by re-running that seed, whatever seed
// the run itself was given.
const goldenSeed = 1

// goldenPasses is how many times -update-golden runs each experiment; one
// whose tables differ between any two passes is listed, not recorded.
const goldenPasses = 5

//go:embed golden.json
var goldenJSON []byte

// golden is the checked-in record of simulated results at goldenSeed: the
// reference a change that claims "virtual outputs unchanged" is held to.
type golden struct {
	Seed int64 `json:"seed"`
	// OLTP holds, per single-client workload and engine, the simulated
	// statistics of the first simRounds rounds at scale 1.
	OLTP map[string]map[string]simStats `json:"oltp"`
	// Tables holds the rendered tables of every experiment that
	// reproduced byte-identically at record time, split into lines.
	Tables map[string][]string `json:"tables"`
	// Hashes is a short digest of each entry of Tables.
	Hashes map[string]string `json:"hashes"`
	// Unstable lists the experiments that did not reproduce; their tables
	// depend on goroutine interleaving and cannot be diffed.
	Unstable []string `json:"unstable"`
}

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

// goldenOLTP runs the golden section of a single-client workload: seed
// goldenSeed, untraced, exactly simRounds rounds.
func goldenOLTP(spec oltpSpec) (*oltpRun, error) {
	run, err := setupOLTP(spec, goldenSeed, sim.DefaultConfig(), nil)
	if err != nil {
		return nil, err
	}
	_, err = fixedRounds(run.round)
	return run, err
}

func (r *oltpRun) engineStats() map[string]simStats {
	out := make(map[string]simStats, len(r.targets))
	for _, t := range r.targets {
		out[t.name] = t.sim()
	}
	return out
}

// driftCells counts the simulated statistics of got that differ from the
// golden record of the workload; a missing engine counts all its cells.
func (g *golden) driftCells(workload string, got map[string]simStats) int {
	cells := 0
	for name, s := range got {
		want, ok := g.OLTP[workload][name]
		if !ok {
			cells += 6
			continue
		}
		for _, differs := range []bool{
			s.Samples != want.Samples, s.P50Us != want.P50Us, s.P99Us != want.P99Us,
			s.MeanUs != want.MeanUs, s.NetBPerTxn != want.NetBPerTxn, s.HitRatio != want.HitRatio,
		} {
			if differs {
				cells++
			}
		}
	}
	return cells
}

var cellGap = regexp.MustCompile(`\s{2,}`)

// tableCellsDrifted counts the table cells of experiment id that differ
// from the golden record; -1 when the experiment is not recorded.
func (g *golden) tableCellsDrifted(id, tables string) int {
	want, ok := g.Tables[id]
	if !ok {
		return -1
	}
	got := strings.Split(tables, "\n")
	drift := 0
	for i := 0; i < max(len(want), len(got)); i++ {
		var w, h []string
		if i < len(want) {
			w = cellGap.Split(strings.TrimSpace(want[i]), -1)
		}
		if i < len(got) {
			h = cellGap.Split(strings.TrimSpace(got[i]), -1)
		}
		for j := 0; j < max(len(w), len(h)); j++ {
			if j >= len(w) || j >= len(h) || w[j] != h[j] {
				drift++
			}
		}
	}
	return drift
}

// recordGolden re-records golden.json: the two single-client workloads at
// goldenSeed, and goldenPasses passes over every experiment.
func recordGolden(path string) error {
	g := golden{Seed: goldenSeed, OLTP: map[string]map[string]simStats{}, Tables: map[string][]string{}, Hashes: map[string]string{}}
	for _, w := range []string{"oltp_commit", "oltp_miss"} {
		run, err := goldenOLTP(oltpSpecs[w])
		if err != nil {
			return err
		}
		if failures := run.verify(); len(failures) > 0 {
			return fmt.Errorf("%s: %s", w, failures[0])
		}
		g.OLTP[w] = run.engineStats()
	}
	exps := suiteExperiments(true)
	cfg := sim.DefaultConfig()
	first := map[string]string{}
	unstable := map[string]bool{}
	for pass := 0; pass < goldenPasses; pass++ {
		outs, _ := suitePass(exps, cfg, nil, pass)
		for _, o := range outs {
			if o.panicked != "" {
				return fmt.Errorf("%s: %s", o.id, o.panicked)
			}
			if pass == 0 {
				first[o.id] = o.tables
			} else if first[o.id] != o.tables {
				unstable[o.id] = true
			}
		}
		fmt.Printf("golden: pass %d of %d over %d experiments done\n", pass+1, goldenPasses, len(exps))
	}
	for id, tables := range first {
		if unstable[id] {
			g.Unstable = append(g.Unstable, id)
			continue
		}
		g.Tables[id] = strings.Split(tables, "\n")
		g.Hashes[id] = hashText(tables)
	}
	sort.Strings(g.Unstable)
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
