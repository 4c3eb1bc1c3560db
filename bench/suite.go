package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/disagglab/disagg/internal/harness"
	"github.com/disagglab/disagg/internal/sim"
)

// suiteSkipped are the experiments a timed round leaves out, because their
// host cost is not the simulator's to improve or does not repeat:
//
//   - E11, E12, E16 and E20 build 512 MB–2 GB memnode pools per table cell
//     (E20 allocates 10 GB a pass), so their cost is kernel page-fault
//     time: 3–20 s a pass each on the sizing sandbox, swinging 30 % and
//     more run to run, and one pass of them overruns a whole run's time.
//   - E25's retry storms depend on goroutine interleaving: its allocation
//     count swings 25 % and its wall time 47 % between identical passes.
//
// The traced pass still runs all five once for harness.<E>.cpu_ms, and the
// memnode.new_64mb probe measures the page-fault mechanism.
var suiteSkipped = map[string]bool{"E11": true, "E12": true, "E16": true, "E20": true, "E25": true}

// harnessCPUExperiments get their own cpu_ms metric: the eight most
// expensive experiments at the commit that defined the benchmark.
var harnessCPUExperiments = []string{"E1", "E9", "E11", "E12", "E16", "E20", "E25", "E29"}

// suiteWarm are run once per set-up so the heap has grown and code is
// paged in before timing: OLTP engines, query, remote cache, CXL tiering and
// group commit. None of them is page-fault-heavy, so set-up time repeats.
var suiteWarm = []string{"E1", "E5", "E15", "E17", "E24"}

// suiteLists are the experiments a suite_quick run uses: the warm-up of a
// set-up by ID, the timed round, and the traced pass's baseline (every
// experiment, the skipped ones included).
type suiteLists struct {
	warm       []string
	timed, all []harness.Experiment
}

func suiteExperiments(skipped bool) []harness.Experiment {
	var out []harness.Experiment
	for _, e := range harness.All() {
		if skipped || !suiteSkipped[e.ID] {
			out = append(out, e)
		}
	}
	return out
}

// expOutcome is one experiment execution seen from outside.
type expOutcome struct {
	id       string
	panicked string
	checks   int
	passed   int
	tables   string // the rendered tables, the experiment's simulated result
	cpuMs    float64
	wallNs   int64
}

// runExperiment executes e once at quick scale and renders it to a
// buffer, as the CLI would. A panic is reported, not propagated: it is a
// failed operation.
func runExperiment(e harness.Experiment, cfg *sim.Config, tr *tracer, op int64) (out expOutcome) {
	out.id = e.ID
	sp := tr.begin("harness.run", op, e.ID)
	u0, t0 := utimeNs(), time.Now()
	defer func() {
		out.cpuMs = float64(utimeNs()-u0) / 1e6
		out.wallNs = time.Since(t0).Nanoseconds()
		if p := recover(); p != nil {
			out.panicked = fmt.Sprint(p)
			tr.end(sp, "panicked")
			return
		}
		tr.end(sp, "ok")
	}()
	res := e.Run(cfg.Clone(), harness.Quick)
	var buf bytes.Buffer
	harness.Render(&buf, res)
	if res.ID != e.ID || buf.Len() == 0 || len(res.Tables) == 0 || len(res.Checks) == 0 {
		out.panicked = "empty or mislabelled result"
		return out
	}
	var tb strings.Builder
	for _, t := range res.Tables {
		tb.WriteString(t.String())
		tb.WriteByte('\n')
	}
	out.tables = tb.String()
	out.checks = len(res.Checks)
	for _, c := range res.Checks {
		if c.OK {
			out.passed++
		}
	}
	return out
}

func hashText(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

// suitePass runs every experiment of exps once and returns the outcomes
// and the pass's host cost (op = one experiment).
func suitePass(exps []harness.Experiment, cfg *sim.Config, tr *tracer, pass int) ([]expOutcome, cost) {
	outs := make([]expOutcome, 0, len(exps))
	a := readCounters()
	for i, e := range exps {
		outs = append(outs, runExperiment(e, cfg, tr, int64(pass*len(exps)+i+1)))
	}
	return outs, a.until(readCounters(), int64(len(exps)))
}

// suiteTally folds passes into the workload's counts.
type suiteTally struct {
	failures []string
	failed   int64
	shares   []float64 // per pass: share of shape checks passing
}

func (t *suiteTally) add(outs []expOutcome) {
	checks, passed := 0, 0
	for _, o := range outs {
		if o.panicked != "" {
			t.failed++
			t.failures = append(t.failures, fmt.Sprintf("%s: %s", o.id, o.panicked))
			continue
		}
		checks += o.checks
		passed += o.passed
	}
	if checks > 0 {
		t.shares = append(t.shares, float64(passed)/float64(checks))
	}
}

// setupSuite is the suite's set-up: parse the golden file and run the
// warm-up experiments.
func setupSuite(warm []string) (*golden, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	cfg := sim.DefaultConfig()
	for _, id := range warm {
		e, ok := harness.Lookup(id)
		if !ok {
			return nil, fmt.Errorf("suite_quick: warm-up experiment %s is not registered", id)
		}
		if o := runExperiment(e, cfg, nil, 0); o.panicked != "" {
			return nil, fmt.Errorf("suite_quick: warm-up %s: %s", id, o.panicked)
		}
	}
	return g, nil
}

// measureSuite is the untraced run of suite_quick: whole passes over the
// timed subset until the time is up, at least two.
func measureSuite(o options) (*result, error) {
	res := &result{Workload: "suite_quick", Seed: o.seed, Metrics: map[string]metric{}}
	setup, err := o.medianSetup(func() error {
		_, err := setupSuite(o.suite.warm)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setup, "s")
	runtime.GC()

	exps := o.suite.timed
	cfg := sim.DefaultConfig()
	var tally suiteTally
	pass := 0
	rounds, err := timedRounds(o.seconds, func() (cost, error) {
		outs, c := suitePass(exps, cfg, nil, pass)
		pass++
		tally.add(outs)
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	hostMetrics(res, rounds)
	res.Attempted = sumCosts(rounds).ops
	res.Failed = tally.failed
	res.Failures = tally.failures
	res.Correct = len(tally.failures) == 0
	res.set("check_pass_share", median(tally.shares), "share")
	return res, nil
}
