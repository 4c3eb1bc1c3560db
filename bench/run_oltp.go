package main

import (
	"runtime"
	"time"

	"github.com/disagglab/disagg/internal/sim"
)

// medianSetup sets the workload up repeatedly and reports the median wall
// time in seconds: three times, and a fast set-up until a second and a
// half have gone by (25 times at most, and never for longer than the timed
// section), because a 25 ms set-up timed three times is mostly noise. The
// last instance built is the one measured.
func (o options) medianSetup(setup func() error) (float64, error) {
	budget := time.Duration(min(1.5, o.seconds) * float64(time.Second))
	var secs []float64
	start := time.Now()
	for i := 0; i < 3 || (i < 25 && time.Since(start) < budget); i++ {
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs), nil
}

func (o options) oltpSpec(s oltpSpec) oltpSpec {
	s.perRound = o.scaled(s.perRound, 8)
	s.keys = uint64(o.scaled(int(s.keys), preloadBatch))
	return s
}

// timedRounds runs whole rounds until seconds have passed, and at least
// simRounds of them.
func timedRounds(seconds float64, round func() (cost, error)) ([]cost, error) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var rounds []cost
	for len(rounds) < simRounds || time.Now().Before(deadline) {
		c, err := round()
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, c)
	}
	return rounds, nil
}

// overRounds is the median of f over the rounds of a run.
func overRounds(rounds []cost, f func(cost) float64) float64 {
	vs := make([]float64, len(rounds))
	for i, c := range rounds {
		vs[i] = f(c)
	}
	return median(vs)
}

// timeMetrics reports the host time of a run as medians over its rounds.
func timeMetrics(r *result, rounds []cost) {
	r.set("host_ops_per_s", overRounds(rounds, cost.opsPerSec), "1/s")
	r.set("host_cpu_us_per_op", overRounds(rounds, cost.cpuUsPerOp), "us")
}

// hostMetrics reports the whole host price of a run: time and allocations.
func hostMetrics(r *result, rounds []cost) {
	timeMetrics(r, rounds)
	r.set("host_alloc_kb_per_op", overRounds(rounds, cost.kbPerOp), "KB")
	r.set("host_allocs_per_op", overRounds(rounds, cost.allocsPerOp), "count")
}

// measureOLTP is the untraced run of an oltp_* workload: set up, run
// rounds for o.seconds, verify.
func measureOLTP(spec oltpSpec, o options) (*result, error) {
	spec = o.oltpSpec(spec)
	res := &result{Workload: spec.name, Seed: o.seed, Metrics: map[string]metric{}}
	var run *oltpRun
	setup, err := o.medianSetup(func() (err error) {
		run = nil // let the previous instance go before building the next
		run, err = setupOLTP(spec, o.seed, sim.DefaultConfig(), nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setup, "s")
	runtime.GC()

	rounds, err := timedRounds(o.seconds, run.round)
	if err != nil {
		return nil, err
	}
	hostMetrics(res, rounds)
	res.Attempted = sumCosts(rounds).ops
	res.Failures = run.verify()
	res.Failed = run.failedOps()
	res.Correct = len(res.Failures) == 0 && res.Failed == 0
	run.simMetrics(res, false)
	return res, nil
}

// simMetrics reports the workload's simulated results: geometric means
// over its engines, except bytes per commit (two engines ship none). With
// perEngine it adds the per-engine rows and counters of the traced pass.
func (r *oltpRun) simMetrics(res *result, perEngine bool) {
	var tput, p50, p99, net []float64
	var sum statSnap // engine.Stats growth over the simulated rounds, all engines
	for _, t := range r.targets {
		s := t.sim()
		res.Samples += int64(s.Samples)
		tput = append(tput, s.TxnPerS)
		p50 = append(p50, s.P50Us)
		p99 = append(p99, s.P99Us)
		net = append(net, s.NetBPerTxn)
		sum = sum.plus(1, t.after).plus(-1, t.before)
		if perEngine {
			res.set("engine."+t.name+".sim_us_per_txn", s.MeanUs, "sim_us")
			res.set("engine."+t.name+".host_ns_per_txn", float64(t.host.wallNs)/float64(t.host.ops), "ns")
			res.set("engine."+t.name+".allocs_per_txn", t.host.allocsPerOp(), "count")
		}
	}
	res.set("sim_txn_per_s", geomean(tput), "1/sim_s")
	res.set("sim_txn_p50_us", geomean(p50), "sim_us")
	res.set("sim_txn_p99_us", geomean(p99), "sim_us")
	res.set("sim_net_bytes_per_commit", mean(net), "B")
	if !perEngine {
		return
	}
	res.set("buffer.hit_ratio", ratio(sum[stHits], sum[stHits]+sum[stMisses]), "share")
	res.set("engine.retries_per_txn", ratio(sum[stRetries], res.Samples), "count")
	res.set("engine.abort_share", ratio(sum[stAborts], sum[stAttempts]), "share")
	res.set("engine.group_occupancy", ratio(sum[stGroupCommits], sum[stFlushes]), "count")
}
