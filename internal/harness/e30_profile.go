package harness

import (
	"encoding/binary"
	"fmt"
	"time"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/aurora"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/sim/fault"
	"github.com/disagglab/disagg/internal/sim/profile"
)

func init() {
	register(Experiment{
		ID:      "E30",
		Title:   "Critical-path attribution, tail exemplars, and SLO burn",
		Claim:   `§1/§2.3: disaggregation trades local access latency for fabric round-trips; per-request attribution (DRackSim, arXiv:2305.09977) makes the trade legible, and tail behavior under contention (arXiv:2207.03027) decides viability. Which substrate dominates each engine's commit path, and how does the breakdown shift under faults?`,
		Aliases: []string{"E-profile"},
		Run:     runE30,
	})
}

const (
	e30Workers  = 4
	e30KeysEach = 8
	e30KeyBase  = 40_000
	e30Seed     = 77
)

// e30Run drives a read-modify-write workload with every transaction
// profiled: workers own disjoint key ranges (uncontended) unless hotKeys
// > 0, in which case all workers hammer that many shared keys. The engine is
// retired when the run returns.
func e30Run(e engine.Engine, p *profile.Profiler, workers, ops, hotKeys int) sim.GroupResult {
	defer retire(e)
	layout := oltpLayout()
	return sim.RunGroup(workers, func(id int, c *sim.Clock) int {
		rng := sim.NewRand(e30Seed, id)
		opts := engine.RunOpts{Retries: 25, Profile: p}
		done := 0
		for i := 0; i < ops; i++ {
			var key uint64
			if hotKeys > 0 {
				key = e30KeyBase + uint64(rng.Intn(hotKeys))
			} else {
				key = e30KeyBase + uint64(id)*e30KeysEach + uint64(rng.Intn(e30KeysEach))
			}
			v := make([]byte, layout.ValSize)
			binary.LittleEndian.PutUint64(v, key<<16|uint64(id)<<8|uint64(i%251)+1)
			err := engine.Run(e, c, opts, func(tx engine.Tx) error {
				if _, err := tx.Read(key); err != nil {
					return err
				}
				return tx.Write(key, v)
			})
			if err == nil {
				done++
			}
		}
		return done
	})
}

// e30Share formats a share as a percentage cell.
func e30Share(a profile.Attribution, comp string) string {
	return fmt.Sprintf("%.1f%%", 100*a.Share(comp))
}

func runE30(cfg *sim.Config, s Scale) *Result {
	r := &Result{ID: "E30", Title: "Critical-path attribution, tail exemplars, SLO burn"}
	ops := pick(s, 120, 600)

	// Arm 1 — clean attribution across the full roster. Every engine runs
	// the same uncontended profiled workload; the analyzer's exclusive
	// self-time attribution must conserve end-to-end latency exactly
	// (checked within 1% to tolerate nothing more than rounding).
	t := r.table("E30: critical-path attribution, clean fabric ("+fmt.Sprint(e30Workers)+" workers)",
		"engine", "txns", "e2e total", "dominant", "rdma", "tcp", "device", "storage", "coherence", "backoff", "residual")
	for _, eng := range roster {
		ecfg := cfg.Clone()
		e := eng.build(ecfg, oltpLayout())
		p := profile.NewProfiler(eng.name, 5)
		e30Run(e, p, e30Workers, ops, 0)
		a := p.Attribution()
		t.Row(eng.name, p.Txns(), a.Total, a.Dominant(),
			e30Share(a, "rdma"), e30Share(a, "tcp"), e30Share(a, "device"), e30Share(a, "storage"),
			e30Share(a, "coherence"), e30Share(a, "backoff"), e30Share(a, profile.Residual))
		gap := a.Sum() - a.Total
		if gap < 0 {
			gap = -gap
		}
		r.check(fmt.Sprintf("%s: components sum to e2e within 1%%", eng.name),
			a.Total > 0 && float64(gap) <= 0.01*float64(a.Total),
			"sum %v vs e2e %v (gap %v over %d txns)", a.Sum(), a.Total, gap, p.Txns())
		r.check(fmt.Sprintf("%s: dominant component is attributable", eng.name),
			a.Dominant() != "" && a.Dominant() != profile.Residual,
			"dominant %q — end-to-end latency must trace to an instrumented substrate, not unbracketed residue", a.Dominant())
	}

	// Arm 2 — attribution shift under fault profiles: the same engine
	// (aurora) and a contended hot-key workload, clean vs delay spikes vs
	// a fabric partition. Injected delays land inside the op brackets, so
	// the fabric components absorb them; conflict retries surface as
	// backoff share.
	t2 := r.table("E30b: aurora attribution shift under faults (hot-key contention)",
		"profile", "txns", "dominant", "rdma", "storage", "backoff", "residual")
	shift := map[string]profile.Attribution{}
	txns := map[string]int64{}
	var tailProf *profile.Profiler
	for _, arm := range []struct {
		name string
		prof string // fault profile name, "" for clean
	}{{"clean", ""}, {"delays", "delays"}, {"partition", "partition"}} {
		ecfg := cfg.Clone()
		if arm.prof != "" {
			for _, fp := range fault.Profiles() {
				if fp.Name == arm.prof {
					ecfg.Fault = fault.New(e30Seed, fp)
				}
			}
		}
		e := aurora.New(ecfg, oltpLayout(), 1024, 1)
		p := profile.NewProfiler("aurora/"+arm.name, 5)
		e30Run(e, p, e30Workers, ops, 4)
		a := p.Attribution()
		shift[arm.name] = a
		txns[arm.name] = p.Txns()
		t2.Row(arm.name, p.Txns(), a.Dominant(),
			e30Share(a, "rdma"), e30Share(a, "storage"), e30Share(a, "backoff"), e30Share(a, profile.Residual))
		if arm.name == "delays" {
			tailProf = p
		}
	}
	// The delays profile injects its spikes inside the op brackets, so they
	// are charged to the faulted component, not smeared into residual: the
	// absolute fabric time per committed transaction must inflate hard.
	perTxn := func(arm, comp string) time.Duration {
		if txns[arm] == 0 {
			return 0
		}
		return shift[arm].Comp[comp] / time.Duration(txns[arm])
	}
	fabricPer := func(arm string) time.Duration { return perTxn(arm, "rdma") + perTxn(arm, "storage") }
	r.check("delay spikes inflate fabric time on the critical path",
		fabricPer("delays") > 2*fabricPer("clean"),
		"fabric time per txn %v clean -> %v under delays (spikes land inside op brackets)",
		fabricPer("clean"), fabricPer("delays"))

	// Deterministic conflict arm: every transaction aborts with ErrConflict
	// twice before committing, so the retry loop's backoff waits are a
	// fixed, scheduler-independent slice of every commit path.
	confP := profile.NewProfiler("aurora/conflict", 1)
	confE := aurora.New(cfg.Clone(), oltpLayout(), 1024, 1)
	sim.RunGroup(1, func(id int, c *sim.Clock) int {
		v := make([]byte, oltpLayout().ValSize)
		for i := 0; i < ops; i++ {
			attempt := 0
			_ = engine.Run(confE, c, engine.RunOpts{Retries: 25, Profile: confP}, func(tx engine.Tx) error {
				attempt++
				if attempt <= 2 {
					return engine.ErrConflict
				}
				return tx.Write(e30KeyBase, v)
			})
		}
		return ops
	})
	retire(confE)
	confA := confP.Attribution()
	r.check("conflict retries surface as backoff share",
		confA.Share("backoff") > 0.01,
		"backoff %.1f%% of e2e with two forced conflicts per txn", 100*confA.Share("backoff"))

	// Arm 3 — tail exemplars: the delay-spiked run's top-k slowest
	// transactions, each a full replayable span tree.
	xs := tailProf.Exemplars()
	t3 := r.table("E30c: tail exemplars (aurora under delay spikes, top-"+fmt.Sprint(len(xs))+")",
		"rank", "duration", "start", "outcome", "dominant")
	sorted := true
	for i, x := range xs {
		if i > 0 && x.Dur > xs[i-1].Dur {
			sorted = false
		}
		outcome := x.Err
		if outcome == "" {
			outcome = "commit"
		}
		t3.Row(i+1, x.Dur, x.Start, outcome, profile.Analyze(x.Root).Dominant())
	}
	r.check("reservoir is bounded and sorted",
		len(xs) > 0 && len(xs) <= 5 && sorted,
		"%d exemplars retained, slowest first", len(xs))
	r.check("slowest exemplar matches the histogram tail",
		len(xs) > 0 && xs[0].Dur == tailProf.Hist().Max(),
		"exemplar %v vs hist max %v — every p99.9 bucket links to a concrete trace", xs[0].Dur, tailProf.Hist().Max())

	// Arm 4 — SLO burn over virtual time: calibrate a latency target from
	// a clean run's p99, then hold aurora to it clean vs through a fabric
	// partition. The burn rate is the window's violating fraction divided
	// by the error budget (1 - objective): sustainable at <= 1, burning
	// above it.
	calP := profile.NewProfiler("aurora/cal", 1)
	calE := aurora.New(cfg.Clone(), oltpLayout(), 1024, 1)
	e30Run(calE, calP, e30Workers, ops, 0)
	target := 2 * calP.Hist().Quantile(0.99)
	slo := profile.SLO{Target: target, Objective: 0.9, Window: time.Millisecond}

	burn := func(withPartition bool) (profile.Status, time.Duration) {
		ecfg := cfg.Clone()
		if withPartition {
			for _, fp := range fault.Profiles() {
				if fp.Name == "partition" {
					ecfg.Fault = fault.New(e30Seed, fp)
				}
			}
		}
		e := aurora.New(ecfg, oltpLayout(), 1024, 1)
		p := profile.NewProfiler("aurora/slo", 1)
		p.SetSLO(slo)
		res := e30Run(e, p, e30Workers, pick(s, 400, 2000), 0)
		return p.SLO().Snapshot(res.MakeSpan), res.MakeSpan
	}
	cleanSt, cleanEnd := burn(false)
	partSt, partEnd := burn(true)
	t4 := r.table("E30d: SLO burn (target "+target.String()+", objective 90%, 1ms window)",
		"arm", "eval at", "good", "bad", "err frac", "burn")
	t4.Row("clean", cleanEnd, cleanSt.Good, cleanSt.Bad, fmt.Sprintf("%.3f", cleanSt.ErrFrac), fmt.Sprintf("%.2fx", cleanSt.Burn))
	t4.Row("partition", partEnd, partSt.Good, partSt.Bad, fmt.Sprintf("%.3f", partSt.ErrFrac), fmt.Sprintf("%.2fx", partSt.Burn))
	r.check("clean run holds the SLO", cleanSt.Good > 0 && cleanSt.Burn <= 1,
		"burn %.2fx at %v", cleanSt.Burn, cleanEnd)
	r.check("partition burns the SLO budget", partSt.Burn > 1,
		"burn %.2fx at %v (window straddles the [2ms,6ms) partition)", partSt.Burn, partEnd)

	r.traceOp(cfg, "txn.profiled", func(c *sim.Clock) {
		e := aurora.New(cfg, oltpLayout(), 1024, 1)
		engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
			return tx.Write(e30KeyBase, make([]byte, oltpLayout().ValSize))
		})
	})
	return r
}
