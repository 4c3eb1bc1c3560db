package enginetest

import (
	"errors"
	"testing"

	"github.com/disagglab/disagg/internal/cluster"
	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/sim/fault"
)

// SpecFactory builds a fresh cluster.Spec for one fleet on the given
// substrate config. Like Factory, it must wire cfg into every simulated
// component so the suite's fault injector reaches the fabric.
type SpecFactory func(t *testing.T, cfg *sim.Config) cluster.Spec

// Elastic workload shape: the conformance workload driven through
// cluster.Fleet.Run instead of engine.Run, its read-only path the fleet's
// read-only (session-affinity) dispatch, so the cross-member freshness
// refresh is held to the same floors as ordinary reads. Membership churn
// runs beside one confOps phase: a scale-out once a quarter of its
// operations have begun, a crash drill at half.
const (
	elasticStart   = 2 // initial fleet size
	elasticScaleTo = 3 // mid-workload scale-out target
	elasticCrashID = 1 // the member the crash drill kills
	elasticScaleOp = confWorkers * confOps / 4
	elasticCrashOp = confWorkers * confOps / 2
)

// RunElastic executes the fleet-mode conformance variants: a seeded
// concurrent workload routed through a cluster.Fleet while the fleet
// scales out and a member crashes mid-run — on a clean fabric and under
// every standard fault profile. After each run the fabric heals, every
// key is re-verified through the (post-failover) router, the fleet drains
// back to a single member and is verified again, and the fleet-wide
// accounting invariant Attempts == Commits + Aborts + Shed is checked.
//
// specFor must build a FRESH Spec on the provided config each call.
func RunElastic(t *testing.T, specFor SpecFactory) {
	seed := Seed()
	t.Logf("elastic seed=%d (override with -seed)", seed)
	eachProfile(t, "", func(t *testing.T, p *fault.Profile) {
		cfg, inj, label := faultConfig(p, seed)
		label = "elastic/" + label
		f := cluster.New(specFor(t, cfg), sim.NewClock(), elasticStart)
		run := func(c *sim.Clock, key uint64, opts engine.RunOpts, fn func(tx engine.Tx) error) error {
			fo := cluster.RunOpts{RunOpts: opts, ReadOnly: opts.Replica > 0}
			fo.Replica = 0
			return f.Run(c, key, fo, fn)
		}
		res := newConformanceResult(Layout(t), run, true)
		// Both drills tolerate architectures that cannot run them
		// (partitioned fleets, engines without a Recoverer).
		extendConformanceWorkload(res, seed, confOps, func(c *sim.Clock, next func() int64) {
			scaled := false
			for n := next(); n > 0; n = next() {
				if !scaled && n >= elasticScaleOp {
					f.ScaleTo(c, elasticScaleTo)
					scaled = true
				}
				if n >= elasticCrashOp {
					err := f.Crash(c, elasticCrashID)
					if err != nil && !errors.Is(err, cluster.ErrUnsupported) && !errors.Is(err, cluster.ErrNoMembers) {
						t.Errorf("crash drill: %v", err)
					}
					return
				}
			}
		})
		if inj != nil {
			inj.Heal()
		}
		t.Logf("profile %s: commits=%d writeErrs=%d readErrs=%d size=%d",
			label, res.commits.Load(), res.writeErrs.Load(), res.readErrs.Load(), f.Size())
		if res.commits.Load() == 0 {
			t.Errorf("no transaction committed under profile %q (seed %d): churn plus faults starve the workload", label, seed)
		}
		reportViolations(t, seed, label, verifyFinalState(res))

		// Drain back to a single member: retirement reassigns shards and must
		// not lose a single acked write. (Partitioned fleets physically move
		// their data back into one partition here.)
		f.ScaleTo(sim.NewClock(), 1)
		reportViolations(t, seed, label+"+drain", verifyFinalState(res))

		if tot := f.Totals(); !tot.Conserved() {
			t.Errorf("fleet accounting broken under profile %q: attempts %d != commits %d + aborts %d + shed %d (seed %d)",
				label, tot.Attempts, tot.Commits, tot.Aborts, tot.Shed, seed)
		}
	})
}
