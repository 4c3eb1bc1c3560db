package enginetest

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

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
// cluster.Fleet.Run instead of engine.Run, every transaction routed to its
// key's shard owner and kept to that one key (or two keys of that owner),
// and every read held to its key's floor. Membership churn runs beside one
// confOps phase: a scale-out once a quarter of its operations have begun, a
// crash drill at half.
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
// Isolation/OutOfOrderPublish holds a root and a peer to commit validation
// when their publishes to one page reach the shared directory out of LSN
// order.
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
			return f.Run(c, key, cluster.RunOpts{RunOpts: opts}, fn)
		}
		res := newConformanceResult(Layout(t), run, false)
		res.routed, res.owner = true, f.Owner
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
	t.Run("Isolation/OutOfOrderPublish", func(t *testing.T) {
		runOutOfOrderPublish(t, specFor(t, sim.DefaultConfig()))
	})
}

// runOutOfOrderPublish is the lost update two members of one substrate
// could let through when their publishes to one page reach the shared
// coherence directory out of LSN order. Root A commits under group commit
// (groups of two), so w0's increment of k waits in its group holding k's
// lock. Meanwhile w1 commits a write to another key of k's page on peer B
// with a higher LSN, and w3's write to another page on B fills w1's
// coherence round, so w1's publish lands first. w2 then reads k on A, pins
// the page as w1 left it and sees k's bytes from before w0's commit, and
// waits for k's lock. w0's publish comes last, below w1's stamp: unless
// validation sees it, w2 writes back an increment of the old value.
// Partitioned fleets (one engine) and roots without group commit skip.
func runOutOfOrderPublish(t *testing.T, spec cluster.Spec) {
	if spec.Rescale != nil {
		t.Skip("partitioned fleet: one engine, no peers")
	}
	layout := Layout(t)
	a, b := spec.New(0), spec.New(1)
	gc := engine.Caps(a).GroupCommitter
	if gc == nil {
		t.Skip("root has no group commit")
	}
	gc.EnableGroupCommit(2, 50*time.Microsecond)
	per := uint64(layout.PerPage)
	k, sibling, other := 40*per, 40*per+1, 42*per
	opts := engine.RunOpts{Retries: 4}
	incr := func(c *sim.Clock) error {
		return engine.Run(a, c, opts, func(tx engine.Tx) error {
			v, err := tx.Read(k)
			if err != nil {
				return err
			}
			return tx.Write(k, val(layout, tag(v)+1))
		})
	}
	var written atomic.Bool
	errs := make([]error, 4)
	sim.RunGroup(4, func(id int, c *sim.Clock) int {
		switch id {
		case 0:
			errs[id] = incr(c)
		case 1:
			errs[id] = writeKey(b, c, opts, sibling, val(layout, 7))
			written.Store(true)
		case 2:
			sim.Wait(c, written.Load)
			errs[id] = incr(c)
		case 3:
			errs[id] = writeKey(b, c, opts, other, val(layout, 7))
		}
		return 1
	})
	for id, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", id, err)
		}
	}
	v, err := readKey(a, sim.NewClock(), opts, k)
	if err != nil {
		t.Fatal(err)
	}
	if got := tag(v); got != 2 {
		t.Errorf("k = %d after two committed increments: lost update", got)
	}
}
