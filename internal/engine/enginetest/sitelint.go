package enginetest

import (
	"testing"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/sim/profile"
)

// runSiteLint drives a full seeded workload — plus every optional
// capability path (checkpoint, crash/recover, replica reads) — with a
// stats registry attached, then holds every site label the engine
// registered to the `<component>.<op>` taxonomy profile.LintSite enforces.
// A label outside the taxonomy would silently mis-attribute latency in
// critical-path analysis and dodge fault injection site filters, so drift
// fails the conformance suite rather than surfacing in a skewed table
// months later.
func runSiteLint(t *testing.T, factory Factory, seed int64) {
	cfg := sim.DefaultConfig()
	cfg.Stats = sim.NewRegistry()
	layout := Layout(t)
	e := factory(t, cfg)

	res := runConformanceWorkload(e, layout, seed)
	reportViolations(t, seed, "sitelint", verifyFinalState(e, res))

	caps := engine.Caps(e)
	c := sim.NewClock()
	if caps.Checkpointer != nil {
		if err := caps.Checkpointer.Checkpoint(c); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
	}
	if caps.Reader != nil {
		err := caps.Reader.ReadReplica(c, 0, func(tx engine.Tx) error {
			_, err := tx.Read(confKeyBase)
			return err
		})
		if err != nil {
			t.Fatalf("replica read: %v", err)
		}
	}
	crashRecover(t, e)

	sites := cfg.Stats.Sites()
	if len(sites) == 0 {
		t.Fatalf("no telemetry sites registered — the workload must exercise instrumented substrate")
	}
	for _, site := range sites {
		if err := profile.LintSite(site); err != nil {
			t.Errorf("site label lint: %v", err)
		}
	}
}
