package enginetest

import (
	"strings"
	"testing"
	"time"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/drill"
	"github.com/disagglab/disagg/internal/engine/monolithic"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/sim/fault"
)

// TestFlightDumpOnForcedInvariantFailure proves the black box actually
// fires: a real engine runs a faulted seeded workload, a value the workload
// never issued is then written behind its back so the final verification
// must report a violation, and the report's dump has to be present,
// labeled per worker, and bounded by the ring capacity.
func TestFlightDumpOnForcedInvariantFailure(t *testing.T) {
	cfg, inj, _ := drill.FaultConfig(sim.DefaultConfig(), &fault.Profile{Name: "delays", Delay: 0.5, MaxDelay: 2 * time.Millisecond}, Seed())
	e := monolithic.New(cfg, Layout(t), 64)

	w := runWorkload(e, "delays", Seed())
	inj.Heal()

	// Forge the history: store a seq far past any the workload issued on
	// its first key. Every re-read of that key now observes a fabricated
	// seq — a guaranteed invariant failure.
	key := uint64(drill.KeyBase)
	if err := writeKey(e, sim.NewClock(), engine.RunOpts{Retries: drill.Retries}, key, drill.Val(key, 0, 1<<40)); err != nil {
		t.Fatalf("forging key %d: %v", key, err)
	}
	w.Verify("")
	rep := w.Report()
	if rep.Ok() {
		t.Fatalf("forged history produced no violations — the invariant check is dead")
	}

	dump := rep.Dump
	if dump == "" {
		t.Fatalf("invariant failure with an empty flight-recorder dump")
	}
	for _, want := range []string{"--- worker 0 ---", "--- verify pass", "retained of"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q", want)
		}
	}
	// Bounded: one recorder per worker plus the verify passes, each ring
	// capped at the drill's 256 events — regardless of how many ops ran.
	recorders := strings.Count(dump, "retained of")
	if recorders > drill.Workers+4 {
		t.Errorf("box grew %d recorders, want <= workers + verify passes", recorders)
	}
	if lines := strings.Count(dump, "\n"); lines > 1+recorders*(256+2) {
		t.Errorf("dump has %d lines; rings are not bounding retention", lines)
	}
}
