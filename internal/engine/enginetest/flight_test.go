package enginetest

import (
	"strings"
	"testing"
	"time"

	"github.com/disagglab/disagg/internal/engine/monolithic"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/sim/fault"
)

// TestFlightDumpOnForcedInvariantFailure proves the black box actually
// fires: a real engine runs a faulted seeded workload, the recorded
// history is then corrupted so the final verification must report a
// violation, and the dump the suite would log on that failure has to be
// present, labeled per worker, and bounded by the ring capacity.
func TestFlightDumpOnForcedInvariantFailure(t *testing.T) {
	cfg := sim.DefaultConfig()
	inj := fault.New(Seed(), fault.Profile{Name: "delays", Delay: 0.5, MaxDelay: 2 * time.Millisecond})
	cfg.Fault = inj
	layout := Layout(t)
	e := monolithic.New(cfg, layout, 64)

	res := runConformanceWorkload(e, layout, Seed())
	inj.Heal()

	// Forge the history: claim an ack one past the last issued write on
	// some key the workload actually touched. Every re-read of that key
	// now observes "stale seq < acked" — a guaranteed invariant failure.
	var forged uint64
	for _, st := range res.keys {
		if n := st.issued.Load(); n > 0 {
			st.acked.Store(n + 1)
			st.issued.Store(n + 1)
			forged = st.key
			break
		}
	}
	if forged == 0 {
		t.Fatalf("workload issued no writes to forge")
	}

	violations := verifyFinalState(res)
	if len(violations) == 0 {
		t.Fatalf("forged history produced no violations — the invariant check is dead")
	}

	dump := res.box.Dump()
	if dump == "" {
		t.Fatalf("invariant failure with an empty flight-recorder dump")
	}
	for _, want := range []string{"--- worker 0 ---", "--- verify pass", "retained of"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q", want)
		}
	}
	// Bounded: one recorder per worker plus the verify passes, each ring
	// capped at confFlightEvents — regardless of how many ops ran.
	if res.box.Size() > confWorkers+4 {
		t.Errorf("box grew %d recorders, want <= workers + verify passes", res.box.Size())
	}
	if lines := strings.Count(dump, "\n"); lines > res.box.Size()*(confFlightEvents+2) {
		t.Errorf("dump has %d lines; rings are not bounding retention", lines)
	}
}
