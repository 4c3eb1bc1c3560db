package drill

import (
	"testing"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/monolithic"
	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/sim"
)

// TestCleanReportIsEmpty runs one clean drill cell on a sound engine: the
// report has no violation and no dump (a clean run renders neither
// telemetry nor flight timelines), and it carries the checked history and
// the run's counters.
func TestCleanReportIsEmpty(t *testing.T) {
	build := func(cfg *sim.Config, l heap.Layout) engine.Engine { return monolithic.New(cfg, l, 64) }
	rep := Run(sim.DefaultConfig(), build, nil, 811, false)
	if !rep.Ok() {
		t.Fatalf("clean run reported violations: %v", rep.Violations)
	}
	if rep.Dump != "" {
		t.Errorf("clean run rendered a dump of %d bytes", len(rep.Dump))
	}
	if rep.History == nil || rep.History.Txns == 0 || rep.Commits == 0 || rep.Horizon == 0 {
		t.Errorf("clean report is missing its history or counters: history %v, commits %d, horizon %d",
			rep.History, rep.Commits, rep.Horizon)
	}
}
