package enginetest

import (
	"testing"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/sim"
)

// AllocGuard asserts that one cache-resident single-key read-modify-write
// commit through engine.Run costs at most max host allocations on e. The
// benchmark bounds host_allocs_per_op at 5 % on oltp_commit, which is this
// transaction on every engine in turn; the guard gives the same signal from
// tier-1. max is what this guard measured on the engine before the shared
// commit pipeline (monolithic 16, shared-nothing 19, legobase 19, pilotdb
// 19, socrates 20, snowflake-kv 20, aurora 22, polardb 26, serverless 27,
// taurus 28); the benchmark's engine.<name>.allocs_per_txn reads 0–6 higher
// because it counts its own client closure too. Periodic work an engine
// does every N commits (snapshots, gossip, checkpoints) is averaged in, as
// it is there.
func AllocGuard(t *testing.T, e engine.Engine, max float64) {
	t.Helper()
	const key = 7
	c := sim.NewClock()
	v := val(Layout(t), 1)
	rmw := func(tx engine.Tx) error {
		if _, err := tx.Read(key); err != nil {
			return err
		}
		return tx.Write(key, v)
	}
	// The first commit faults the page in; every later one hits.
	if err := engine.Run(e, c, engine.RunOpts{}, rmw); err != nil {
		t.Fatal(err)
	}
	var failed error
	got := testing.AllocsPerRun(512, func() {
		if err := engine.Run(e, c, engine.RunOpts{}, rmw); err != nil {
			failed = err
		}
	})
	if failed != nil {
		t.Fatal(failed)
	}
	if got > max {
		t.Errorf("%s: %.0f allocs per 1-key RMW commit, want <= %.0f", e.Name(), got, max)
	}
	t.Logf("%s: %.0f allocs per 1-key RMW commit (bound %.0f)", e.Name(), got, max)
}
