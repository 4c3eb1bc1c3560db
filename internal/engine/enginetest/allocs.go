package enginetest

import (
	"runtime"
	"testing"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/sim"
)

// AllocGuard asserts that one cache-resident single-key read-modify-write
// commit through engine.Run costs at most max host allocations and maxKB
// allocated kilobytes on e. The benchmark bounds host_allocs_per_op and
// host_alloc_kb_per_op at 5 % on oltp_commit, which is this transaction on
// every engine in turn; the guard gives the same two signals from tier-1 (a
// count bound alone passed an 8 KB page copy per read). The bounds are what
// this guard measures on Layout's 4 KB pages, the KB one rounded up:
//
//	monolithic      14  1.75 KB      polardb     22  2.54 KB
//	shared-nothing  18  1.74 KB      socrates    15  2.92 KB
//	legobase        14  2.24 KB      aurora      18  2.99 KB
//	snowflake-kv    17  2.31 KB      taurus      23  6.58 KB
//	pilotdb         15  2.70 KB      serverless  22  7.06 KB
//
// Under one page wherever a commit copies no page: reads run on the cache
// frame (buffer.Pool.View) and only the value leaves it. Serverless keeps
// the one copy its apply mutates and installs as the new frame; taurus's is
// its page-store gossip — periodic work is averaged in, as in the benchmark,
// whose engine.<name>.allocs_per_txn reads 0–6 higher (its client closure).
func AllocGuard(t *testing.T, e engine.Engine, max, maxKB float64) {
	t.Helper()
	const key, runs = 7, 512
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
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := testing.AllocsPerRun(runs, func() {
		if err := engine.Run(e, c, engine.RunOpts{}, rmw); err != nil {
			failed = err
		}
	})
	runtime.ReadMemStats(&after)
	if failed != nil {
		t.Fatal(failed)
	}
	// TotalAlloc only grows, so the delta is independent of GC timing;
	// AllocsPerRun calls the function once more than runs, to warm up.
	gotKB := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) / 1024
	if got > max {
		t.Errorf("%s: %.0f allocs per 1-key RMW commit, want <= %.0f", e.Name(), got, max)
	}
	if gotKB > maxKB {
		t.Errorf("%s: %.2f KB allocated per 1-key RMW commit, want <= %.2f", e.Name(), gotKB, maxKB)
	}
	t.Logf("%s: %.0f allocs, %.2f KB per 1-key RMW commit (bounds %.0f, %.2f)", e.Name(), got, gotKB, max, maxKB)
}
