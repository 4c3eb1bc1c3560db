package enginetest

import (
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/sim"
)

// RaceBuild reports whether the test binary was built with -race.
func RaceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// AllocGuard asserts that one cache-resident single-key read-modify-write
// commit through engine.Run costs at most max host allocations and maxKB
// allocated kilobytes on e. The benchmark bounds host_allocs_per_op and
// host_alloc_kb_per_op at 5 % on oltp_commit, which is this transaction on
// every engine in turn; the guard gives the same two signals from tier-1 (a
// count bound alone passed an 8 KB page copy per read). This guard measures,
// on Layout's 4 KB pages (the KB bounds sit 0.04–0.15 KB above):
//
//	monolithic  1  0.46 KB      aurora      1  1.01 KB
//	legobase    1  0.41 KB      polardb     2  0.89 KB
//	socrates    2  1.00 KB      serverless  2  1.02 KB
//	pilotdb     3  1.05 KB      taurus      2  1.80 KB
//	snowflake-kv 3 0.82 KB      shared-nothing 1  0.46 KB
//
// One of those is the transaction itself on every engine: the copy Read
// hands the caller. Write copies its value into the transaction context's
// arena and the log copies it into a chunk of its own (wal.Log.Reserve), so
// staging allocates nothing and logging a chunk's worth of images costs one
// page.Alloc. The rest is what the engine's durable tier keeps (the
// transaction context and the lock entry are recycled, see engine.StagedTx;
// storage replicas reuse their pending lists, quorum appends keep their acks
// on the stack, and raft keeps the payload it is handed instead of a copy).
// Under one page wherever a commit copies no page: reads run on the cache
// frame (buffer.Pool.View) and only the value leaves it. Serverless's owned
// page copy comes from the page free list; taurus's KB is its page-store
// gossip — periodic work is averaged in, as in the benchmark, whose
// engine.<name>.allocs_per_txn reads up to 1 higher.
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
	// Both bounds hold in the plain build only: under -race sync.Pool drops
	// a share of what is put back (a fresh transaction context now and then),
	// page.Alloc recycles nothing (serverless's page copy is a fresh 4 KB),
	// and the detector's instrumentation allocates on its own.
	if !RaceBuild() {
		if got > max {
			t.Errorf("%s: %.0f allocs per 1-key RMW commit, want <= %.0f", e.Name(), got, max)
		}
		if gotKB > maxKB {
			t.Errorf("%s: %.2f KB allocated per 1-key RMW commit, want <= %.2f", e.Name(), gotKB, maxKB)
		}
	}
	t.Logf("%s: %.0f allocs, %.2f KB per 1-key RMW commit (bounds %.0f, %.2f)", e.Name(), got, gotKB, max, maxKB)
}

// MissAllocGuard asserts that one cold single-key read — a page miss that
// the engine serves from its page store plus its own redo log — allocates at
// most maxKB kilobytes on e. AllocGuard only ever hits the cache, so it
// passed fetch paths that copied the whole retained log tail per miss; the
// benchmark's oltp_miss host_alloc_kb_per_op is the same signal end to end.
//
// The guard commits 2,000 single-key updates round-robin over 256 pages and
// then reads one key from each page in the same order, one pass unmeasured
// (it evicts the frames the writes left dirty) and one measured. The caller
// builds e with every cache tier smaller than 256 pages, so under LRU each
// of those reads misses (checked through Stats.StorageOps), and with any
// log-truncating checkpoint cadence off, so the 4,000 records stay in the log.
// Measured on Layout's 4 KB pages; in brackets, the same guard when every
// miss allocated the page buffer that becomes the frame (and legobase and
// serverless a second one for the probe of their remote tier):
//
//	monolithic  0.18 KB (4.68)   aurora      0.18 KB (4.78)   legobase  0.25 KB (12.97)
//	polardb     0.18 KB (4.68)   serverless  0.25 KB (8.85)
//
// That is the value handed to the caller, the frame header and the LRU element:
// fetch paths fill a page.Alloc buffer, which is the one the previous miss
// evicted (buffer.Pool releases it). Aurora's row is storagenode.Replica.
// ReadPage, which socrates, taurus, pilotdb and serverless share. No storage
// checkpoint ever gives legobase's guard pages a disk image, so each of its
// fetches formats the page: heap.Layout.Format writes it into the frame's
// buffer (a FormatPage image and a record encoding per slot were 8.48 KB).
// The race build recycles nothing (page.Alloc is a plain make there), so
// under -race the guard runs the reads and skips the bound.
func MissAllocGuard(t *testing.T, e engine.Engine, maxKB float64) {
	t.Helper()
	const commits, pages = 2000, 256
	layout := Layout(t)
	c := sim.NewClock()
	v := val(layout, 1)
	key := func(i int) uint64 { return uint64(i%pages) * uint64(layout.PerPage) }
	for i := 0; i < commits; i++ {
		if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(key(i), v) }); err != nil {
			t.Fatal(err)
		}
	}
	readPass := func() {
		for i := 0; i < pages; i++ {
			if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
				_, err := tx.Read(key(i))
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	readPass()
	fetches := e.Stats().StorageOps.Load()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	readPass()
	runtime.ReadMemStats(&after)
	if got := e.Stats().StorageOps.Load() - fetches; got < pages {
		t.Fatalf("%s: %d page-store fetches for %d reads: the reads were not all misses", e.Name(), got, pages)
	}
	gotKB := float64(after.TotalAlloc-before.TotalAlloc) / pages / 1024
	if gotKB > maxKB && !RaceBuild() {
		t.Errorf("%s: %.2f KB allocated per cold 1-key read, want <= %.2f", e.Name(), gotKB, maxKB)
	}
	t.Logf("%s: %.2f KB per cold 1-key read (bound %.2f)", e.Name(), gotKB, maxKB)
}

// DirtyMissAllocGuard is MissAllocGuard for writes: it asserts that one
// single-key write to an uncached page, whose miss evicts a dirty frame,
// allocates at most maxKB kilobytes on e. MissAllocGuard's measured reads
// only evict frames that were already written back, so it never sees what a
// writeback keeps.
//
// The guard writes one key on each of 256 pages in turn, three passes with
// only the last measured. The caller builds e with every cache tier smaller
// than 256 pages and with no flush cadence of its own, so under LRU every
// write misses and its victim is the dirty frame of a page written one cache
// earlier, whose writeback is the page's only one in the pass (checked
// through Stats.StorageOps, which counts fetches and writebacks). After the
// first two passes every page has a stored image. Measured on Layout's 4 KB
// pages; in brackets, when every writeback copied the frame into a new image:
//
//	monolithic  0.91 KB (4.92)   polardb  5.63 KB
//
// monolithic overwrites a page's disk image in place; what is left is mostly
// the log's record array growing, which every write pays. polardb's extra
// 4 KB is the floor of an immutable store: one image per shipped page, which
// pagesFS and the raft entry that replicates it share. The race build
// recycles nothing, so under -race the guard runs the writes and skips the
// bound.
func DirtyMissAllocGuard(t *testing.T, e engine.Engine, maxKB float64) {
	t.Helper()
	const pages = 256
	layout := Layout(t)
	c := sim.NewClock()
	v := val(layout, 1)
	writePass := func() {
		for i := 0; i < pages; i++ {
			key := uint64(i) * uint64(layout.PerPage)
			if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(key, v) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	writePass()
	writePass()
	ops := e.Stats().StorageOps.Load()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	writePass()
	runtime.ReadMemStats(&after)
	if got := e.Stats().StorageOps.Load() - ops; got < 2*pages {
		t.Fatalf("%s: %d page-store fetches and writebacks for %d writes: the writes did not all miss and evict a dirty frame", e.Name(), got, pages)
	}
	gotKB := float64(after.TotalAlloc-before.TotalAlloc) / pages / 1024
	if gotKB > maxKB && !RaceBuild() {
		t.Errorf("%s: %.2f KB allocated per 1-key write evicting a dirty frame, want <= %.2f", e.Name(), gotKB, maxKB)
	}
	t.Logf("%s: %.2f KB per 1-key write evicting a dirty frame (bound %.2f)", e.Name(), gotKB, maxKB)
}
