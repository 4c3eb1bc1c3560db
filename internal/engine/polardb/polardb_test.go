package polardb

import (
	"bytes"
	"testing"

	"github.com/disagglab/disagg/internal/cluster"
	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/enginetest"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/sim"
)

func TestConformance(t *testing.T) {
	enginetest.RunConformance(t, func(t *testing.T, cfg *sim.Config) engine.Engine {
		return New(cfg, enginetest.Layout(t), 64)
	})
}

func TestElastic(t *testing.T) {
	enginetest.RunElastic(t, func(t *testing.T, cfg *sim.Config) cluster.Spec {
		layout := enginetest.Layout(t)
		var root *Engine
		return cluster.Spec{
			Name: "polardb",
			New: func(id int) engine.Engine {
				if id == 0 {
					root = New(cfg, layout, 64)
					return root
				}
				return Peer(root, id, 64)
			},
		}
	})
}

func TestShipsPagesAndLogs(t *testing.T) {
	layout := enginetest.Layout(t)
	e := New(sim.DefaultConfig(), layout, 64)
	e.CheckpointEvery = 16
	c := sim.NewClock()
	val := make([]byte, layout.ValSize)
	for i := uint64(0); i < 64; i++ {
		if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(i, val) }); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.LogBytes.Load() == 0 {
		t.Fatal("no log shipped")
	}
	if st.PageBytes.Load() == 0 {
		t.Fatal("no pages shipped — PolarDB ships both")
	}
}

func TestPolarFSLeaderFailover(t *testing.T) {
	layout := enginetest.Layout(t)
	e := New(sim.DefaultConfig(), layout, 64)
	c := sim.NewClock()
	val := make([]byte, layout.ValSize)
	for i := uint64(0); i < 10; i++ {
		engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(i, val) })
	}
	// Kill the PolarFS leader; the engine recovers by electing a new one.
	e.FS.FailPeer(e.FS.Leader())
	e.Crash()
	if _, err := e.Recover(sim.NewClock()); err != nil {
		t.Fatal(err)
	}
	if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(99, val) }); err != nil {
		t.Fatalf("write after failover: %v", err)
	}
	e.Pool().InvalidateAll()
	if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
		v, err := tx.Read(5)
		if err != nil {
			return err
		}
		if len(v) != layout.ValSize {
			t.Error("value lost across failover")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCommitFasterThanTCPBaselineButMoreBytesThanAurora(t *testing.T) {
	// The E1/E3 shape at engine granularity: PolarDB's RDMA commit path
	// is cheap per txn, but page shipping adds bytes.
	layout := enginetest.Layout(t)
	cfg := sim.DefaultConfig()
	e := New(cfg, layout, 256)
	c := sim.NewClock()
	val := make([]byte, layout.ValSize)
	const n = 200
	for i := uint64(0); i < n; i++ {
		engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(i%32, val) })
	}
	bpc := e.Stats().BytesPerCommit()
	if bpc < 200 {
		t.Fatalf("bytes/commit = %.0f, too low for a page-shipping engine", bpc)
	}
}

func TestChaosCrashRecovery(t *testing.T) {
	enginetest.RunChaos(t, func(t *testing.T) engine.Engine {
		return New(sim.DefaultConfig(), enginetest.Layout(t), 64)
	})
}

// TestCommitAllocs bounds the host allocations of one cache-resident
// single-key RMW commit at the value measured before the shared commit
// pipeline (see enginetest.AllocGuard).
func TestCommitAllocs(t *testing.T) {
	enginetest.AllocGuard(t, New(sim.DefaultConfig(), enginetest.Layout(t), 1024), 2, 0.95)
}

// TestHooksMayNotKeepRecs: the records a hook receives are the pipeline's
// scratch (see enginetest.RecsRetentionGuard).
func TestHooksMayNotKeepRecs(t *testing.T) {
	enginetest.RecsRetentionGuard(t, func() engine.Engine {
		return New(sim.DefaultConfig(), enginetest.Layout(t), 1024)
	})
}

// TestMissAllocs bounds what one page miss allocates with 4,000 records in
// the log (see enginetest.MissAllocGuard). CheckpointEvery only ships page
// images; it never truncates the log.
func TestMissAllocs(t *testing.T) {
	enginetest.MissAllocGuard(t, New(sim.DefaultConfig(), enginetest.Layout(t), 64), 0.25)
}

// TestDirtyMissAllocs bounds what one write to an uncached page allocates
// when its miss evicts a dirty frame (see enginetest.DirtyMissAllocGuard):
// the shipped image is the floor, one immutable copy per shipped page. With
// no page-shipping cadence the eviction is the page's only shipment.
func TestDirtyMissAllocs(t *testing.T) {
	e := New(sim.DefaultConfig(), enginetest.Layout(t), 64)
	e.CheckpointEvery = 0
	enginetest.DirtyMissAllocGuard(t, e, 6)
}

// TestFetchFailsWhenRedoFails: fetchPage used to drop WriteValue's error
// and serve the page (see enginetest.FailedRedoGuard).
func TestFetchFailsWhenRedoFails(t *testing.T) {
	e := New(sim.DefaultConfig(), enginetest.Layout(t), 64)
	enginetest.FailedRedoGuard(t, e, func(id page.ID, img []byte) { e.pagesFS[id] = img }, e.pool.InvalidateAll)
}

// A shipped page image is one slice owned twice — by pagesFS and by the raft
// entry that replicated it — so neither may ever change: a checkpoint whose
// redo changes the page puts a new image in pagesFS and leaves the shipped
// bytes as they were.
func TestCheckpointRedoReplacesShippedImage(t *testing.T) {
	layout := enginetest.Layout(t)
	e := New(sim.DefaultConfig(), layout, 64)
	e.CheckpointEvery = 0
	c := sim.NewClock()
	const key = 3
	id := layout.PageOf(key)
	write := func(b byte) {
		if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
			return tx.Write(key, bytes.Repeat([]byte{b}, layout.ValSize))
		}); err != nil {
			t.Fatal(err)
		}
	}
	write(1)
	if err := e.pool.FlushAll(c); err != nil {
		t.Fatal(err)
	}
	shipped := e.pagesFS[id]
	entry, err := e.FS.Entry(c, e.FS.CommitIndex())
	if err != nil {
		t.Fatal(err)
	}
	if &entry.Data[0] != &shipped[0] {
		t.Fatal("raft replicated a copy of the shipped image, want the image pagesFS keeps")
	}
	before := bytes.Clone(shipped)

	write(2)
	e.pool.InvalidateAll() // only the checkpoint's redo brings pagesFS up to date
	if err := e.Checkpoint(c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shipped, before) || !bytes.Equal(entry.Data, before) {
		t.Fatal("the checkpoint's redo wrote into the shipped image")
	}
	if v, err := layout.ReadValue(e.pagesFS[id], key); err != nil || v[0] != 2 {
		t.Fatalf("pagesFS holds %v (err %v) for key %d after the checkpoint, want the redone value 2", v, err, key)
	}
}

// TestImageShippedDuringEarlierDurableKeepsItsCommit: a flush that ships a
// page while an earlier commit to it is still inside Durable must not stamp
// the image past that commit (see enginetest.InFlightCaptureGuard).
func TestImageShippedDuringEarlierDurableKeepsItsCommit(t *testing.T) {
	cfg := sim.DefaultConfig()
	e := New(cfg, enginetest.Layout(t), 64)
	enginetest.InFlightCaptureGuard(t, e, cfg, sim.PointDurable, e.pool.FlushAll)
}

// TestCheckpointDuringEarlierApplyKeepsItsCommit: a checkpoint round while
// an earlier commit to a page is decided but not yet applied must not
// truncate that commit's records (see enginetest.InFlightCaptureGuard).
func TestCheckpointDuringEarlierApplyKeepsItsCommit(t *testing.T) {
	cfg := sim.DefaultConfig()
	e := New(cfg, enginetest.Layout(t), 64)
	enginetest.InFlightCaptureGuard(t, e, cfg, sim.PointApply, e.Checkpoint)
}
