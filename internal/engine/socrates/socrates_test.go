package socrates

import (
	"testing"

	"github.com/disagglab/disagg/internal/cluster"
	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/enginetest"
	"github.com/disagglab/disagg/internal/sim"
)

func TestConformance(t *testing.T) {
	enginetest.RunConformance(t, func(t *testing.T, cfg *sim.Config) engine.Engine {
		return New(cfg, enginetest.Layout(t), 64, 2)
	})
}

func TestElastic(t *testing.T) {
	enginetest.RunElastic(t, func(t *testing.T, cfg *sim.Config) cluster.Spec {
		layout := enginetest.Layout(t)
		var root *Engine
		return cluster.Spec{
			Name: "socrates",
			New: func(id int) engine.Engine {
				if id == 0 {
					root = New(cfg, layout, 64, 2)
					return root
				}
				return Peer(root, id, 64)
			},
		}
	})
}

func TestCommitWaitsOnlyForXLOG(t *testing.T) {
	layout := enginetest.Layout(t)
	cfg := sim.DefaultConfig()
	e := New(cfg, layout, 64, 3)
	e.SnapshotEvery = 0 // isolate the commit path
	c := sim.NewClock()
	val := make([]byte, layout.ValSize)
	// Warm the cache so the commit path has no reads.
	engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(1, val) })
	before := c.Now()
	if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(1, val) }); err != nil {
		t.Fatal(err)
	}
	commitCost := c.Now() - before
	// The commit should cost about one TCP round trip + SSD log write,
	// NOT multiplied by the number of page servers.
	logSize := 200 // rough upper bound of the record batch
	budget := cfg.TCP.Cost(logSize) + cfg.SSDWrite.Cost(logSize) + cfg.DRAM.Cost(layout.PageSize)*4
	if commitCost > 2*budget {
		t.Fatalf("commit cost %v exceeds XLOG-only budget %v", commitCost, budget)
	}
}

func TestPageServersServeAfterComputeCrash(t *testing.T) {
	layout := enginetest.Layout(t)
	e := New(sim.DefaultConfig(), layout, 64, 2)
	c := sim.NewClock()
	val := make([]byte, layout.ValSize)
	for i := uint64(0); i < 30; i++ {
		engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(i, val) })
	}
	e.Crash()
	d, err := e.Recover(sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if d > 1_000_000 {
		t.Fatalf("socrates recovery took %v", d)
	}
	if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
		v, err := tx.Read(5)
		if err != nil {
			return err
		}
		if len(v) != layout.ValSize {
			t.Error("value lost")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPageServerFailureTolerated(t *testing.T) {
	layout := enginetest.Layout(t)
	e := New(sim.DefaultConfig(), layout, 4, 2)
	c := sim.NewClock()
	val := make([]byte, layout.ValSize)
	for i := uint64(0); i < 30; i++ {
		engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(i, val) })
	}
	e.PageServers[0].Fail()
	e.Pool().InvalidateAll()
	if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
		_, err := tx.Read(3)
		return err
	}); err != nil {
		t.Fatalf("read with one page server down: %v", err)
	}
}

func TestSnapshotsReachXStore(t *testing.T) {
	layout := enginetest.Layout(t)
	e := New(sim.DefaultConfig(), layout, 64, 1)
	e.SnapshotEvery = 8
	c := sim.NewClock()
	val := make([]byte, layout.ValSize)
	for i := uint64(0); i < 32; i++ {
		engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(i, val) })
	}
	if e.XStore.Len() == 0 {
		t.Fatal("no snapshots reached XStore")
	}
	if e.Stats().PageBytes.Load() == 0 {
		t.Fatal("snapshot traffic not accounted")
	}
}

func TestChaosCrashRecovery(t *testing.T) {
	enginetest.RunChaos(t, func(t *testing.T) engine.Engine {
		return New(sim.DefaultConfig(), enginetest.Layout(t), 64, 2)
	})
}

// TestCommitAllocs bounds the host allocations of one cache-resident
// single-key RMW commit at the value measured before the shared commit
// pipeline (see enginetest.AllocGuard).
func TestCommitAllocs(t *testing.T) {
	enginetest.AllocGuard(t, New(sim.DefaultConfig(), enginetest.Layout(t), 1024, 2), 3, 2.25)
}

// TestHooksMayNotKeepRecs: the records a hook receives are the pipeline's
// scratch (see enginetest.RecsRetentionGuard).
func TestHooksMayNotKeepRecs(t *testing.T) {
	enginetest.RecsRetentionGuard(t, func() engine.Engine {
		return New(sim.DefaultConfig(), enginetest.Layout(t), 1024, 2)
	})
}
