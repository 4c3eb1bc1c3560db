package socrates

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

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

// TestCommitAllocs bounds the host allocations of one cache-resident
// single-key RMW commit at the value measured before the shared commit
// pipeline (see enginetest.AllocGuard).
func TestCommitAllocs(t *testing.T) {
	enginetest.AllocGuard(t, New(sim.DefaultConfig(), enginetest.Layout(t), 1024, 2), 2, 1.10)
}

// TestGroupRoundsStayFlat drives bench's oltp_group shape for 30 rounds:
// eight clients under sim.RunGroup with group commit on, each resuming its
// own clock every round, private keys plus 5% on shared hot keys. Group
// commit must keep grouping however far apart the clients' clocks drift,
// so flushes and allocations per commit in the last round match the second
// (the first warms the cache).
func TestGroupRoundsStayFlat(t *testing.T) {
	layout := enginetest.Layout(t)
	e := New(sim.DefaultConfig(), layout, 1024, 2)
	e.EnableGroupCommit(8, 50*time.Microsecond)
	const clients, perRound, rounds, keys, hot = 8, 100, 30, 64, 64
	clocks := make([]time.Duration, clients)
	rngs := make([]*rand.Rand, clients)
	for id := range rngs {
		rngs[id] = sim.NewRand(5, id)
	}
	val := make([]byte, layout.ValSize)
	round := func() (allocsPerTxn, flushesPerTxn float64) {
		flushes := e.Stats().GroupFlushes.Load()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sim.RunGroup(clients, func(id int, c *sim.Clock) int {
			c.AdvanceTo(clocks[id])
			for i := 0; i < perRound; i++ {
				key := uint64(id*keys + rngs[id].Intn(keys))
				if rngs[id].Intn(100) < 5 {
					key = uint64(clients*keys + rngs[id].Intn(hot))
				}
				err := engine.Run(e, c, engine.RunOpts{Retries: 50}, func(tx engine.Tx) error {
					if _, err := tx.Read(key); err != nil {
						return err
					}
					return tx.Write(key, val)
				})
				if err != nil {
					t.Errorf("client %d: %v", id, err)
				}
			}
			clocks[id] = c.Now()
			return perRound
		})
		runtime.ReadMemStats(&after)
		n := float64(clients * perRound)
		return float64(after.Mallocs-before.Mallocs) / n, float64(e.Stats().GroupFlushes.Load()-flushes) / n
	}
	round()
	allocs2, flushes2 := round()
	var allocsN, flushesN float64
	for r := 2; r < rounds; r++ {
		allocsN, flushesN = round()
	}
	t.Logf("round 2: %.2f allocs, %.3f flushes per commit; round %d: %.2f, %.3f",
		allocs2, flushes2, rounds, allocsN, flushesN)
	if flushesN > flushes2*1.1 {
		t.Errorf("flushes per commit grew from %.3f to %.3f: groups split as clocks drift", flushes2, flushesN)
	}
	if allocsN > allocs2*1.05 {
		t.Errorf("allocations per commit grew from %.2f to %.2f", allocs2, allocsN)
	}
}

// Close retires the engine with the XStore it built: the page snapshots go
// back to the page free list, and Execute sheds.
func TestCloseEmptiesXStore(t *testing.T) {
	layout := enginetest.Layout(t)
	e := New(sim.DefaultConfig(), layout, 64, 2)
	e.SnapshotEvery = 1
	c := sim.NewClock()
	for key := uint64(0); key < 4; key++ {
		if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
			return tx.Write(key*uint64(layout.PerPage), make([]byte, layout.ValSize))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if e.XStore.Len() == 0 {
		t.Fatal("no page snapshot reached XStore")
	}
	enginetest.CloseSheds(t, e)
	if n := e.XStore.Len(); n != 0 {
		t.Fatalf("%d XStore objects after Close, want 0", n)
	}
}
