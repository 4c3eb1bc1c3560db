package legobase

import (
	"testing"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/enginetest"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/sim"
)

func TestConformance(t *testing.T) {
	enginetest.RunConformance(t, func(t *testing.T, cfg *sim.Config) engine.Engine {
		return New(cfg, enginetest.Layout(t), 8, 256)
	})
}

func TestTwoTierCacheAbsorbsWorkingSet(t *testing.T) {
	layout := enginetest.Layout(t)
	e := New(sim.DefaultConfig(), layout, 4, 256)
	c := sim.NewClock()
	val := make([]byte, layout.ValSize)
	// Working set of ~40 pages: far beyond local (4) but within remote.
	keys := 40 * uint64(layout.PerPage)
	for pass := 0; pass < 3; pass++ {
		for i := uint64(0); i < keys; i += 7 {
			engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
				_, err := tx.Read(i)
				if err != nil {
					return err
				}
				return tx.Write(i, val)
			})
		}
	}
	l, r, s := e.Tiers.TierStats()
	if r == 0 {
		t.Fatal("remote tier never hit")
	}
	if hr := e.Tiers.CombinedHitRatio(); hr < 0.5 {
		t.Fatalf("combined hit ratio %.2f (l=%d r=%d s=%d)", hr, l, r, s)
	}
}

func TestRecoveryFromRemoteMemoryBeatsStorage(t *testing.T) {
	// E9's second claim: two-tier ARIES recovery from remote memory is
	// much faster than classic ARIES from storage.
	layout := enginetest.Layout(t)
	build := func() *Engine {
		e := New(sim.DefaultConfig(), layout, 8, 256)
		e.CheckpointRemoteEvery = 16
		e.CheckpointStorageEvery = 200
		c := sim.NewClock()
		val := make([]byte, layout.ValSize)
		for i := uint64(0); i < 400; i++ {
			engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(i%100, val) })
		}
		e.Crash()
		return e
	}
	fast := build()
	dFast, err := fast.Recover(sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	slow := build()
	dSlow, err := slow.RecoverFromStorageOnly(sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if !(dFast < dSlow/2) {
		t.Fatalf("remote-memory recovery (%v) should be ≫ faster than storage ARIES (%v)", dFast, dSlow)
	}
}

func TestDataSurvivesCrashViaRemoteCheckpoint(t *testing.T) {
	layout := enginetest.Layout(t)
	e := New(sim.DefaultConfig(), layout, 4, 128)
	e.CheckpointRemoteEvery = 8
	c := sim.NewClock()
	val := make([]byte, layout.ValSize)
	val[0] = 0xEE
	for i := uint64(0); i < 64; i++ {
		engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(i, val) })
	}
	e.Crash()
	if _, err := e.Recover(sim.NewClock()); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 64; i += 9 {
		key := i
		engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
			v, err := tx.Read(key)
			if err != nil {
				return err
			}
			if v[0] != 0xEE {
				t.Errorf("key %d lost: %v", key, v[0])
			}
			return nil
		})
	}
}

func TestChaosCrashRecovery(t *testing.T) {
	enginetest.RunChaos(t, func(t *testing.T) engine.Engine {
		return New(sim.DefaultConfig(), enginetest.Layout(t), 8, 256)
	})
}

// TestCommitAllocs bounds the host allocations of one cache-resident
// single-key RMW commit at the value measured before the shared commit
// pipeline (see enginetest.AllocGuard).
func TestCommitAllocs(t *testing.T) {
	enginetest.AllocGuard(t, New(sim.DefaultConfig(), enginetest.Layout(t), 64, 4096), 14, 2.5)
}

// TestMissAllocs bounds what one storage miss allocates with 4,000 records
// in the log (see enginetest.MissAllocGuard): both tiers smaller than the
// guard's 256 pages, and no storage checkpoint to truncate the log.
func TestMissAllocs(t *testing.T) {
	e := New(sim.DefaultConfig(), enginetest.Layout(t), 16, 64)
	e.CheckpointStorageEvery = 0
	enginetest.MissAllocGuard(t, e, 9.5)
}

// TestFetchFailsWhenRedoFails: fetchFromStorage used to drop WriteValue's
// error and serve the page (see enginetest.FailedRedoGuard).
func TestFetchFailsWhenRedoFails(t *testing.T) {
	e := New(sim.DefaultConfig(), enginetest.Layout(t), 8, 256)
	enginetest.FailedRedoGuard(t, e, func(id page.ID, img []byte) { e.disk[id] = img }, func() {
		e.Tiers.Local.InvalidateAll()
		for _, id := range e.Tiers.Remote.IDs() {
			e.Tiers.Remote.Drop(id)
		}
	})
}
