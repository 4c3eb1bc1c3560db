package serverless

import (
	"encoding/binary"
	"testing"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/enginetest"
	"github.com/disagglab/disagg/internal/sim"
)

func TestConformance(t *testing.T) {
	enginetest.RunConformance(t, func(t *testing.T, cfg *sim.Config) engine.Engine {
		return New(cfg, enginetest.Layout(t), 2, 16, 256)
	})
}

func TestSecondariesSeeFreshDataWithoutReplay(t *testing.T) {
	layout := enginetest.Layout(t)
	e := New(sim.DefaultConfig(), layout, 3, 16, 256)
	c := sim.NewClock()
	val := make([]byte, layout.ValSize)
	binary.LittleEndian.PutUint64(val, 777)
	if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(9, val) }); err != nil {
		t.Fatal(err)
	}
	// Both secondaries read the committed value immediately.
	for idx := 1; idx <= 2; idx++ {
		err := e.ReadReplica(c, idx, func(tx engine.Tx) error {
			v, err := tx.Read(9)
			if err != nil {
				return err
			}
			if binary.LittleEndian.Uint64(v) != 777 {
				t.Errorf("secondary %d read stale value %d", idx, binary.LittleEndian.Uint64(v))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestLocalCacheValidationCatchesStaleness(t *testing.T) {
	layout := enginetest.Layout(t)
	e := New(sim.DefaultConfig(), layout, 2, 16, 256)
	c := sim.NewClock()
	v1 := make([]byte, layout.ValSize)
	binary.LittleEndian.PutUint64(v1, 1)
	v2 := make([]byte, layout.ValSize)
	binary.LittleEndian.PutUint64(v2, 2)
	engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(3, v1) })
	// Secondary caches the page.
	e.ReadReplica(c, 1, func(tx engine.Tx) error { _, err := tx.Read(3); return err })
	// Primary overwrites.
	engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(3, v2) })
	// Secondary must observe the new value (LSN validation invalidates
	// its cached copy).
	err := e.ReadReplica(c, 1, func(tx engine.Tx) error {
		v, err := tx.Read(3)
		if err != nil {
			return err
		}
		if binary.LittleEndian.Uint64(v) != 2 {
			t.Errorf("stale cached read: %d", binary.LittleEndian.Uint64(v))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFailoverPromotesSecondaryFast(t *testing.T) {
	layout := enginetest.Layout(t)
	e := New(sim.DefaultConfig(), layout, 2, 16, 256)
	c := sim.NewClock()
	val := make([]byte, layout.ValSize)
	for i := uint64(0); i < 100; i++ {
		engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(i, val) })
	}
	e.Crash()
	rc := sim.NewClock()
	d, err := e.Recover(rc)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1_000_000 {
		t.Fatalf("failover took %v — shared memory pool should make this near-instant", d)
	}
	// The new primary serves immediately from the shared pool.
	if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
		v, err := tx.Read(50)
		if err != nil {
			return err
		}
		if len(v) != layout.ValSize {
			t.Error("value lost in failover")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAddNodeIsMetadataOnly(t *testing.T) {
	layout := enginetest.Layout(t)
	e := New(sim.DefaultConfig(), layout, 1, 16, 256)
	c := sim.NewClock()
	val := make([]byte, layout.ValSize)
	for i := uint64(0); i < 50; i++ {
		engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(i, val) })
	}
	before := e.Stats().NetBytes.Load()
	rc := sim.NewClock()
	idx := e.AddNode(rc, 16)
	if rc.Now() > 100_000_000 {
		t.Fatalf("scale-out took %v", rc.Now())
	}
	if moved := e.Stats().NetBytes.Load() - before; moved != 0 {
		t.Fatalf("scale-out moved %d bytes", moved)
	}
	// New node reads immediately.
	if err := e.ReadReplica(c, idx, func(tx engine.Tx) error {
		_, err := tx.Read(10)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

func TestChaosCrashRecovery(t *testing.T) {
	enginetest.RunChaos(t, func(t *testing.T) engine.Engine {
		return New(sim.DefaultConfig(), enginetest.Layout(t), 2, 16, 256)
	})
}

// TestCommitAllocs bounds the host allocations of one cache-resident
// single-key RMW commit at the value measured before the shared commit
// pipeline (see enginetest.AllocGuard).
func TestCommitAllocs(t *testing.T) {
	enginetest.AllocGuard(t, New(sim.DefaultConfig(), enginetest.Layout(t), 2, 64, 4096), 27)
}
