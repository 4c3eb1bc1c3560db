package taurus

import (
	"bytes"
	"testing"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/enginetest"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/wal"
)

func TestConformance(t *testing.T) {
	enginetest.RunConformance(t, func(t *testing.T, cfg *sim.Config) engine.Engine {
		return New(cfg, enginetest.Layout(t), 64, 3)
	})
}

func TestPageStoresLagAndConverge(t *testing.T) {
	layout := enginetest.Layout(t)
	e := New(sim.DefaultConfig(), layout, 64, 3)
	e.GossipEvery = 0 // manual gossip
	c := sim.NewClock()
	val := make([]byte, layout.ValSize)
	for i := uint64(0); i < 30; i++ {
		if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(i, val) }); err != nil {
			t.Fatal(err)
		}
	}
	if e.MaxPageLag() == 0 {
		t.Fatal("1-of-N page writes should leave stores at different LSNs")
	}
	bg := sim.NewClock()
	for i := 0; i < 4 && e.MaxPageLag() > 0; i++ {
		e.PageStores.GossipRound(bg)
	}
	if e.MaxPageLag() != 0 {
		t.Fatalf("gossip did not converge: lag %d", e.MaxPageLag())
	}
}

func TestStaleReadTriggersGossipAndSucceeds(t *testing.T) {
	layout := enginetest.Layout(t)
	e := New(sim.DefaultConfig(), layout, 4, 3)
	e.GossipEvery = 0
	c := sim.NewClock()
	val := make([]byte, layout.ValSize)
	for i := uint64(0); i < 20; i++ {
		engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(i, val) })
	}
	e.Pool().InvalidateAll()
	// The read needs the newest LSN; no single store has the full
	// prefix, so the engine gossips on demand and then serves it.
	if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
		v, err := tx.Read(19)
		if err != nil {
			return err
		}
		if len(v) != layout.ValSize {
			t.Error("bad value")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestLogStoreQuorumFailure(t *testing.T) {
	layout := enginetest.Layout(t)
	e := New(sim.DefaultConfig(), layout, 64, 3)
	c := sim.NewClock()
	val := make([]byte, layout.ValSize)
	e.LogStores.Stores[0].Fail()
	if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(1, val) }); err != nil {
		t.Fatalf("2/3 log stores should suffice: %v", err)
	}
	e.LogStores.Stores[1].Fail()
	if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(2, val) }); err != engine.ErrUnavailable {
		t.Fatalf("1/3 log stores: %v", err)
	}
}

func TestChaosCrashRecovery(t *testing.T) {
	enginetest.RunChaos(t, func(t *testing.T) engine.Engine {
		return New(sim.DefaultConfig(), enginetest.Layout(t), 64, 3)
	})
}

// TestCommitAllocs bounds the host allocations of one cache-resident
// single-key RMW commit at the value measured before the shared commit
// pipeline (see enginetest.AllocGuard).
func TestCommitAllocs(t *testing.T) {
	enginetest.AllocGuard(t, New(sim.DefaultConfig(), enginetest.Layout(t), 1024, 3), 2, 4)
}

// TestHooksMayNotKeepRecs: the records a hook receives are the pipeline's
// scratch (see enginetest.RecsRetentionGuard).
func TestHooksMayNotKeepRecs(t *testing.T) {
	enginetest.RecsRetentionGuard(t, func() engine.Engine {
		return New(sim.DefaultConfig(), enginetest.Layout(t), 1024, 3)
	})
}

// TestPartialQuorumAppendLeavesNothingBehind is the log-tier twin of
// aurora's: a commit whose append reached one of the three log stores, short
// of the quorum of two, fails. The store that took the records must hold
// them undecided: once the other stores are back it counts and stores none
// of them, recovery's quorum-durable mark stays below them, and the next
// commit stores only its own records.
func TestPartialQuorumAppendLeavesNothingBehind(t *testing.T) {
	layout := enginetest.Layout(t)
	e := New(sim.DefaultConfig(), layout, 64, 3)
	c := sim.NewClock()
	write := func(b byte) error {
		return engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
			return tx.Write(1, bytes.Repeat([]byte{b}, layout.ValSize))
		})
	}
	e.LogStores.Stores[1].Fail()
	e.LogStores.Stores[2].Fail()
	if err := write(0xAB); err == nil {
		t.Fatal("an append that reached 1 of 3 log stores committed")
	}
	failed := wal.LSN(e.log.Len()) // the failed commit's last LSN
	e.LogStores.Stores[1].Restart()
	e.LogStores.Stores[2].Restart()
	ls := e.LogStores.Stores[0]
	if ls.HighLSN() != 0 || ls.Len() != 0 {
		t.Fatalf("store 0 after the failed append: high %d, %d records; want 0, 0", ls.HighLSN(), ls.Len())
	}
	e.Crash()
	if _, err := e.Recover(c); err != nil {
		t.Fatal(err)
	}
	if h := e.LogStores.HighLSN(); h >= failed {
		t.Fatalf("recovery learned quorum-durable LSN %d, counting the failed append's LSN %d", h, failed)
	}
	if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
		v, err := tx.Read(1)
		if err == nil && v[0] == 0xAB {
			t.Error("the failed write reads back after recovery")
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := write(0xCD); err != nil {
		t.Fatal(err)
	}
	if ls.Len() != 2 || ls.HighLSN() <= failed {
		t.Fatalf("store 0 after the next commit: %d records, high %d; want its 2 records, above %d", ls.Len(), ls.HighLSN(), failed)
	}
}
