package taurus

import (
	"bytes"
	"testing"
	"time"

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
	enginetest.AllocGuard(t, New(sim.DefaultConfig(), enginetest.Layout(t), 1024, 3), 2, 1.95)
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

// dropNth drops the n-th operation at site (0-based) and lets every other
// one through.
type dropNth struct {
	site string
	n    int
	seen int
}

func (d *dropNth) Inject(_ *sim.Clock, site string) sim.FaultOutcome {
	if site != d.site {
		return sim.FaultOutcome{}
	}
	d.seen++
	return sim.FaultOutcome{Drop: d.seen-1 == d.n}
}

// TestDroppedPageStoreWriteStillReads: two commits to one cached page ride
// one group flush, and one commit's page-store write is dropped. The commit
// is durable (its records are in the log-store quorum), so a read must see
// it. Left to go stale at the publish, the cached frame was stamped past it
// by the other rider's apply first and then validated without the write for
// good (half of a two-key write visible in the batched drill's drops cells).
func TestDroppedPageStoreWriteStillReads(t *testing.T) {
	layout := enginetest.Layout(t)
	for drop := 0; drop < 2; drop++ {
		cfg := sim.DefaultConfig()
		e := New(cfg, layout, 64, 3)
		e.GossipEvery = 0
		e.EnableGroupCommit(2, 50*time.Microsecond)
		c := sim.NewClock()
		val := func(tag byte) []byte { return bytes.Repeat([]byte{tag}, layout.ValSize) }
		for k := uint64(0); k < 2; k++ { // both keys on page 0, which a read then caches
			if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(k, val(1)) }); err != nil {
				t.Fatal(err)
			}
		}
		if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { _, err := tx.Read(0); return err }); err != nil {
			t.Fatal(err)
		}
		if !e.Pool().Contains(layout.PageOf(0)) || layout.PageOf(0) != layout.PageOf(1) {
			t.Fatal("setup: keys 0 and 1 must share one cached page")
		}
		cfg.Fault = &dropNth{site: "replica.ingest", n: drop}
		sim.RunGroup(2, func(id int, c *sim.Clock) int {
			e.Execute(c, func(tx engine.Tx) error { return tx.Write(uint64(id), val(byte(2+id))) })
			return 1
		})
		cfg.Fault = nil
		for k := uint64(0); k < 2; k++ {
			if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
				v, err := tx.Read(k)
				if err == nil && v[0] != byte(2+k) {
					t.Errorf("drop %d: key %d reads %#x, want the durable commit's %#x", drop, k, v[0], 2+k)
				}
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
}
