package sharednothing

import (
	"bytes"
	"testing"

	"github.com/disagglab/disagg/internal/cluster"
	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/enginetest"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/wal"
)

func TestConformance(t *testing.T) {
	enginetest.RunConformance(t, func(t *testing.T, cfg *sim.Config) engine.Engine {
		return New(cfg, enginetest.Layout(t), 4)
	})
}

func TestElastic(t *testing.T) {
	enginetest.RunElastic(t, func(t *testing.T, cfg *sim.Config) cluster.Spec {
		layout := enginetest.Layout(t)
		var e *Engine
		return cluster.Spec{
			Name: "shared-nothing",
			New: func(id int) engine.Engine {
				e = New(cfg, layout, 1)
				return e
			},
			// Partitioned architecture: elasticity physically re-partitions
			// the single engine — the movement tax E4 measures.
			Rescale: func(c *sim.Clock, n int) int64 {
				return e.Rebalance(c, n)
			},
		}
	})
}

func TestCrossPartitionCostsMore(t *testing.T) {
	layout := enginetest.Layout(t)
	cfg := sim.DefaultConfig()
	e := New(cfg, layout, 8)
	val := make([]byte, layout.ValSize)

	// Find two keys on the same partition and two on different ones.
	var sameA, sameB, diffA, diffB uint64
	pa, _ := e.partOf(1)
	found := false
	for k := uint64(2); k < 1000 && !found; k++ {
		pk, _ := e.partOf(k)
		if pk == pa && sameB == 0 {
			sameA, sameB = 1, k
		}
		if pk != pa && diffB == 0 {
			diffA, diffB = 1, k
		}
		found = sameB != 0 && diffB != 0
	}
	if !found {
		t.Fatal("could not find key pairs")
	}
	single := sim.NewClock()
	if err := engine.Run(e, single, engine.RunOpts{}, func(tx engine.Tx) error {
		tx.Write(sameA, val)
		return tx.Write(sameB, val)
	}); err != nil {
		t.Fatal(err)
	}
	multi := sim.NewClock()
	if err := engine.Run(e, multi, engine.RunOpts{}, func(tx engine.Tx) error {
		tx.Write(diffA, val)
		return tx.Write(diffB, val)
	}); err != nil {
		t.Fatal(err)
	}
	if !(single.Now() < multi.Now()) {
		t.Fatalf("2PC txn (%v) should cost more than single-partition (%v)", multi.Now(), single.Now())
	}
}

func TestRebalanceMovesData(t *testing.T) {
	layout := enginetest.Layout(t)
	e := New(sim.DefaultConfig(), layout, 4)
	c := sim.NewClock()
	val := make([]byte, layout.ValSize)
	for i := uint64(0); i < 1000; i++ {
		key := i
		if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(key, val) }); err != nil {
			t.Fatal(err)
		}
	}
	rc := sim.NewClock()
	moved := e.Rebalance(rc, 8)
	if moved == 0 {
		t.Fatal("rebalance moved nothing")
	}
	if rc.Now() == 0 {
		t.Fatal("rebalance charged nothing")
	}
	if e.Partitions() != 8 {
		t.Fatalf("partitions = %d", e.Partitions())
	}
	// All data still readable after rebalance.
	for i := uint64(0); i < 1000; i += 97 {
		key := i
		if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
			v, err := tx.Read(key)
			if err != nil {
				return err
			}
			if len(v) != layout.ValSize {
				t.Errorf("key %d lost", key)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCommitAllocs bounds the host allocations of one cache-resident
// single-key RMW commit at what the guard measures (see
// enginetest.AllocGuard): the copy Read hands the caller. Execute's own
// bookkeeping — the read path, the per-write legs that group the writes by
// partition and list the held locks, the records, the probe clocks — is
// recycled scratch, and the partition's log copies the value into its chunks;
// built per transaction (a read closure, a by-partition map, a held-lock
// list, a fresh probe clock) it came to 7 allocations.
func TestCommitAllocs(t *testing.T) {
	enginetest.AllocGuard(t, New(sim.DefaultConfig(), enginetest.Layout(t), 4), 1, 0.50)
}

// Close sheds later transactions and releases every partition log: the live
// partitions' and those Rebalance replaced. A shard value is the log's copy
// of its image, so once the logs are released it is either recycled (the
// chunks it sat in are overwritten by their next holders here) or, under
// -race, poisoned.
func TestCloseShedsAndReleasesThePartitionLogs(t *testing.T) {
	layout := enginetest.Layout(t)
	e := New(sim.DefaultConfig(), layout, 2)
	c := sim.NewClock()
	value := bytes.Repeat([]byte{0x5A}, layout.ValSize)
	write := func(key uint64) []byte {
		t.Helper()
		if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(key, value) }); err != nil {
			t.Fatal(err)
		}
		_, p := e.partOf(key)
		return p.data[key]
	}
	held := [][]byte{write(1), write(2)} // in the logs Rebalance retires
	e.Rebalance(c, 3)
	held = append(held, write(3)) // in a live partition's log
	enginetest.CloseSheds(t, e)
	for range 8 {
		b := page.Alloc(wal.ChunkSize)
		for i := range b {
			b[i] = 0xEE
		}
	}
	for i, v := range held {
		if bytes.Equal(v, value) {
			t.Errorf("value %d still reads its image after Close: its log was not released", i)
		}
	}
}
