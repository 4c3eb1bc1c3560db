package sharednothing

import (
	"bytes"
	"testing"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/drill"
	"github.com/disagglab/disagg/internal/engine/enginetest"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/sim/fault"
	"github.com/disagglab/disagg/internal/wal"
)

func TestConformance(t *testing.T) {
	enginetest.RunConformance(t, func(t *testing.T, cfg *sim.Config) engine.Engine {
		return New(cfg, enginetest.Layout(t), 4)
	})
}

// TestRebalanceKeepsAckedWrites re-partitions the engine between two
// phases of the drill's workload, 2 -> 3 partitions under the live fault
// profile, then drains it to one partition on a healed fabric. Rebalance
// physically moves every key whose home changes and charges the transfer
// (the elasticity tax E4 and E28 measure), and no acked write may be lost
// on the way: every key is verified after each step, and the accounting
// law holds at the end.
func TestRebalanceKeepsAckedWrites(t *testing.T) {
	seed := enginetest.Seed()
	run := func(t *testing.T, p *fault.Profile) {
		cfg, inj, label := drill.FaultConfig(sim.DefaultConfig(), p, seed)
		e := New(cfg, enginetest.Layout(t), 2)
		w := drill.NewWorkload(e, "rebalance/"+label, seed)
		// verify reads every key back on a healed fabric, then re-arms it.
		verify := func(after string) {
			if inj != nil {
				inj.Heal()
				defer inj.Enable()
			}
			w.Verify(after)
		}
		rebalance := func(n int) {
			c := sim.NewClock()
			if moved := e.Rebalance(c, n); moved == 0 || c.Now() == 0 || e.Partitions() != n {
				t.Errorf("rebalance to %d: moved %d bytes in %v, %d partitions", n, moved, c.Now(), e.Partitions())
			}
		}
		w.Extend(seed, drill.Ops, nil)
		rebalance(3)
		verify(" after rebalance to 3")
		w.Extend(seed+1, drill.Ops, nil)
		verify(" after the second phase")
		if inj != nil {
			inj.Heal()
		}
		rebalance(1)
		w.Verify(" after drain to 1")
		rep := w.Report()
		t.Logf("%s: commits=%d writeErrs=%d readErrs=%d", rep.Label, rep.Commits, rep.WriteErrs, rep.ReadErrs)
		for _, v := range rep.Violations {
			t.Errorf("%s", v)
		}
		if err := drill.Conservation(e.Stats()); err != nil {
			t.Error(err)
		}
	}
	t.Run("Clean", func(t *testing.T) { run(t, nil) })
	for _, p := range fault.Profiles() {
		t.Run("Fault/"+p.Name, func(t *testing.T) { run(t, &p) })
	}
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
