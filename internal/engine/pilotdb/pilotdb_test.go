package pilotdb

import (
	"testing"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/enginetest"
	"github.com/disagglab/disagg/internal/sim"
)

func TestConformancePilot(t *testing.T) {
	enginetest.RunConformance(t, func(t *testing.T, cfg *sim.Config) engine.Engine {
		return New(cfg, enginetest.Layout(t), 64, Pilot())
	})
}

func TestConformanceNaive(t *testing.T) {
	enginetest.RunConformance(t, func(t *testing.T, cfg *sim.Config) engine.Engine {
		return New(cfg, enginetest.Layout(t), 64, Naive())
	})
}

func TestOptimisticReadsRepairStalePages(t *testing.T) {
	layout := enginetest.Layout(t)
	e := New(sim.DefaultConfig(), layout, 2, Pilot())
	c := sim.NewClock()
	val := make([]byte, layout.ValSize)
	val[0] = 0x5A
	// Writes spread over many pages so page-store ingestion (which lags
	// by one batch) leaves the last page stale; the tiny pool forces
	// re-reads from the page store.
	keys := 20 * uint64(layout.PerPage)
	for i := uint64(0); i < keys; i += uint64(layout.PerPage) {
		engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(i, val) })
	}
	e.Pool().InvalidateAll()
	for i := uint64(0); i < keys; i += uint64(layout.PerPage) {
		key := i
		if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
			v, err := tx.Read(key)
			if err != nil {
				return err
			}
			if v[0] != 0x5A {
				t.Errorf("key %d stale after repair: %v", key, v[0])
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if e.Validations.Load() == 0 {
		t.Fatal("no optimistic validations happened")
	}
	if e.Repairs.Load() == 0 {
		t.Fatal("no repairs happened — the staleness path was never exercised")
	}
}

func TestPilotCommitCheaperThanNaive(t *testing.T) {
	// E8 shape: compute-driven one-sided logging beats the server-driven
	// path on commit latency.
	layout := enginetest.Layout(t)
	cfg := sim.DefaultConfig()
	run := func(opt Options) sim.GroupResult {
		e := New(cfg, layout, 256, opt)
		return sim.RunGroup(1, func(id int, c *sim.Clock) int {
			val := make([]byte, layout.ValSize)
			for i := 0; i < 300; i++ {
				engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(uint64(i%50), val) })
			}
			return 300
		})
	}
	pilot := run(Pilot())
	naive := run(Naive())
	if !(pilot.MeanLatency() < naive.MeanLatency()) {
		t.Fatalf("pilot %v should beat naive %v", pilot.MeanLatency(), naive.MeanLatency())
	}
}

func TestRecoveryFromPMLog(t *testing.T) {
	layout := enginetest.Layout(t)
	e := New(sim.DefaultConfig(), layout, 64, Pilot())
	c := sim.NewClock()
	val := make([]byte, layout.ValSize)
	val[0] = 0x11
	for i := uint64(0); i < 50; i++ {
		engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(i, val) })
	}
	e.Crash()
	d, err := e.Recover(sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if d > 1_000_000 {
		t.Fatalf("PM-log recovery took %v", d)
	}
	for i := uint64(0); i < 50; i += 7 {
		key := i
		engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
			v, err := tx.Read(key)
			if err != nil {
				return err
			}
			if v[0] != 0x11 {
				t.Errorf("key %d lost", key)
			}
			return nil
		})
	}
}

func TestChaosCrashRecoveryPilot(t *testing.T) {
	enginetest.RunChaos(t, func(t *testing.T) engine.Engine {
		return New(sim.DefaultConfig(), enginetest.Layout(t), 64, Pilot())
	})
}

// TestCommitAllocs bounds the host allocations of one cache-resident
// single-key RMW commit at the value measured before the shared commit
// pipeline (see enginetest.AllocGuard).
func TestCommitAllocs(t *testing.T) {
	enginetest.AllocGuard(t, New(sim.DefaultConfig(), enginetest.Layout(t), 1024, Pilot()), 4, 2)
}

// TestHooksMayNotKeepRecs: the records a hook receives are the pipeline's
// scratch (see enginetest.RecsRetentionGuard). pilotdb is the engine that
// keeps a batch across commits, and the one whose reads survive losing it
// (an optimistic read repairs from the PM log, a checkpoint catches the page
// store up from the authoritative log), so the guard alone cannot see it:
// the page store must also have been sent the first commit's own records by
// the time the second commit returns.
func TestHooksMayNotKeepRecs(t *testing.T) {
	enginetest.RecsRetentionGuard(t, func() engine.Engine {
		return New(sim.DefaultConfig(), enginetest.Layout(t), 1024, Pilot())
	})
	e := New(sim.DefaultConfig(), enginetest.Layout(t), 1024, Pilot())
	c := sim.NewClock()
	for key := uint64(1); key <= 2; key++ {
		if err := e.Execute(c, func(tx engine.Tx) error { return tx.Write(key, []byte{byte(key)}) }); err != nil {
			t.Fatal(err)
		}
	}
	// Commit 1 is LSNs 1-2, commit 2 LSNs 3-4 and still waiting.
	if got := e.PageStore.HighLSN(); got != 2 {
		t.Fatalf("after two commits the page store holds records up to LSN %d, want 2: "+
			"the batch apply kept was not the first commit's any more when it was shipped", got)
	}
}
