package pilotdb

import (
	"errors"
	"sync"
	"testing"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/enginetest"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/wal"
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

// tearNth tears the nth logstore.append and lets every other operation
// through.
type tearNth struct {
	mu sync.Mutex
	n  int
}

func (f *tearNth) Inject(_ *sim.Clock, site string) sim.FaultOutcome {
	f.mu.Lock()
	defer f.mu.Unlock()
	if site != "logstore.append" {
		return sim.FaultOutcome{}
	}
	f.n--
	return sim.FaultOutcome{Torn: f.n == 0}
}

// TestOptimisticRepairSkipsTornAppend: a torn PM-log append lands a prefix
// of an aborted transaction's records. The PM log used to link that prefix
// into its page chain, so SincePage handed the aborted update to a repairing
// optimistic read, which redid it and served the aborted write. The log
// store now holds a torn prefix undecided and never serves it.
func TestOptimisticRepairSkipsTornAppend(t *testing.T) {
	layout := enginetest.Layout(t)
	cfg := sim.DefaultConfig()
	cfg.Fault = &tearNth{n: 2}
	e := New(cfg, layout, 2, Pilot())
	c := sim.NewClock()
	write := func(key uint64, b byte) error {
		v := make([]byte, layout.ValSize)
		v[0] = b
		var stamp uint64
		err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
			engine.DeliverStamp(tx, &stamp)
			return tx.Write(key, v)
		})
		if err != nil && stamp != 0 {
			t.Errorf("write of %#x failed (%v) but was stamped %d", b, err, stamp)
		}
		return err
	}
	if err := write(0, 0x01); err != nil {
		t.Fatal(err)
	}
	aborts := e.Stats().Aborts.Load()
	if err := write(0, 0xAB); !errors.Is(err, engine.ErrUnavailable) {
		t.Fatalf("write over a torn append: %v, want ErrUnavailable", err)
	}
	if got := e.Stats().Aborts.Load(); got != aborts+1 {
		t.Fatalf("the torn write moved Aborts by %d, want 1", got-aborts)
	}
	if err := e.log.Range(0, ^wal.LSN(0), func(r *wal.Record) error {
		if r.Type == wal.TypeUpdate && r.After[0] == 0xAB {
			t.Errorf("the torn write's update is visible in the log at LSN %d", r.LSN)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if layout.PageOf(1) != layout.PageOf(0) {
		t.Fatal("keys 0 and 1 must share a page")
	}
	if err := write(1, 0x02); err != nil {
		t.Fatal(err)
	}
	e.Pool().InvalidateAll()
	repairs := e.Repairs.Load()
	if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
		v, err := tx.Read(0)
		if err == nil && v[0] != 0x01 {
			t.Errorf("key 0 = %#x, want 0x01: the repair redid the torn append's aborted update", v[0])
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got := e.Repairs.Load(); got != repairs+1 {
		t.Fatalf("the read made %d repairs, want 1: the stale-page path was not exercised", got-repairs)
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
	enginetest.AllocGuard(t, New(sim.DefaultConfig(), enginetest.Layout(t), 1024, Pilot()), 3, 1.15)
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
