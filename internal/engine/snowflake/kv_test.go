package snowflake

import (
	"testing"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/enginetest"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/wal"
)

func TestKVConformance(t *testing.T) {
	enginetest.RunConformance(t, func(t *testing.T, cfg *sim.Config) engine.Engine {
		return NewKV(cfg, enginetest.Layout(t))
	})
}

func TestKVChaosCrashRecovery(t *testing.T) {
	enginetest.RunChaos(t, func(t *testing.T) engine.Engine {
		return NewKV(sim.DefaultConfig(), enginetest.Layout(t))
	})
}

// A torn segment upload (crash mid-put) must lose only the torn tail:
// whole records in the truncated object replay cleanly at recovery.
func TestKVTornSegmentRecoversCleanPrefix(t *testing.T) {
	layout := enginetest.Layout(t)
	e := NewKV(sim.DefaultConfig(), layout)
	c := sim.NewClock()
	val := make([]byte, layout.ValSize)
	val[0] = 0xAB
	for i := uint64(0); i < 8; i++ {
		if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(i, val) }); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a crash mid-upload: truncate the newest segment object to a
	// byte count that splits a record.
	keys := e.Store.Keys()
	last := ""
	for _, k := range keys {
		if k > last {
			last = k
		}
	}
	data, err := e.Store.Get(c, last)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := wal.DecodePrefix(data)
	if err != nil || len(recs) == 0 {
		t.Fatalf("bad segment: %v (%d recs)", err, len(recs))
	}
	if err := e.Store.Put(c, last, data[:len(data)-5]); err != nil {
		t.Fatal(err)
	}
	e.Crash()
	if _, err := e.Recover(sim.NewClock()); err != nil {
		t.Fatalf("recovery choked on torn segment: %v", err)
	}
	// All but the last segment's torn tail must be intact.
	if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
		v, err := tx.Read(0)
		if err != nil {
			return err
		}
		if v[0] != 0xAB {
			t.Errorf("key 0 lost after torn-segment recovery")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCommitAllocs bounds the host allocations of one cache-resident
// single-key RMW commit at the value measured before the shared commit
// pipeline (see enginetest.AllocGuard).
func TestCommitAllocs(t *testing.T) {
	enginetest.AllocGuard(t, NewKV(sim.DefaultConfig(), enginetest.Layout(t)), 17, 2.5)
}
