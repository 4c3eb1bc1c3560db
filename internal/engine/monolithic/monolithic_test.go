package monolithic_test

import (
	"bytes"
	"testing"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/enginetest"
	"github.com/disagglab/disagg/internal/engine/monolithic"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/sim"
)

func TestConformance(t *testing.T) {
	enginetest.RunConformance(t, func(t *testing.T, cfg *sim.Config) engine.Engine {
		return monolithic.New(cfg, enginetest.Layout(t), 64)
	})
}

func TestCheckpointTruncatesLog(t *testing.T) {
	cfg := sim.DefaultConfig()
	e := monolithic.New(cfg, enginetest.Layout(t), 64)
	c := sim.NewClock()
	for i := uint64(0); i < 50; i++ {
		engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(i, make([]byte, 64)) })
	}
	before := e.LogLen()
	if err := e.Checkpoint(c); err != nil {
		t.Fatal(err)
	}
	if e.LogLen() >= before {
		t.Fatalf("log not truncated: %d -> %d", before, e.LogLen())
	}
	// Data survives crash+recovery through the checkpoint.
	e.Crash()
	if _, err := e.Recover(sim.NewClock()); err != nil {
		t.Fatal(err)
	}
	engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
		v, err := tx.Read(3)
		if err != nil {
			return err
		}
		if len(v) != 64 {
			t.Error("value lost through checkpoint")
		}
		return nil
	})
}

func TestRecoveryReplaysOnlyTail(t *testing.T) {
	cfg := sim.DefaultConfig()
	e := monolithic.New(cfg, enginetest.Layout(t), 64)
	c := sim.NewClock()
	for i := uint64(0); i < 100; i++ {
		engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(i%10, make([]byte, 64)) })
	}
	e.Checkpoint(c)
	// A few more post-checkpoint commits.
	for i := uint64(0); i < 5; i++ {
		engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(i, make([]byte, 64)) })
	}
	e.Crash()
	short, err := e.Recover(sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}

	// Without a checkpoint the same history replays everything.
	e2 := monolithic.New(cfg, enginetest.Layout(t), 64)
	c2 := sim.NewClock()
	for i := uint64(0); i < 105; i++ {
		engine.Run(e2, c2, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(i%10, make([]byte, 64)) })
	}
	e2.Crash()
	long, err := e2.Recover(sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if !(short < long) {
		t.Fatalf("checkpointed recovery (%v) should beat full replay (%v)", short, long)
	}
}

// TestCommitDuringCheckpointSurvivesRestart is the flush→truncate
// ordering regression: a commit acknowledged after the checkpoint's
// FlushAll but before its TruncateBefore used to have its log records
// truncated (the horizon was captured after the flush, so it covered the
// late commit) while its page updates lived only in the buffer pool —
// crash, and the acked commit was gone. The horizon must be captured
// before the flush so late commits stay in the retained tail.
func TestCommitDuringCheckpointSurvivesRestart(t *testing.T) {
	cfg := sim.DefaultConfig()
	layout := enginetest.Layout(t)
	e := monolithic.New(cfg, layout, 64)
	c := sim.NewClock()
	for i := uint64(0); i < 20; i++ {
		engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(i, make([]byte, 64)) })
	}
	// The racing commit lands between the dirty-page flush and the log
	// truncation.
	late := make([]byte, 64)
	for i := range late {
		late[i] = 0xA5
	}
	lateErr := error(nil)
	cfg.At = func(_ *sim.Clock, pt sim.Point) {
		if pt == sim.PointFlushed {
			lateErr = engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
				return tx.Write(7, late)
			})
		}
	}
	if err := e.Checkpoint(c); err != nil {
		t.Fatal(err)
	}
	if lateErr != nil {
		t.Fatalf("racing commit was not acknowledged: %v", lateErr)
	}
	e.Crash()
	if _, err := e.Recover(sim.NewClock()); err != nil {
		t.Fatal(err)
	}
	var got []byte
	if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
		v, err := tx.Read(7)
		if err != nil {
			return err
		}
		got = v
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != 0xA5 {
			t.Fatalf("acked commit lost across checkpoint+restart: byte %d = %#x", i, got[i])
		}
	}
}

// TestMissDuringDurableReadsPreCommitValue: a page miss redoes the page's
// log chain, and that chain used to hold records whose Durable had not yet
// returned — a read during another transaction's fsync served a value that
// was not durable (G1a, and permanent had the fsync failed). The miss must
// read the value committed before.
func TestMissDuringDurableReadsPreCommitValue(t *testing.T) {
	layout := enginetest.Layout(t)
	cfg := sim.DefaultConfig()
	e := monolithic.New(cfg, layout, 64)
	const key = 5
	val := func(b byte) []byte { return bytes.Repeat([]byte{b}, layout.ValSize) }
	if err := engine.Run(e, sim.NewClock(), engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(key, val(1)) }); err != nil {
		t.Fatal(err)
	}
	e.Pool().InvalidateAll() // the next read of the key misses
	held, entered, release := sim.NewClock(), make(chan struct{}), make(chan struct{})
	cfg.At = func(c *sim.Clock, pt sim.Point) {
		if c == held && pt == sim.PointDurable {
			close(entered)
			<-release
		}
	}
	done := make(chan error)
	go func() {
		done <- engine.Run(e, held, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(key, val(2)) })
	}()
	<-entered
	var got []byte
	err := engine.Run(e, sim.NewClock(), engine.RunOpts{}, func(tx engine.Tx) error {
		v, err := tx.Read(key)
		got = v
		return err
	})
	close(release)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatalf("a miss during the commit's fsync read %d, want the committed 1", got[0])
	}
}

func TestNoNetworkTraffic(t *testing.T) {
	e := monolithic.New(sim.DefaultConfig(), enginetest.Layout(t), 64)
	c := sim.NewClock()
	for i := uint64(0); i < 20; i++ {
		engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(i, make([]byte, 64)) })
	}
	if e.Stats().NetBytes.Load() != 0 {
		t.Fatalf("monolithic engine used the network: %d bytes", e.Stats().NetBytes.Load())
	}
}

func TestChaosCrashRecovery(t *testing.T) {
	enginetest.RunChaos(t, func(t *testing.T) engine.Engine {
		return monolithic.New(sim.DefaultConfig(), enginetest.Layout(t), 64)
	})
}

// TestCommitAllocs bounds the host allocations of one cache-resident
// single-key RMW commit at the value measured before the shared commit
// pipeline (see enginetest.AllocGuard).
func TestCommitAllocs(t *testing.T) {
	enginetest.AllocGuard(t, monolithic.New(sim.DefaultConfig(), enginetest.Layout(t), 1024), 1, 0.50)
}

// TestHooksMayNotKeepRecs: the records a hook receives are the pipeline's
// scratch (see enginetest.RecsRetentionGuard).
func TestHooksMayNotKeepRecs(t *testing.T) {
	enginetest.RecsRetentionGuard(t, func() engine.Engine {
		return monolithic.New(sim.DefaultConfig(), enginetest.Layout(t), 1024)
	})
}

// TestMissAllocs bounds what one page miss allocates with 4,000 records in
// the log (see enginetest.MissAllocGuard).
func TestMissAllocs(t *testing.T) {
	enginetest.MissAllocGuard(t, monolithic.New(sim.DefaultConfig(), enginetest.Layout(t), 64), 0.25)
}

// TestDirtyMissAllocs bounds what one write to an uncached page allocates
// when its miss evicts a dirty frame: the writeback overwrites the page's disk
// image instead of copying the frame into a new one (see
// enginetest.DirtyMissAllocGuard).
func TestDirtyMissAllocs(t *testing.T) {
	enginetest.DirtyMissAllocGuard(t, monolithic.New(sim.DefaultConfig(), enginetest.Layout(t), 64), 1.25)
}

// A miss on a page copies its disk image out while writebacks of the same
// page — dirty evictions and FlushAll — overwrite that image in place. Run
// under -race: the copy must happen under the engine's lock, and every
// fetched value must be one whole value a commit wrote.
func TestMissDuringWritebackOfThePage(t *testing.T) {
	layout := enginetest.Layout(t)
	e := monolithic.New(sim.DefaultConfig(), layout, 1)
	p, q := uint64(layout.PerPage), 2*uint64(layout.PerPage) // first keys of pages 1 and 2
	write := func(c *sim.Clock, key uint64, b byte) error {
		v := bytes.Repeat([]byte{b}, layout.ValSize)
		return engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(key, v) })
	}
	if err := write(sim.NewClock(), p, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Pool().FlushAll(sim.NewClock()); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		// One frame: each write to one page evicts the other page's dirty
		// frame, and every fourth round flushes P's instead.
		c := sim.NewClock()
		for i := 2; i < 400; i++ {
			if err := write(c, p, byte(i)); err != nil {
				done <- err
				return
			}
			if i%4 == 0 {
				if err := e.Pool().FlushAll(c); err != nil {
					done <- err
					return
				}
			}
			if err := write(c, q, byte(i)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	c := sim.NewClock()
	for fetching := true; fetching; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			fetching = false
		default:
		}
		img, err := e.FetchPage(c, page.ID(1))
		if err != nil {
			t.Fatal(err)
		}
		v, err := layout.ReadValue(img, p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(v, bytes.Repeat(v[:1], len(v))) {
			t.Fatalf("a miss during a writeback of its page read a torn value %x…", v[:8])
		}
	}
}

// TestFetchFailsWhenRedoFails: fetchPage used to stop at WriteValue's first
// error and serve the half-redone page (see enginetest.FailedRedoGuard).
func TestFetchFailsWhenRedoFails(t *testing.T) {
	e := monolithic.New(sim.DefaultConfig(), enginetest.Layout(t), 64)
	enginetest.FailedRedoGuard(t, e, e.PlantDiskImage, e.Pool().InvalidateAll)
}

// TestImageWrittenBackDuringEarlierDurableKeepsItsCommit: a writeback during
// an earlier commit's fsync must not stamp the disk image past that commit
// (see enginetest.InFlightCaptureGuard).
func TestImageWrittenBackDuringEarlierDurableKeepsItsCommit(t *testing.T) {
	cfg := sim.DefaultConfig()
	e := monolithic.New(cfg, enginetest.Layout(t), 64)
	enginetest.InFlightCaptureGuard(t, e, cfg, sim.PointDurable, e.Pool().FlushAll)
}

// TestCheckpointDuringEarlierApplyKeepsItsCommit: a checkpoint round while
// an earlier commit to a page is decided but not yet applied must not
// truncate that commit's records (see enginetest.InFlightCaptureGuard).
func TestCheckpointDuringEarlierApplyKeepsItsCommit(t *testing.T) {
	cfg := sim.DefaultConfig()
	e := monolithic.New(cfg, enginetest.Layout(t), 64)
	enginetest.InFlightCaptureGuard(t, e, cfg, sim.PointApply, e.Checkpoint)
}
