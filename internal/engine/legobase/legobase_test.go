package legobase

import (
	"errors"
	"runtime"
	"testing"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/enginetest"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/wal"
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

// TestCommitAllocs bounds the host allocations of one cache-resident
// single-key RMW commit at the value measured before the shared commit
// pipeline (see enginetest.AllocGuard).
func TestCommitAllocs(t *testing.T) {
	enginetest.AllocGuard(t, New(sim.DefaultConfig(), enginetest.Layout(t), 64, 4096), 1, 0.45)
}

// TestMissAllocs bounds what one storage miss allocates with 4,000 records
// in the log (see enginetest.MissAllocGuard): both tiers smaller than the
// guard's 256 pages, and no storage checkpoint to truncate the log.
func TestMissAllocs(t *testing.T) {
	e := New(sim.DefaultConfig(), enginetest.Layout(t), 16, 64)
	e.CheckpointStorageEvery = 0
	enginetest.MissAllocGuard(t, e, 0.5)
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

// CheckpointRemote reads its start LSN and then walks the log from it; a
// storage round in that window, or overtaking the walk, truncates the log
// past where the walk stands. The fast tier must then say so (the storage
// round raised its start, the next round begins there) — never redo a
// partial tail as if it were whole, and never fail any other way. The local
// tier holds the whole working set, so the remote pool is only ever written.
func TestCheckpointRemoteRacingCheckpointStorage(t *testing.T) {
	layout := enginetest.Layout(t)
	e := New(sim.DefaultConfig(), layout, 32, 256)
	e.CheckpointRemoteEvery, e.CheckpointStorageEvery = 0, 0
	c := sim.NewClock()
	want := map[uint64]byte{}
	write := func(n uint64) {
		key, val := n*37%(16*uint64(layout.PerPage)), make([]byte, layout.ValSize)
		val[0] = byte(n)
		if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(key, val) }); err != nil {
			t.Fatalf("write %d: %v", n, err)
		}
		want[key] = val[0]
	}
	n := uint64(1)
	for ; n <= 64; n++ { // every page is local before the race starts
		write(n)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	truncated := 0
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.CheckpointRemote(sim.NewClock()); errors.Is(err, wal.ErrTruncated) {
				truncated++
			} else if err != nil {
				t.Errorf("CheckpointRemote: %v, want nil or ErrTruncated", err)
				return
			}
		}
	}()
	for ; n <= 4000; n++ {
		write(n)
		if n%8 == 0 {
			if err := e.CheckpointStorage(sim.NewClock()); err != nil {
				t.Fatalf("CheckpointStorage after write %d: %v", n, err)
			}
		}
	}
	close(stop)
	<-done
	t.Logf("remote rounds that met the truncation: %d", truncated)
	e.Crash()
	if _, err := e.Recover(sim.NewClock()); err != nil {
		t.Fatalf("recover: %v", err)
	}
	for key, b := range want {
		if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
			v, err := tx.Read(key)
			if err == nil && v[0] != b {
				t.Errorf("key %d = %d after recovery, want %d", key, v[0], b)
			}
			return err
		}); err != nil {
			t.Fatalf("read %d: %v", key, err)
		}
	}
}

// A warm CheckpointRemote copies every dirty frame through one recycled page
// buffer: over many dirty pages it allocates less than one page in total.
// TotalAlloc is process-wide, so a single round can catch an allocation made
// meanwhile by another goroutine (a runtime or test-framework one); the
// guard re-dirties the pages for several rounds and bounds the least.
func TestCheckpointRemoteAllocatesNoPagePerDirtyPage(t *testing.T) {
	layout := enginetest.Layout(t)
	e := New(sim.DefaultConfig(), layout, 64, 256)
	e.CheckpointRemoteEvery, e.CheckpointStorageEvery = 0, 0
	c := sim.NewClock()
	const pages, rounds = 32, 5
	dirty := func() {
		for i := 0; i < pages; i++ {
			key := uint64(i * layout.PerPage)
			if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(key, make([]byte, layout.ValSize)) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	dirty()
	if err := e.CheckpointRemote(c); err != nil { // maps every page in remote memory
		t.Fatal(err)
	}
	var least uint64
	for r := 0; r < rounds; r++ {
		dirty()
		if n := len(e.Tiers.Local.DirtyIDs()); n != pages {
			t.Fatalf("%d dirty pages before measured round %d, want %d", n, r, pages)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := e.CheckpointRemote(c); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; r == 0 || got < least {
			least = got
		}
	}
	if least >= uint64(layout.PageSize) && !enginetest.RaceBuild() { // page.Alloc recycles nothing under -race
		t.Fatalf("CheckpointRemote over %d dirty pages allocated at least %d bytes in each of %d rounds, want < one %d-byte page", pages, least, rounds, layout.PageSize)
	}
	t.Logf("CheckpointRemote over %d dirty pages: %d bytes (least of %d rounds)", pages, least, rounds)
}

// TestRemoteCheckpointDuringEarlierDurableKeepsItsCommit: a remote-memory
// checkpoint taken while an earlier commit is inside Durable must not stamp
// the remote images past that commit (see enginetest.InFlightCaptureGuard).
func TestRemoteCheckpointDuringEarlierDurableKeepsItsCommit(t *testing.T) {
	cfg := sim.DefaultConfig()
	e := New(cfg, enginetest.Layout(t), 8, 256)
	enginetest.InFlightCaptureGuard(t, e, cfg, sim.PointDurable, e.CheckpointRemote)
}

// TestCheckpointDuringEarlierApplyKeepsItsCommit: a checkpoint round while
// an earlier commit to a page is decided but not yet applied must not
// truncate that commit's records (see enginetest.InFlightCaptureGuard).
func TestCheckpointDuringEarlierApplyKeepsItsCommit(t *testing.T) {
	cfg := sim.DefaultConfig()
	e := New(cfg, enginetest.Layout(t), 8, 256)
	enginetest.InFlightCaptureGuard(t, e, cfg, sim.PointApply, e.Checkpoint)
}

// Close retires the engine with the memory node it built for the remote
// tier: its touched memory goes back to the rdma spare list, so the region
// reads as zeros, and Execute sheds.
func TestCloseReleasesTheMemoryNode(t *testing.T) {
	layout := enginetest.Layout(t)
	e := New(sim.DefaultConfig(), layout, 16, 64)
	c := sim.NewClock()
	for key := uint64(0); key < 4; key++ {
		if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
			return tx.Write(key*uint64(layout.PerPage), make([]byte, layout.ValSize))
		}); err != nil {
			t.Fatal(err)
		}
	}
	e.CheckpointRemote(c)
	mem := e.MemNode.Node().Mem
	if enginetest.Zeroed(t, mem) {
		t.Fatal("no page reached the remote tier")
	}
	enginetest.CloseSheds(t, e)
	if !enginetest.Zeroed(t, mem) {
		t.Fatal("the remote tier's memory node holds data after Close")
	}
}
