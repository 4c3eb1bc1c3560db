package serverless

import (
	"encoding/binary"
	"errors"
	"sync"
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
	val := func(n uint64) []byte {
		v := make([]byte, layout.ValSize)
		binary.LittleEndian.PutUint64(v, n)
		return v
	}
	for i := uint64(0); i < 100; i++ {
		engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(i, val(i)) })
	}
	// The last commit to key 50 misses the two storage replicas nearest
	// every node (AZ 0 is down for it), and its page leaves the shared pool:
	// a read while the primary is down goes to the volume, where only the
	// writer's pre-crash mark keeps it off the stale replicas.
	e.Volume.FailAZ(0)
	if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(50, val(5050)) }); err != nil {
		t.Fatal(err)
	}
	e.Volume.Replicas[0].Restart()
	e.Volume.Replicas[1].Restart()
	e.Shared.Drop(layout.PageOf(50))
	read50 := func(tx engine.Tx) error {
		v, err := tx.Read(50)
		if err == nil && binary.LittleEndian.Uint64(v) != 5050 {
			t.Errorf("read key 50 = %d, want the acked 5050", binary.LittleEndian.Uint64(v))
		}
		return err
	}
	e.Crash()
	// Down, the primary sheds read-write work without running it; the
	// surviving secondary still serves reads.
	shed, ran := e.Stats().Shed.Load(), false
	if err := e.Execute(c, func(tx engine.Tx) error { ran = true; return nil }); !errors.Is(err, engine.ErrUnavailable) || ran {
		t.Fatalf("crashed primary: err %v, fn ran %v; want ErrUnavailable without running", err, ran)
	}
	if got := e.Stats().Shed.Load(); got != shed+1 {
		t.Errorf("crashed primary counted %d sheds, want 1", got-shed)
	}
	if err := e.ReadReplica(c, 1, read50); err != nil {
		t.Fatalf("secondary read while the primary is down: %v", err)
	}
	rc := sim.NewClock()
	d, err := e.Recover(rc)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1_000_000 {
		t.Fatalf("failover took %v — shared memory pool should make this near-instant", d)
	}
	// The new primary serves and commits immediately from the shared pool;
	// the old primary stays down.
	if err := engine.Run(e, c, engine.RunOpts{}, read50); err != nil {
		t.Fatal(err)
	}
	if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(51, val(51)) }); err != nil {
		t.Fatalf("new primary cannot commit: %v", err)
	}
	if err := e.ReadReplica(c, 0, read50); !errors.Is(err, engine.ErrUnavailable) {
		t.Fatalf("read on the failed-over primary: err %v, want ErrUnavailable", err)
	}
}

// A warm Recover of a live engine (a fleet's survivor taking over a shard)
// keeps its primary: it never crashed, so nothing fails over.
func TestWarmRecoverKeepsTheLivePrimary(t *testing.T) {
	layout := enginetest.Layout(t)
	e := New(sim.DefaultConfig(), layout, 3, 16, 256)
	c := sim.NewClock()
	val := make([]byte, layout.ValSize)
	write := func(n uint64) error {
		binary.LittleEndian.PutUint64(val, n)
		return engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(7, val) })
	}
	if err := write(1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Recover(sim.NewClock()); err != nil {
		t.Fatal(err)
	}
	if p := e.primary.Load(); p != 0 {
		t.Fatalf("a warm Recover moved the primary to node %d, want node 0 kept", p)
	}
	if err := write(2); err != nil {
		t.Fatalf("the kept primary cannot commit: %v", err)
	}
	err := e.ReadReplica(c, 0, func(tx engine.Tx) error {
		v, err := tx.Read(7)
		if err == nil && binary.LittleEndian.Uint64(v) != 2 {
			t.Errorf("node 0 reads key 7 = %d, want 2", binary.LittleEndian.Uint64(v))
		}
		return err
	})
	if err != nil {
		t.Fatalf("read on the kept primary: %v", err)
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

// TestCommitAllocs bounds the host allocations of one cache-resident
// single-key RMW commit at the value measured before the shared commit
// pipeline (see enginetest.AllocGuard).
func TestCommitAllocs(t *testing.T) {
	enginetest.AllocGuard(t, New(sim.DefaultConfig(), enginetest.Layout(t), 2, 64, 4096), 2, 1.10)
}

// dropSite is a fault injector that drops every operation at one site
// while armed.
type dropSite struct {
	site  string
	armed bool
}

func (d *dropSite) Inject(c *sim.Clock, site string) sim.FaultOutcome {
	return sim.FaultOutcome{Drop: d.armed && site == d.site}
}

// TestReadAfterFailedApply: a commit whose shared-pool apply fails is
// durable but unacknowledged, and the pipeline still publishes its page
// versions. The pre-commit images left in the shared pool and the local
// caches then fail validation, so every node's next read materialises the
// page from the volume's durable log and sees the committed value — on
// both ways apply can fail: the shared-pool write (the pool unmaps the
// frame itself) and the shared-pool read (the pool still holds the
// pre-commit image).
func TestReadAfterFailedApply(t *testing.T) {
	for _, site := range []string{"rdma.write", "rdma.read"} {
		t.Run(site, func(t *testing.T) {
			layout := enginetest.Layout(t)
			cfg := sim.DefaultConfig()
			fault := &dropSite{site: site}
			cfg.Fault = fault
			e := New(cfg, layout, 2, 16, 256)
			c := sim.NewClock()
			val := func(n uint64) []byte {
				v := make([]byte, layout.ValSize)
				binary.LittleEndian.PutUint64(v, n)
				return v
			}
			if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(9, val(1)) }); err != nil {
				t.Fatal(err)
			}
			// The secondary caches the pre-commit image; the primary's local
			// copy is dropped so apply has to go to the shared pool.
			e.ReadReplica(c, 1, func(tx engine.Tx) error { _, err := tx.Read(9); return err })
			e.nodes[0].cache.InvalidateAll()

			fault.armed = true
			runs := 0
			err := engine.Run(e, c, engine.RunOpts{Retries: 3}, func(tx engine.Tx) error { runs++; return tx.Write(9, val(2)) })
			fault.armed = false
			if err == nil || runs != 1 {
				t.Fatalf("failed apply: err=%v after %d runs, want a non-retryable error after 1", err, runs)
			}
			read := func(tx engine.Tx) error {
				v, err := tx.Read(9)
				if err == nil && binary.LittleEndian.Uint64(v) != 2 {
					t.Errorf("read %d after the durable commit of 2", binary.LittleEndian.Uint64(v))
				}
				return err
			}
			if err := e.ReadReplica(c, 1, read); err != nil {
				t.Fatal(err)
			}
			if err := engine.Run(e, c, engine.RunOpts{}, read); err != nil {
				t.Fatal(err)
			}
			hits := e.Stats().CacheHits.Load()
			if err := e.ReadReplica(c, 1, read); err != nil {
				t.Fatal(err)
			}
			if e.Stats().CacheHits.Load() != hits+1 {
				t.Error("the refetched page does not validate: local cache misses forever")
			}
		})
	}
}

// TestSamePageCommitsWaitForTheLatch: writers of different keys on one
// page never conflict on row locks, so they meet at the page latch after
// their records are durable. Every commit must be acknowledged (a busy
// latch is waited for however long its holder is descheduled, never
// surfaced as an error) and none of the read-modify-writes of the shared
// page image may be lost. Run under -race.
func TestSamePageCommitsWaitForTheLatch(t *testing.T) {
	layout := enginetest.Layout(t)
	e := New(sim.DefaultConfig(), layout, 1, 16, 256)
	const writers, rounds = 4, 200
	for k := uint64(0); k < writers; k++ {
		if layout.PageOf(k) != layout.PageOf(0) {
			t.Fatalf("key %d is not on key 0's page", k)
		}
	}
	var wg sync.WaitGroup
	for w := uint64(0); w < writers; w++ {
		wg.Add(1)
		go func(key uint64) {
			defer wg.Done()
			c := sim.NewClock()
			val := make([]byte, layout.ValSize)
			for n := uint64(1); n <= rounds; n++ {
				binary.LittleEndian.PutUint64(val, n)
				if err := e.Execute(c, func(tx engine.Tx) error { return tx.Write(key, val) }); err != nil {
					t.Errorf("writer %d commit %d: %v", key, n, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := e.Stats()
	if c, a := st.Commits.Load(), st.Attempts.Load(); c != writers*rounds || a != c {
		t.Errorf("commits/attempts = %d/%d, want %d/%d", c, a, writers*rounds, writers*rounds)
	}
	if err := e.Execute(sim.NewClock(), func(tx engine.Tx) error {
		for k := uint64(0); k < writers; k++ {
			v, err := tx.Read(k)
			if err != nil {
				return err
			}
			if got := binary.LittleEndian.Uint64(v); got != rounds {
				t.Errorf("key %d = %d, want %d: a same-page commit was clobbered", k, got, rounds)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestMissAllocs bounds what one miss of both the node's cache and the
// shared pool allocates: readPage's probe buffer, refilled by the volume
// read (see enginetest.MissAllocGuard).
func TestMissAllocs(t *testing.T) {
	enginetest.MissAllocGuard(t, New(sim.DefaultConfig(), enginetest.Layout(t), 1, 16, 64), 0.5)
}

// Close retires the engine with the memory node it built for the shared
// pool: its touched memory goes back to the rdma spare list, so the region
// reads as zeros, and Execute sheds.
func TestCloseReleasesTheMemoryNode(t *testing.T) {
	layout := enginetest.Layout(t)
	e := New(sim.DefaultConfig(), layout, 2, 16, 64)
	c := sim.NewClock()
	for key := uint64(0); key < 4; key++ {
		if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
			return tx.Write(key*uint64(layout.PerPage), make([]byte, layout.ValSize))
		}); err != nil {
			t.Fatal(err)
		}
	}
	mem := e.MemNode.Node().Mem
	if enginetest.Zeroed(t, mem) {
		t.Fatal("no page reached the shared pool")
	}
	enginetest.CloseSheds(t, e)
	if !enginetest.Zeroed(t, mem) {
		t.Fatal("the shared pool's memory node holds data after Close")
	}
}
