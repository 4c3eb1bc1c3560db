package aurora

import (
	"encoding/binary"
	"sync"
	"testing"

	"github.com/disagglab/disagg/internal/cluster"
	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/enginetest"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/wal"
)

func TestConformance(t *testing.T) {
	enginetest.RunConformance(t, func(t *testing.T, cfg *sim.Config) engine.Engine {
		return New(cfg, enginetest.Layout(t), 64, 1)
	})
}

func TestElastic(t *testing.T) {
	enginetest.RunElastic(t, func(t *testing.T, cfg *sim.Config) cluster.Spec {
		layout := enginetest.Layout(t)
		var root *Engine
		return cluster.Spec{
			Name: "aurora",
			New: func(id int) engine.Engine {
				if id == 0 {
					root = New(cfg, layout, 64, 1)
					return root
				}
				return Peer(root, id, 64)
			},
		}
	})
}

func TestOnlyLogsShipped(t *testing.T) {
	layout := enginetest.Layout(t)
	e := New(sim.DefaultConfig(), layout, 64, 0)
	c := sim.NewClock()
	val := make([]byte, layout.ValSize)
	for i := uint64(0); i < 50; i++ {
		if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(i, val) }); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.PageBytes.Load() != 0 {
		t.Fatalf("aurora shipped %d page bytes; log-as-the-database means zero", st.PageBytes.Load())
	}
	// Bytes per commit should be on the order of the log records, far
	// below a page.
	if bpc := st.BytesPerCommit(); bpc > float64(layout.PageSize)/2 {
		t.Fatalf("bytes/commit = %.0f, suspiciously page-like", bpc)
	}
}

func TestReaderReplicaSeesCommittedData(t *testing.T) {
	layout := enginetest.Layout(t)
	e := New(sim.DefaultConfig(), layout, 64, 2)
	c := sim.NewClock()
	want := make([]byte, layout.ValSize)
	binary.LittleEndian.PutUint64(want, 4242)
	if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(7, want) }); err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < 2; idx++ {
		err := e.ReadReplica(c, idx, func(tx engine.Tx) error {
			v, err := tx.Read(7)
			if err != nil {
				return err
			}
			if binary.LittleEndian.Uint64(v) != 4242 {
				t.Errorf("replica %d read %d", idx, binary.LittleEndian.Uint64(v))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Writes on a replica are rejected.
	err := e.ReadReplica(c, 0, func(tx engine.Tx) error { return tx.Write(1, want) })
	if err != engine.ErrReadOnly {
		t.Fatalf("replica write: %v", err)
	}
}

// Regression: reader-replica caches were populated on first access and
// never invalidated, so a replica that had served a page once kept serving
// that version forever — not replica lag but a permanently stale read,
// surfaced by the history checker as a session-order cycle (write on the
// primary, then read the old value on the replica). The writer now fans
// cache-invalidation notices to every reader at commit.
func TestReplicaCacheInvalidatedOnCommit(t *testing.T) {
	layout := enginetest.Layout(t)
	e := New(sim.DefaultConfig(), layout, 64, 1)
	c := sim.NewClock()
	put := func(n uint64) {
		val := make([]byte, layout.ValSize)
		binary.LittleEndian.PutUint64(val, n)
		if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(3, val) }); err != nil {
			t.Fatal(err)
		}
	}
	replicaRead := func() (got uint64) {
		if err := e.ReadReplica(c, 0, func(tx engine.Tx) error {
			v, err := tx.Read(3)
			if err != nil {
				return err
			}
			got = binary.LittleEndian.Uint64(v)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	put(1)
	if got := replicaRead(); got != 1 { // warms the replica cache
		t.Fatalf("replica read %d before second commit", got)
	}
	put(2)
	if got := replicaRead(); got != 2 {
		t.Fatalf("replica served stale cached value %d after commit of 2", got)
	}
}

func TestSurvivesAZFailure(t *testing.T) {
	layout := enginetest.Layout(t)
	e := New(sim.DefaultConfig(), layout, 64, 0)
	c := sim.NewClock()
	val := make([]byte, layout.ValSize)
	engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(1, val) })
	e.Volume.FailAZ(0)
	if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(2, val) }); err != nil {
		t.Fatalf("write quorum should survive AZ loss: %v", err)
	}
	// One more node: writes must stop, reads continue.
	e.Volume.Replicas[2].Fail()
	if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(3, val) }); err != engine.ErrUnavailable {
		t.Fatalf("write with 3/6 alive: %v", err)
	}
	e.Pool().InvalidateAll() // force a storage read
	if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
		_, err := tx.Read(1)
		return err
	}); err != nil {
		t.Fatalf("read quorum should survive AZ+1: %v", err)
	}
}

// TestQuorumLossLeavesNoOrphanRecords: a write refused for lack of a write
// quorum is an ordinary failed prepare. Its LSNs were reserved, so the log
// head may advance, but its slots are decided as aborts: no log reader sees
// its update, and the next Heal (from Checkpoint, a page-fetch retry, a
// repair drill) cannot ship it to the restarted replicas and make the
// aborted write visible.
func TestQuorumLossLeavesNoOrphanRecords(t *testing.T) {
	layout := enginetest.Layout(t)
	e := New(sim.DefaultConfig(), layout, 64, 0)
	c := sim.NewClock()
	val := func(n uint64) []byte {
		v := make([]byte, layout.ValSize)
		binary.LittleEndian.PutUint64(v, n)
		return v
	}
	if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(7, val(1)) }); err != nil {
		t.Fatal(err)
	}
	e.Volume.FailAZ(0)
	e.Volume.Replicas[2].Fail()
	aborts := e.Stats().Aborts.Load()
	if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(7, val(2)) }); err != engine.ErrUnavailable {
		t.Fatalf("write with 3/6 alive: %v", err)
	}
	if err := e.Log().Range(0, ^wal.LSN(0), func(r *wal.Record) error {
		if r.Type == wal.TypeUpdate && binary.LittleEndian.Uint64(r.After) == 2 {
			t.Errorf("refused write's update is visible in the log at LSN %d", r.LSN)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Aborts.Load(); got != aborts+1 {
		t.Fatalf("refused write moved Aborts by %d, want 1", got-aborts)
	}
	for _, r := range e.Volume.Replicas {
		r.Restart()
	}
	if err := e.Checkpoint(c); err != nil {
		t.Fatal(err)
	}
	e.Volume.Heal(c, e.Log())
	e.Pool().InvalidateAll() // force a storage read
	if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
		v, err := tx.Read(7)
		if err == nil && binary.LittleEndian.Uint64(v) != 1 {
			t.Errorf("read %d: the aborted write surfaced after heal", binary.LittleEndian.Uint64(v))
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// dropIngests drops the next n volume.ingest deliveries and lets every other
// operation through.
type dropIngests struct {
	mu sync.Mutex
	n  int
}

func (d *dropIngests) Inject(_ *sim.Clock, site string) sim.FaultOutcome {
	d.mu.Lock()
	defer d.mu.Unlock()
	if site != "volume.ingest" || d.n == 0 {
		return sim.FaultOutcome{}
	}
	d.n--
	return sim.FaultOutcome{Drop: true}
}

// TestPartialQuorumAppendLeavesNothingBehind: an append that reaches W-1 = 3
// of the six replicas fails, and the writer decides its records as aborts.
// The three replicas that took the records used to keep them as received:
// they materialised the aborted update and served it, and the healing that
// ships the abort passed them over because they already held the LSN. They
// now hold such records undecided until the writer's decision reaches them.
func TestPartialQuorumAppendLeavesNothingBehind(t *testing.T) {
	layout := enginetest.Layout(t)
	inj := &dropIngests{}
	cfg := sim.DefaultConfig()
	cfg.Fault = inj
	e := New(cfg, layout, 64, 0)
	c := sim.NewClock()
	put := func(n uint64) error {
		v := make([]byte, layout.ValSize)
		binary.LittleEndian.PutUint64(v, n)
		return engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(7, v) })
	}
	if err := put(1); err != nil {
		t.Fatal(err)
	}
	inj.mu.Lock()
	inj.n = len(e.Volume.Replicas) - e.Volume.WriteQ + 1
	inj.mu.Unlock()
	if err := put(2); err == nil {
		t.Fatal("an append that reached 3 of 6 replicas committed")
	}
	e.Volume.Heal(c, e.Log())
	for _, r := range e.Volume.Replicas {
		data, err := r.ReadPage(c, layout.PageOf(7), e.DurableLSN())
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		v, err := layout.ReadValue(data, 7)
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		if got := binary.LittleEndian.Uint64(v); got != 1 {
			t.Errorf("%s serves %d after heal, want 1: the aborted write survived on it", r.Name, got)
		}
	}
	if err := put(3); err != nil {
		t.Fatal(err)
	}
	e.Pool().InvalidateAll() // force a storage read
	if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
		v, err := tx.Read(7)
		if err == nil && binary.LittleEndian.Uint64(v) != 3 {
			t.Errorf("read %d after the next commit, want 3", binary.LittleEndian.Uint64(v))
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryIsNearInstant(t *testing.T) {
	layout := enginetest.Layout(t)
	e := New(sim.DefaultConfig(), layout, 64, 0)
	c := sim.NewClock()
	val := make([]byte, layout.ValSize)
	for i := uint64(0); i < 200; i++ {
		engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(i, val) })
	}
	e.Crash()
	rc := sim.NewClock()
	d, err := e.Recover(rc)
	if err != nil {
		t.Fatal(err)
	}
	// Recovery is one quorum poll: well under a millisecond, and
	// independent of history length.
	if d > 1_000_000 { // 1ms
		t.Fatalf("aurora recovery took %v", d)
	}
	if e.DurableLSN() == 0 {
		t.Fatal("durable LSN not restored")
	}
}

func TestChaosCrashRecovery(t *testing.T) {
	enginetest.RunChaos(t, func(t *testing.T) engine.Engine {
		return New(sim.DefaultConfig(), enginetest.Layout(t), 64, 1)
	})
}

// TestCommitAllocs bounds the host allocations of one cache-resident
// single-key RMW commit at the value measured before the shared commit
// pipeline (see enginetest.AllocGuard).
func TestCommitAllocs(t *testing.T) {
	enginetest.AllocGuard(t, New(sim.DefaultConfig(), enginetest.Layout(t), 1024, 1), 1, 1.10)
}

// TestHooksMayNotKeepRecs: the records a hook receives are the pipeline's
// scratch (see enginetest.RecsRetentionGuard).
func TestHooksMayNotKeepRecs(t *testing.T) {
	enginetest.RecsRetentionGuard(t, func() engine.Engine {
		return New(sim.DefaultConfig(), enginetest.Layout(t), 1024, 1)
	})
}

// TestMissAllocs bounds what one page miss allocates on the path aurora,
// socrates, taurus, pilotdb and serverless share: storagenode.Volume /
// Replica.ReadPage's copy of the materialised page, which becomes the frame
// (see enginetest.MissAllocGuard).
func TestMissAllocs(t *testing.T) {
	enginetest.MissAllocGuard(t, New(sim.DefaultConfig(), enginetest.Layout(t), 64, 0), 0.25)
}
