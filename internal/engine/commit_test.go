package engine

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/disagglab/disagg/internal/buffer/coherence"
	"github.com/disagglab/disagg/internal/engine/history"
	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/txn"
	"github.com/disagglab/disagg/internal/wal"
)

// pipeEngine is the smallest engine over a Pipeline: fake hooks that fail
// on demand, an invalidate-mode directory whose one tier records the
// notices it receives, and a read path that serves zeros.
type pipeEngine struct {
	p          *Pipeline
	stats      Stats
	layout     heap.Layout
	down       bool
	durableErr error
	applyErr   error
	durables   atomic.Int64
	applies    atomic.Int64
	tier       *recTier
	tierH      *coherence.Handle
}

// recTier is a cache tier that remembers the order of its invalidations.
type recTier struct{ got []page.ID }

func (r *recTier) Invalidate(id page.ID) { r.got = append(r.got, id) }

func newPipeEngine(t *testing.T) *pipeEngine {
	t.Helper()
	layout, err := heap.NewLayout(4096, 64)
	if err != nil {
		t.Fatal(err)
	}
	e := &pipeEngine{layout: layout, tier: &recTier{}}
	dir := coherence.NewDirectory(sim.DefaultConfig(), "test.coherence", coherence.ModeInvalidate)
	e.tierH = dir.Register("reader", e.tier)
	e.p = NewPipeline(layout, wal.NewLog(), &e.stats, Hooks{
		Durable: func(c *sim.Clock, recs []wal.Record) error { e.durables.Add(1); return e.durableErr },
		Apply:   func(c *sim.Clock, recs []wal.Record) error { e.applies.Add(1); return e.applyErr },
		Dir:     dir,
	})
	return e
}

func (e *pipeEngine) Name() string  { return "pipe" }
func (e *pipeEngine) Stats() *Stats { return &e.stats }

func (e *pipeEngine) Execute(c *sim.Clock, fn func(tx Tx) error) error {
	if e.down {
		return e.p.Shed()
	}
	return e.p.Execute(c, func(uint64) ([]byte, error) { return make([]byte, e.layout.ValSize), nil }, fn)
}

// TestPipelineExitPaths drives every way out of Pipeline.Execute and holds
// each to the skeleton's invariants: the attempt lands in exactly one
// outcome counter, the transaction is stamped iff the durable hook
// returned nil, nothing is logged unless the durable hook is reached, and
// no write-set lock outlives the call.
func TestPipelineExitPaths(t *testing.T) {
	errFn := errors.New("fn failed")
	errDurable := errors.New("log tier down")
	errApply := errors.New("cache tier down")
	keys := []uint64{10, 200, 3000}
	const foreignTx = 1 << 50
	cases := []struct {
		name        string
		setup       func(e *pipeEngine)
		fn          func(tx Tx) error
		wantErr     error
		commits     int64
		aborts      int64
		shed        int64
		stamped     bool
		wantDurable int64
		wantApply   int64
	}{
		{name: "crashed node", setup: func(e *pipeEngine) { e.down = true }, wantErr: ErrUnavailable, shed: 1},
		{name: "fn error", fn: func(tx Tx) error { tx.Write(keys[0], []byte{1}); return errFn }, wantErr: errFn, aborts: 1},
		{name: "empty write set", fn: func(tx Tx) error { _, err := tx.Read(keys[0]); return err }, commits: 1},
		{name: "conflict on the 2nd lock",
			setup:   func(e *pipeEngine) { e.p.locks.TryLock(foreignTx, keys[1], txn.Exclusive) },
			wantErr: ErrConflict, aborts: 1},
		{name: "writes refused", setup: func(e *pipeEngine) { e.p.Writable = func() bool { return false } },
			wantErr: ErrUnavailable, aborts: 1},
		{name: "read-only while writes refused", setup: func(e *pipeEngine) { e.p.Writable = func() bool { return false } },
			fn: func(tx Tx) error { _, err := tx.Read(keys[0]); return err }, commits: 1},
		{name: "durable failure", setup: func(e *pipeEngine) { e.durableErr = errDurable },
			wantErr: ErrUnavailable, aborts: 1, wantDurable: 1},
		{name: "apply failure", setup: func(e *pipeEngine) { e.applyErr = errApply },
			wantErr: ErrUnavailable, aborts: 1, stamped: true, wantDurable: 1, wantApply: 1},
		{name: "success", commits: 1, stamped: true, wantDurable: 1, wantApply: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newPipeEngine(t)
			if tc.setup != nil {
				tc.setup(e)
			}
			fn := tc.fn
			if fn == nil {
				fn = func(tx Tx) error {
					for _, k := range keys {
						if err := tx.Write(k, []byte{byte(k)}); err != nil {
							return err
						}
					}
					return nil
				}
			}
			var handle Tx
			err := e.Execute(sim.NewClock(), func(tx Tx) error { handle = tx; return fn(tx) })
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			st := &e.stats
			if c, a, s := st.Commits.Load(), st.Aborts.Load(), st.Shed.Load(); c != tc.commits || a != tc.aborts || s != tc.shed {
				t.Errorf("commits/aborts/shed = %d/%d/%d, want %d/%d/%d", c, a, s, tc.commits, tc.aborts, tc.shed)
			}
			if got := st.Attempts.Load(); got != 1 || got != st.Commits.Load()+st.Aborts.Load()+st.Shed.Load() {
				t.Errorf("attempts = %d, want 1 = commits+aborts+shed", got)
			}
			stamp, stamped := uint64(0), false
			if handle != nil {
				stamp, stamped = CommitStampOf(handle)
			}
			if stamped != tc.stamped {
				t.Errorf("stamped = %v (stamp %d), want %v", stamped, stamp, tc.stamped)
			}
			if stamped && wal.LSN(stamp) != e.p.DurableLSN() {
				t.Errorf("stamp %d but durable LSN %d", stamp, e.p.DurableLSN())
			}
			if d, a := e.durables.Load(), e.applies.Load(); d != tc.wantDurable || a != tc.wantApply {
				t.Errorf("durable/apply calls = %d/%d, want %d/%d", d, a, tc.wantDurable, tc.wantApply)
			}
			if head := e.p.log.Head(); tc.wantDurable == 0 && head != 1 {
				t.Errorf("log head %d: records logged for a transaction the durable hook never saw", head)
			}
			e.p.locks.Unlock(foreignTx, keys[1], txn.Exclusive)
			for _, k := range keys {
				if e.p.locks.Held(k) {
					t.Errorf("key %d still locked", k)
				}
			}
		})
	}
}

// TestPipelineReadOnly covers the replica body: reads commit, a staged
// write aborts with ErrReadOnly, and the accounting invariant holds.
func TestPipelineReadOnly(t *testing.T) {
	e := newPipeEngine(t)
	read := func(uint64) ([]byte, error) { return []byte{7}, nil }
	if err := e.p.ReadOnly(read, func(tx Tx) error { _, err := tx.Read(1); return err }); err != nil {
		t.Fatal(err)
	}
	if err := e.p.ReadOnly(read, func(tx Tx) error { return tx.Write(1, []byte{1}) }); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("err = %v, want ErrReadOnly", err)
	}
	st := &e.stats
	if st.Attempts.Load() != 2 || st.Commits.Load() != 1 || st.Aborts.Load() != 1 {
		t.Errorf("attempts/commits/aborts = %d/%d/%d, want 2/1/1", st.Attempts.Load(), st.Commits.Load(), st.Aborts.Load())
	}
}

// TestPipelineNoRetryAfterDurable is the regression for serverless's
// page-latch loop, which returned ErrConflict after the volume append and
// StampCommit: Run re-executed a transaction whose records were already
// durable. Whatever Apply returns, the pipeline's error must not be
// retryable.
func TestPipelineNoRetryAfterDurable(t *testing.T) {
	e := newPipeEngine(t)
	e.applyErr = ErrConflict
	runs := 0
	var handle Tx
	err := Run(e, sim.NewClock(), RunOpts{Retries: 3}, func(tx Tx) error {
		runs++
		handle = tx
		return tx.Write(1, []byte{1})
	})
	if err == nil || errors.Is(err, ErrConflict) {
		t.Fatalf("err = %v, want a non-conflict error", err)
	}
	if runs != 1 {
		t.Errorf("fn ran %d times, want 1: a durable transaction was re-executed", runs)
	}
	stamp, stamped := CommitStampOf(handle)
	if !stamped {
		t.Error("stamp dropped: history would classify the attempt Aborted, not Indeterminate")
	}
	if got := classifyOutcome(err, nil, stamp); got != history.Indeterminate {
		t.Errorf("outcome = %v, want Indeterminate", got)
	}
}

// TestPipelinePublishOrder: a commit touching three pages publishes their
// stamps ascending by page id, each carrying its page's highest
// update-record LSN, identically on every run (the per-engine code ranged
// over a map, so notice delivery order changed from run to run).
func TestPipelinePublishOrder(t *testing.T) {
	for run := 0; run < 20; run++ {
		e := newPipeEngine(t)
		per := uint64(e.layout.PerPage)
		// Two keys on page 5, one each on pages 2 and 9, written out of order.
		keys := []uint64{5*per + 1, 9 * per, 2*per + 3, 5 * per}
		for _, id := range []page.ID{2, 5, 9} {
			e.tierH.Note(id)
		}
		err := e.Execute(sim.NewClock(), func(tx Tx) error {
			for _, k := range keys {
				if err := tx.Write(k, []byte{1}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := []page.ID{2, 5, 9}; !reflect.DeepEqual(e.tier.got, want) {
			t.Fatalf("run %d: invalidations delivered in order %v, want %v", run, e.tier.got, want)
		}
	}
	// Records as the pipeline builds them: keys ascending, LSNs 1..4, commit 5.
	recs := []wal.Record{
		{LSN: 1, Type: wal.TypeUpdate, PageID: 2}, {LSN: 2, Type: wal.TypeUpdate, PageID: 5},
		{LSN: 3, Type: wal.TypeUpdate, PageID: 5}, {LSN: 4, Type: wal.TypeUpdate, PageID: 9},
		{LSN: 5, Type: wal.TypeCommit},
	}
	want := []coherence.PageStamp{{ID: 2, Stamp: 1}, {ID: 5, Stamp: 3}, {ID: 9, Stamp: 4}}
	if got := pageStamps(recs); !reflect.DeepEqual(got, want) {
		t.Errorf("pageStamps = %v, want %v", got, want)
	}
}

// TestPipelineGroupCommit: riders of a shared flush go through one Durable
// call with their records merged in LSN order, and every rider is stamped
// with its own commit LSN.
func TestPipelineGroupCommit(t *testing.T) {
	e := newPipeEngine(t)
	var mu sync.Mutex
	var flushed [][]wal.Record
	e.p.Durable = func(c *sim.Clock, recs []wal.Record) error {
		mu.Lock()
		defer mu.Unlock()
		flushed = append(flushed, append([]wal.Record(nil), recs...))
		return nil
	}
	e.p.EnableGroupCommit(sim.DefaultConfig(), "test.groupcommit", 4, 0)
	const workers = 4
	res := sim.RunGroup(workers, func(id int, c *sim.Clock) int {
		if err := e.Execute(c, func(tx Tx) error { return tx.Write(uint64(1000*id), []byte{byte(id)}) }); err != nil {
			t.Error(err)
			return 0
		}
		return 1
	})
	if res.TotalOps != workers {
		t.Fatalf("committed %d/%d", res.TotalOps, workers)
	}
	total := 0
	for _, recs := range flushed {
		for i := 1; i < len(recs); i++ {
			if recs[i].LSN <= recs[i-1].LSN {
				t.Errorf("flush not in LSN order: %d after %d", recs[i].LSN, recs[i-1].LSN)
			}
		}
		total += len(recs)
	}
	if total != 2*workers {
		t.Errorf("flushed %d records, want %d", total, 2*workers)
	}
	st := &e.stats
	if st.GroupCommits.Load() != workers || st.GroupFlushes.Load() != int64(len(flushed)) {
		t.Errorf("group commits/flushes = %d/%d, want %d/%d", st.GroupCommits.Load(), st.GroupFlushes.Load(), workers, len(flushed))
	}
	if st.FlushOnSize.Load()+st.FlushOnTimeout.Load() != st.GroupFlushes.Load() {
		t.Errorf("flush reasons %d+%d != flushes %d", st.FlushOnSize.Load(), st.FlushOnTimeout.Load(), st.GroupFlushes.Load())
	}
	if e.p.DurableLSN() != wal.LSN(2*workers) {
		t.Errorf("durable LSN %d, want %d", e.p.DurableLSN(), 2*workers)
	}
}
