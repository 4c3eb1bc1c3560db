package engine

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/disagglab/disagg/internal/buffer"
	"github.com/disagglab/disagg/internal/buffer/coherence"
	"github.com/disagglab/disagg/internal/checkpoint"
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
	e.p = NewPipeline(sim.DefaultConfig(), "test", layout, wal.NewLog(), &e.stats, Hooks{
		Read:    func(*sim.Clock, uint64) ([]byte, error) { return make([]byte, e.layout.ValSize), nil },
		Durable: func(c *sim.Clock, recs []wal.Record) error { e.durables.Add(1); return e.durableErr },
		Apply:   func(c *sim.Clock, recs []wal.Record) error { e.applies.Add(1); return e.applyErr },
	})
	e.p.Coherent(coherence.ModeInvalidate)
	e.tierH = e.p.Dir().Register("reader", e.tier)
	return e
}

func (e *pipeEngine) Name() string  { return "pipe" }
func (e *pipeEngine) Stats() *Stats { return &e.stats }

func (e *pipeEngine) Execute(c *sim.Clock, fn func(tx Tx) error) error {
	return e.p.Execute(c, fn)
}

// TestPipelineExitPaths drives every way out of Pipeline.Execute and holds
// each to the skeleton's invariants: the attempt lands in exactly one
// outcome counter, the transaction is stamped iff the durable hook
// returned nil, nothing is reserved unless the durable hook is reached, it
// reaches sim.PointDurable and sim.PointApply right before the hooks they
// name, a log reader sees its records iff it was stamped, every slot it
// reserved is decided, and no write-set lock outlives the call.
func TestPipelineExitPaths(t *testing.T) {
	errFn := errors.New("fn failed")
	errDurable := errors.New("log tier down")
	errRefused := errors.New("below the write quorum: nothing delivered")
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
		{name: "crashed node", setup: func(e *pipeEngine) { e.p.Crash() }, wantErr: ErrUnavailable, shed: 1},
		{name: "fn error", fn: func(tx Tx) error { tx.Write(keys[0], []byte{1}); return errFn }, wantErr: errFn, aborts: 1},
		{name: "empty write set", fn: func(tx Tx) error { _, err := tx.Read(keys[0]); return err }, commits: 1},
		{name: "conflict on the 2nd lock",
			setup:   func(e *pipeEngine) { e.p.locks.TryLock(foreignTx, keys[1], txn.Exclusive) },
			wantErr: ErrConflict, aborts: 1},
		{name: "durable tier refuses", setup: func(e *pipeEngine) { e.durableErr = errRefused },
			wantErr: ErrUnavailable, aborts: 1, wantDurable: 1},
		{name: "read-only while the durable tier refuses", setup: func(e *pipeEngine) { e.durableErr = errRefused },
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
			var points []sim.Point
			e.p.cfg.At = func(_ *sim.Clock, pt sim.Point) { points = append(points, pt) }
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
			var stamp uint64
			var err error
			// A lone worker: a lock held by a foreign transaction can never
			// be released, so the wait for it fails instead of polling.
			sim.RunGroup(1, func(_ int, c *sim.Clock) int {
				err = e.Execute(c, func(tx Tx) error { DeliverStamp(tx, &stamp); return fn(tx) })
				return 1
			})
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
			stamped := stamp != 0
			if stamped != tc.stamped {
				t.Errorf("stamped = %v (stamp %d), want %v", stamped, stamp, tc.stamped)
			}
			if stamped && wal.LSN(stamp) != e.p.DurableLSN() {
				t.Errorf("stamp %d but durable LSN %d", stamp, e.p.DurableLSN())
			}
			if d, a := e.durables.Load(), e.applies.Load(); d != tc.wantDurable || a != tc.wantApply {
				t.Errorf("durable/apply calls = %d/%d, want %d/%d", d, a, tc.wantDurable, tc.wantApply)
			}
			if want := []sim.Point{sim.PointDurable, sim.PointApply}[:tc.wantDurable+tc.wantApply]; !slices.Equal(points, want) {
				t.Errorf("points reached %v, want %v", points, want)
			}
			if head := e.p.log.Head(); tc.wantDurable == 0 && head != 1 {
				t.Errorf("log head %d: LSNs reserved for a transaction the durable hook never saw", head)
			}
			updates := 0
			if err := e.p.log.Range(0, ^wal.LSN(0), func(r *wal.Record) error {
				if r.Type == wal.TypeUpdate {
					updates++
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if stamped != (updates > 0) {
				t.Errorf("%d update records visible in the log, stamped = %v", updates, stamped)
			}
			if d, head := e.p.log.Decided(), e.p.log.Head(); d != head-1 {
				t.Errorf("slots %d..%d still undecided after Execute returned", d+1, head-1)
			}
			e.p.locks.Unlock(foreignTx, keys[1], txn.Exclusive)
			for _, k := range keys {
				if e.p.locks.HeldByOther(0, k) {
					t.Errorf("key %d still locked", k)
				}
			}
		})
	}
}

// TestFailedDurableLeavesNothingToRedo: a transaction whose Durable hook
// failed used to leave its records in the log, where every redo path took
// them for committed — Range for checkpoints, heals and recovery, RedoPage
// for page misses. This covers the engines whose durable tier has no fault
// site of its own (monolithic's fsync): after the abort neither walk shows
// the update, and a page rebuilt from the log serves the value the key had
// before.
func TestFailedDurableLeavesNothingToRedo(t *testing.T) {
	e := newPipeEngine(t)
	const key = 42
	put := func(v byte) error {
		val := make([]byte, e.layout.ValSize)
		val[0] = v
		return e.Execute(sim.NewClock(), func(tx Tx) error { return tx.Write(key, val) })
	}
	if err := put(1); err != nil {
		t.Fatal(err)
	}
	e.durableErr = errors.New("log device gone")
	if err := put(2); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if err := e.p.log.Range(0, ^wal.LSN(0), func(r *wal.Record) error {
		if r.Type == wal.TypeUpdate && r.After[0] == 2 {
			t.Errorf("Range visits the failed transaction's update at LSN %d", r.LSN)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	id := e.layout.PageOf(key)
	img := e.layout.FormatPage(id).Bytes()
	if err := e.p.log.RedoPage(uint64(id), 0, func(r *wal.Record) error {
		_, err := e.p.Redo(img, r)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if v, err := e.layout.ReadValue(img, key); err != nil || v[0] != 1 {
		t.Fatalf("page rebuilt from the log reads %v (err %v), want the value before the failed write", v[:1], err)
	}
}

// TestPrepareInFlightHoldsDurablePrefix: the durable LSN is a contiguous
// prefix. While one transaction is inside Durable, a later one that commits
// must not carry the mark over the first one's undecided slots. Once the
// first is decided — committed, or aborted because its Durable failed — the
// mark covers the later commit too: an acknowledged commit must not sit
// above the mark the engines use as their read floor.
func TestPrepareInFlightHoldsDurablePrefix(t *testing.T) {
	for _, firstErr := range []error{nil, errors.New("log device gone")} {
		t.Run(fmt.Sprintf("first fails: %v", firstErr != nil), func(t *testing.T) {
			e := newPipeEngine(t)
			entered, release := make(chan struct{}), make(chan struct{})
			var calls atomic.Int64
			e.p.Durable = func(*sim.Clock, []wal.Record) error {
				if calls.Add(1) == 1 {
					close(entered)
					<-release
					return firstErr
				}
				return nil
			}
			write := func(key uint64) error {
				return e.Execute(sim.NewClock(), func(tx Tx) error { return tx.Write(key, []byte{1}) })
			}
			first := make(chan error)
			go func() { first <- write(1) }()
			<-entered // the first holds LSNs 1 and 2
			if err := write(2); err != nil {
				t.Fatal(err)
			}
			if got := e.p.DurableLSN(); got != 0 {
				t.Errorf("durable LSN %d while LSNs 1..2 are inside Durable, want 0", got)
			}
			close(release)
			if err := <-first; (err == nil) != (firstErr == nil) {
				t.Fatalf("first transaction: %v", err)
			}
			if got := e.p.DurableLSN(); got != 4 {
				t.Errorf("durable LSN %d once LSNs 1..2 are decided, want 4: the second commit is acknowledged", got)
			}
		})
	}
}

// TestPipelineReadOnly covers the replica body: reads commit, a staged
// write aborts with ErrReadOnly, and the accounting invariant holds.
func TestPipelineReadOnly(t *testing.T) {
	e := newPipeEngine(t)
	c := sim.NewClock()
	read := func(*sim.Clock, uint64) ([]byte, error) { return []byte{7}, nil }
	if err := e.p.ReadOnly(c, read, func(tx Tx) error { _, err := tx.Read(1); return err }); err != nil {
		t.Fatal(err)
	}
	if err := e.p.ReadOnly(c, read, func(tx Tx) error { return tx.Write(1, []byte{1}) }); !errors.Is(err, ErrReadOnly) {
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
	var stamp uint64
	err := Run(e, sim.NewClock(), RunOpts{Retries: 3}, func(tx Tx) error {
		runs++
		DeliverStamp(tx, &stamp)
		return tx.Write(1, []byte{1})
	})
	if err == nil || errors.Is(err, ErrConflict) {
		t.Fatalf("err = %v, want a non-conflict error", err)
	}
	if runs != 1 {
		t.Errorf("fn ran %d times, want 1: a durable transaction was re-executed", runs)
	}
	if stamp == 0 {
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
	if got := pageStamps(nil, recs); !reflect.DeepEqual(got, want) {
		t.Errorf("pageStamps = %v, want %v", got, want)
	}
}

// TestPipelineGroupCommit: riders of a shared flush go through one Durable
// call with their records merged in LSN order, every rider is stamped
// with its own commit LSN, and each reaches sim.PointDurable, then
// sim.PointApply, once.
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
	e.p.GroupCommit(4, 0)
	points := map[*sim.Clock][]sim.Point{} // written by the worker holding the baton
	e.p.cfg.At = func(c *sim.Clock, pt sim.Point) { points[c] = append(points[c], pt) }
	const workers = 4
	res := sim.RunGroup(workers, func(id int, c *sim.Clock) int {
		if err := e.Execute(c, func(tx Tx) error { return tx.Write(uint64(1000*id), []byte{byte(id)}) }); err != nil {
			t.Error(err)
			return 0
		}
		if want := []sim.Point{sim.PointDurable, sim.PointApply}; !slices.Equal(points[c], want) {
			t.Errorf("rider %d reached %v, want %v", id, points[c], want)
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

// TestValidationWaitsHoldingNothing: a writer whose validation finds a
// pinned key locked waits for it only once it has released its own write
// locks. T1 reads y and writes x and z; T2 writes y, w and z, so it locks y
// and then waits for w, which a third transaction holds. T1 locks x and z
// and finds y held. Had T1 waited there, T2 would take w, wait for z, and
// the two would wait on each other until no other worker of the group could
// run: a bystander that keeps running would see neither finish.
func TestValidationWaitsHoldingNothing(t *testing.T) {
	e := newPipeEngine(t)
	per := uint64(e.layout.PerPage)
	x, y, w, z := per, 2*per, 3*per, 4*per
	const foreignTx = 1 << 60
	e.p.locks.TryLock(foreignTx, w, txn.Exclusive)
	val := make([]byte, e.layout.ValSize)
	write := func(tx Tx, keys ...uint64) error {
		for _, k := range keys {
			if err := tx.Write(k, val); err != nil {
				return err
			}
		}
		return nil
	}
	t1 := func(tx Tx) error {
		if _, err := tx.Read(y); err != nil {
			return err
		}
		return write(tx, x, z)
	}
	var finished atomic.Int32
	errs := make([]error, 2)
	sim.RunGroup(3, func(id int, c *sim.Clock) int {
		switch id {
		case 0:
			errs[0] = e.Execute(c, func(tx Tx) error { return write(tx, y, w, z) })
		case 1:
			if err := e.Execute(c, t1); !errors.Is(err, ErrConflict) {
				errs[1] = fmt.Errorf("first attempt: %v, want ErrConflict", err)
			} else {
				errs[1] = e.Execute(c, t1)
			}
		default:
			e.p.locks.Unlock(foreignTx, w, txn.Exclusive)
			for i := 0; i < 100 && finished.Load() < 2; i++ {
				c.Advance(time.Microsecond)
				sim.Yield(c)
			}
			if n := finished.Load(); n < 2 {
				t.Errorf("%d of 2 transactions finished while a third worker ran: they wait on each other", n)
			}
			return 0
		}
		finished.Add(1)
		return 1
	})
	for id, err := range errs {
		if err != nil {
			t.Errorf("T%d: %v", 2-id, err)
		}
	}
	for _, k := range []uint64{x, y, w, z} {
		if e.p.locks.HeldByOther(0, k) {
			t.Errorf("key %d still locked", k)
		}
	}
}

// node is a compute node with a real cache: a pool over formatted pages,
// commits applied to cached copies, reads through the pool.
type node struct {
	p     *Pipeline
	pool  *buffer.Pool
	stats Stats
}

func (n *node) hooks() Hooks {
	return Hooks{
		Read:    func(c *sim.Clock, key uint64) ([]byte, error) { return n.p.ReadPool(c, n.pool, key) },
		Durable: func(*sim.Clock, []wal.Record) error { return nil },
		Apply:   func(c *sim.Clock, recs []wal.Record) error { n.p.ApplyCached(c, n.pool, recs); return nil },
	}
}

func newPool(cfg *sim.Config, layout heap.Layout) *buffer.Pool {
	return buffer.NewPool(cfg, 8, func(_ *sim.Clock, id page.ID) ([]byte, error) {
		return layout.FormatPage(id).Bytes(), nil
	}, nil)
}

// newRoot builds a node under site with an invalidate-mode directory and
// its pool registered as its own tier.
func newRoot(t *testing.T, cfg *sim.Config, site string) *node {
	t.Helper()
	layout, err := heap.NewLayout(4096, 64)
	if err != nil {
		t.Fatal(err)
	}
	n := &node{pool: newPool(cfg, layout)}
	n.p = NewPipeline(cfg, site, layout, wal.NewLog(), &n.stats, n.hooks())
	n.p.Coherent(coherence.ModeInvalidate)
	n.p.Cache("root", n.pool)
	return n
}

func (n *node) peer(peerID int) *node {
	q := &node{pool: newPool(n.p.cfg, n.p.layout)}
	q.p = n.p.Peer(peerID, &q.stats, q.hooks())
	q.p.Cache(fmt.Sprintf("peer%d", peerID), q.pool)
	return q
}

func (n *node) write(t *testing.T, key uint64) {
	t.Helper()
	c := sim.NewClock()
	err := n.p.Execute(c, func(tx Tx) error { return tx.Write(key, []byte{1}) })
	if err != nil {
		t.Fatal(err)
	}
}

func (n *node) cache(t *testing.T, id page.ID) {
	t.Helper()
	if err := n.pool.Read(sim.NewClock(), id, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineCrashShedsUntilRestart: a crashed node refuses every attempt
// without doing work — counted as Shed, nothing logged, no hook called —
// and takes attempts again after Restart.
func TestPipelineCrashShedsUntilRestart(t *testing.T) {
	e := newPipeEngine(t)
	write := func(tx Tx) error { return tx.Write(1, []byte{1}) }
	e.p.Crash()
	for i := 0; i < 3; i++ {
		if err := e.Execute(sim.NewClock(), write); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("crashed node: err = %v, want ErrUnavailable", err)
		}
	}
	st := &e.stats
	if a, s := st.Attempts.Load(), st.Shed.Load(); a != 3 || s != 3 {
		t.Errorf("attempts/shed = %d/%d, want 3/3", a, s)
	}
	if head, d := e.p.log.Head(), e.durables.Load(); head != 1 || d != 0 {
		t.Errorf("log head %d, durable calls %d: a crashed node did work", head, d)
	}
	e.p.Restart(0)
	if err := e.Execute(sim.NewClock(), write); err != nil {
		t.Fatalf("after Restart: %v", err)
	}
	if a, c, s := st.Attempts.Load(), st.Commits.Load(), st.Shed.Load(); a != 4 || c != 1 || s != 3 {
		t.Errorf("attempts/commits/shed = %d/%d/%d, want 4/1/3", a, c, s)
	}
}

// TestPipelineCrashForgetsTheDurableMark: the durable mark is volatile node
// state. A crash loses it but leaves it as the read floor, Restart sets the
// mark Recover learned, and a Restart of a live node with a lower mark keeps
// the higher one.
func TestPipelineCrashForgetsTheDurableMark(t *testing.T) {
	e := newPipeEngine(t)
	if err := e.Execute(sim.NewClock(), func(tx Tx) error { return tx.Write(1, []byte{1}) }); err != nil {
		t.Fatal(err)
	}
	mark := e.p.DurableLSN()
	if mark == 0 {
		t.Fatal("a commit left the durable mark at 0")
	}
	e.p.Crash()
	if got := e.p.DurableLSN(); got != 0 {
		t.Errorf("after Crash the durable mark is %d, want 0", got)
	}
	if got := e.p.ReadFloor(); got != mark {
		t.Errorf("after Crash the read floor is %d, want the lost mark %d", got, mark)
	}
	e.p.Restart(7)
	if got := e.p.DurableLSN(); got != 7 {
		t.Errorf("after Restart(7) the durable mark is %d, want 7", got)
	}
	e.p.Restart(3)
	if got := e.p.DurableLSN(); got != 7 {
		t.Errorf("Restart(3) of a live node moved the mark to %d, want 7", got)
	}
}

// TestPipelineCrashEmptiesOwnCacheOnly: the node's own tier is the first
// cache registered; a crash loses it and leaves every other tier alone.
func TestPipelineCrashEmptiesOwnCacheOnly(t *testing.T) {
	n := newRoot(t, sim.DefaultConfig(), "test")
	reader := newPool(n.p.cfg, n.p.layout)
	n.p.Cache("reader", reader)
	n.cache(t, 3)
	if err := reader.Read(sim.NewClock(), 3, nil); err != nil {
		t.Fatal(err)
	}
	n.p.Crash()
	if n.pool.Len() != 0 || reader.Len() != 1 {
		t.Errorf("after Crash own cache holds %d pages, reader %d; want 0 and 1", n.pool.Len(), reader.Len())
	}
}

// TestPipelineCloseRetiresTheNode: Close sheds every later attempt, takes
// every cache Cache registered out of the directory, and hands their frames
// to page.Release: the next page.Alloc calls of the page length return them
// (the race build poisons them instead).
func TestPipelineCloseRetiresTheNode(t *testing.T) {
	root := newRoot(t, sim.DefaultConfig(), "test")
	reader := newPool(root.p.cfg, root.p.layout)
	root.p.Cache("reader", reader)
	peer := root.peer(1)
	var frames [][]byte
	for _, pool := range []*buffer.Pool{root.pool, reader} {
		// The frame is kept past the callback only to watch it be released.
		if err := pool.Read(sim.NewClock(), 3, func(data []byte) { frames = append(frames, data) }); err != nil {
			t.Fatal(err)
		}
	}
	root.p.Close()
	if root.pool.Len() != 0 || reader.Len() != 0 {
		t.Fatalf("after Close the caches hold %d and %d pages", root.pool.Len(), reader.Len())
	}
	reused := map[*byte]bool{}
	for range frames {
		reused[&page.Alloc(root.p.layout.PageSize)[0]] = true
	}
	poison := bytes.Repeat([]byte{0xFF}, root.p.layout.PageSize)
	for i, f := range frames {
		if !reused[&f[0]] && !bytes.Equal(f, poison) {
			t.Errorf("frame %d of the closed caches was not released", i)
		}
	}

	err := root.p.Execute(sim.NewClock(), func(tx Tx) error { return tx.Write(1, []byte{1}) })
	if !errors.Is(err, ErrUnavailable) || root.stats.Shed.Load() != 1 {
		t.Fatalf("Execute on a closed node: err = %v, shed %d; want ErrUnavailable, 1", err, root.stats.Shed.Load())
	}

	// A closed cache refilled by hand no longer hears the directory.
	if err := reader.Read(sim.NewClock(), 3, nil); err != nil {
		t.Fatal(err)
	}
	peer.write(t, uint64(3*root.p.layout.PerPage))
	if !reader.Contains(3) {
		t.Error("a cache of a closed node was still sent an invalidation")
	}
}

// TestPipelinePeerOutlivesClosedRoot: the log is the substrate's, so closing
// the root while a peer commits leaves every image the peer's durable tier
// holds by reference intact (run with -race: a released chunk is poisoned),
// and the last member to close hands the log's chunks to page.Release.
func TestPipelinePeerOutlivesClosedRoot(t *testing.T) {
	layout, err := heap.NewLayout(4096, 64)
	if err != nil {
		t.Fatal(err)
	}
	// The durable tier keeps each committed image by reference, as a
	// replica's pending list or a materialized view does, and serves reads.
	var mu sync.Mutex
	kept := map[uint64][]byte{}
	hooks := Hooks{
		Read: func(_ *sim.Clock, key uint64) ([]byte, error) {
			mu.Lock()
			defer mu.Unlock()
			return slices.Clone(kept[key]), nil
		},
		Durable: func(_ *sim.Clock, recs []wal.Record) error {
			mu.Lock()
			defer mu.Unlock()
			for _, r := range recs[:len(recs)-1] {
				kept[r.Key] = r.After
			}
			return nil
		},
		Apply: func(*sim.Clock, []wal.Record) error { return nil },
	}
	var stats, peerStats Stats
	root := NewPipeline(sim.DefaultConfig(), "test", layout, wal.NewLog(), &stats, hooks)
	peer := root.Peer(1, &peerStats, hooks)
	value := func(i int) []byte {
		v := bytes.Repeat([]byte{0x5A}, layout.ValSize)
		v[0] = byte(i)
		return v
	}
	if err := root.Execute(sim.NewClock(), func(tx Tx) error { return tx.Write(1, value(1)) }); err != nil {
		t.Fatal(err)
	}
	// The peer commits through the root's Close, and its second half
	// strictly after it.
	const commits = 200
	started, closed, done := make(chan struct{}), make(chan struct{}), make(chan error)
	go func() {
		c := sim.NewClock()
		for i := range commits {
			key := uint64(2 + i%8)
			if err := peer.Execute(c, func(tx Tx) error { return tx.Write(key, value(i)) }); err != nil {
				done <- err
				return
			}
			switch i {
			case 10:
				close(started)
			case commits / 2:
				<-closed
			}
			var got []byte
			read := func(tx Tx) (err error) { got, err = tx.Read(key); return err }
			if err := peer.Execute(c, read); err != nil || !bytes.Equal(got, value(i)) {
				done <- fmt.Errorf("commit %d: key %d reads %x (err %v)", i, key, got, err)
				return
			}
		}
		done <- nil
	}()
	<-started
	root.Close()
	root.Close() // a second Close must not count again
	close(closed)
	if err := <-done; err != nil {
		t.Fatalf("peer after the root closed: %v", err)
	}
	mu.Lock()
	first := kept[1]
	mu.Unlock()
	if !bytes.Equal(first, value(1)) {
		t.Fatalf("the root's image after the root closed: %x", first)
	}

	peer.Close()
	reused := page.Alloc(wal.ChunkSize)
	for i := range reused {
		reused[i] = 0xEE
	}
	if bytes.Equal(first, value(1)) {
		t.Fatal("the last Close did not release the log's chunks")
	}
}

// TestPipelinePeerSharesLogDirectoryAndHorizon: a commit on either member
// invalidates the other's cached frame, a checkpoint on either moves the
// one horizon both report, and transaction ids never collide in the shared
// log. Detach ends the fan-out to the retired member.
func TestPipelinePeerSharesLogDirectoryAndHorizon(t *testing.T) {
	root := newRoot(t, sim.DefaultConfig(), "test")
	peer := root.peer(1)
	key := uint64(5 * root.p.layout.PerPage) // page 5
	for _, tc := range []struct {
		name           string
		writer, holder *node
	}{{"peer commit", peer, root}, {"root commit", root, peer}} {
		tc.holder.cache(t, 5)
		tc.writer.write(t, key)
		if tc.holder.pool.Contains(5) {
			t.Errorf("%s: the other member still caches page 5", tc.name)
		}
	}
	round := checkpoint.Round{
		Flush:    func(*sim.Clock, wal.LSN) error { return nil },
		Truncate: func(*sim.Clock, wal.LSN) error { return nil },
	}
	for _, n := range []*node{peer, root} { // root committed last: its mark is higher
		if err := n.p.Checkpoint(sim.NewClock(), round); err != nil {
			t.Fatal(err)
		}
		if h := n.p.DurableLSN(); root.p.RecoveryHorizon() != h || peer.p.RecoveryHorizon() != h {
			t.Errorf("horizons root %d, peer %d after a checkpoint at %d", root.p.RecoveryHorizon(), peer.p.RecoveryHorizon(), h)
		}
	}
	stripes := map[uint64]bool{}
	if err := root.p.log.Range(0, ^wal.LSN(0), func(r *wal.Record) error {
		stripes[r.TxID>>40] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !stripes[0] || !stripes[1] || len(stripes) != 2 {
		t.Errorf("tx id stripes in the shared log: %v, want root's 0 and the peer's 1", stripes)
	}

	peer.p.Detach()
	peer.cache(t, 5)
	sent := root.stats.Invalidations.Load()
	root.write(t, key)
	if !peer.pool.Contains(5) || root.stats.Invalidations.Load() != sent {
		t.Errorf("a detached member was sent an invalidation (%d → %d)", sent, root.stats.Invalidations.Load())
	}
}

// TestPipelineSites: everything the node reports lands under names derived
// from its one site, and nothing else does.
func TestPipelineSites(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Stats = sim.NewRegistry()
	n := newRoot(t, cfg, "x")
	n.p.Dir().SetMode(coherence.ModeBump)
	n.p.GroupCommit(4, 0)
	n.write(t, 1)
	err := n.p.Checkpoint(sim.NewClock(), checkpoint.Round{
		Flush:    func(*sim.Clock, wal.LSN) error { return nil },
		Truncate: func(*sim.Clock, wal.LSN) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, line := range strings.Split(cfg.Stats.Table("t").String(), "\n")[3:] {
		if f := strings.Fields(line); len(f) > 0 {
			got[f[0]] = true
		}
	}
	want := map[string]bool{"x.coherence": true, "ckpt.x.flush": true, "ckpt.x.truncate": true, "x.groupcommit": true}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sites = %v, want %v", got, want)
	}
}

// TestRecordedStampIsTheAttemptsOwn: transaction contexts are recycled the
// moment Execute returns, so the history wrapper cannot ask the handle for
// its stamp afterwards — by then it is another worker's transaction. Eight
// workers record concurrently; every committed attempt's stamp must be the
// LSN of the commit record of the transaction that logged that attempt's
// (unique) value.
func TestRecordedStampIsTheAttemptsOwn(t *testing.T) {
	e := newPipeEngine(t)
	rec := history.NewRecorder()
	const workers, txns = 8, 300
	sim.RunGroup(workers, func(id int, c *sim.Clock) int {
		for i := 0; i < txns; i++ {
			val := []byte{byte(id + 1), byte(i), byte(i >> 8)}
			err := Run(e, c, RunOpts{Record: rec, Session: id}, func(tx Tx) error {
				return tx.Write(uint64(1000*id+i%5), val)
			})
			if err != nil {
				t.Error(err)
			}
		}
		return txns
	})
	txOf := map[uint64]uint64{}       // value fingerprint -> transaction id
	commitLSN := map[uint64]wal.LSN{} // transaction id -> its commit record's LSN
	if err := e.p.log.Range(0, ^wal.LSN(0), func(r *wal.Record) error {
		switch r.Type {
		case wal.TypeUpdate:
			txOf[history.HashVal(r.After)] = r.TxID
		case wal.TypeCommit:
			commitLSN[r.TxID] = r.LSN
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	committed := 0
	for _, op := range rec.Ops() {
		a := op.Final()
		if a.Outcome != history.Committed {
			t.Errorf("op %d: %v %s", op.ID, a.Outcome, a.Err)
			continue
		}
		committed++
		if want := commitLSN[txOf[a.Events[0].Val]]; want == 0 || wal.LSN(a.Stamp) != want {
			t.Fatalf("op %d (session %d): recorded stamp %d, its write's commit record is at LSN %d", op.ID, op.Session, a.Stamp, want)
		}
	}
	if committed != workers*txns {
		t.Errorf("%d committed attempts recorded, want %d", committed, workers*txns)
	}
}
