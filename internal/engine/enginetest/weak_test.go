package enginetest

import (
	"sync"
	"testing"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/history"
	"github.com/disagglab/disagg/internal/sim"
)

// This file proves the history checker has teeth end-to-end: two
// deliberately weakened engines are driven through the real engine.Run
// recording pipeline with choreographed interleavings, and the checker
// must name the exact anomaly each weakness produces — G1c for an engine
// with dirty reads, write skew for an engine with unvalidated snapshot
// reads. A checker that cannot fail these is not checking anything.

// dirtyEngine applies writes to the shared map the moment tx.Write is
// called — no staging, no locks — so concurrent transactions read each
// other's uncommitted writes.
type dirtyEngine struct {
	mu    sync.Mutex
	vals  map[uint64][]byte
	stats engine.Stats
}

type dirtyTx struct{ e *dirtyEngine }

func (tx dirtyTx) Read(key uint64) ([]byte, error) {
	tx.e.mu.Lock()
	defer tx.e.mu.Unlock()
	if v, ok := tx.e.vals[key]; ok {
		out := make([]byte, len(v))
		copy(out, v)
		return out, nil
	}
	return make([]byte, 8), nil
}

func (tx dirtyTx) Write(key uint64, val []byte) error {
	tx.e.mu.Lock()
	defer tx.e.mu.Unlock()
	cp := make([]byte, len(val))
	copy(cp, val)
	tx.e.vals[key] = cp
	return nil
}

func (e *dirtyEngine) Name() string         { return "weak-dirty" }
func (e *dirtyEngine) Stats() *engine.Stats { return &e.stats }
func (e *dirtyEngine) Execute(c *sim.Clock, fn func(tx engine.Tx) error) error {
	e.stats.Attempts.Add(1)
	if err := fn(dirtyTx{e}); err != nil {
		e.stats.Aborts.Add(1)
		return err
	}
	e.stats.Commits.Add(1)
	return nil
}

// TestCheckerCatchesDirtyReadCycle choreographs the classic wr-wr cycle
// on the dirty engine: T1 writes k1 and then reads T2's in-flight write
// of k2; T2 reads T1's in-flight write of k1. Both commit, so each read
// is a committed-writer read — but the two reads-from edges point in
// opposite directions, an unserializable cycle already at Read Committed
// (Adya's G1c).
func TestCheckerCatchesDirtyReadCycle(t *testing.T) {
	e := &dirtyEngine{vals: make(map[uint64][]byte)}
	rec := history.NewRecorder()
	const k1, k2 = 1, 2
	v1, v2 := []byte("dirty-v1"), []byte("dirty-v2")
	t1Wrote := make(chan struct{})
	t2Read := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := sim.NewClock()
		err := engine.Run(e, c, engine.RunOpts{Record: rec, Session: 0}, func(tx engine.Tx) error {
			if err := tx.Write(k1, v1); err != nil { // visible to T2 immediately
				return err
			}
			close(t1Wrote)
			<-t2Read // T2 has both written k2 and read our k1
			_, err := tx.Read(k2)
			return err
		})
		if err != nil {
			t.Errorf("T1: %v", err)
		}
	}()
	go func() {
		defer wg.Done()
		c := sim.NewClock()
		err := engine.Run(e, c, engine.RunOpts{Record: rec, Session: 1}, func(tx engine.Tx) error {
			<-t1Wrote
			if err := tx.Write(k2, v2); err != nil {
				return err
			}
			if _, err := tx.Read(k1); err != nil { // T1's uncommitted write
				return err
			}
			close(t2Read)
			return nil
		})
		if err != nil {
			t.Errorf("T2: %v", err)
		}
	}()
	wg.Wait()

	// Each key has one writer, so program order pins the version chains.
	rep, err := history.Check(rec.Ops(), history.Opts{Level: history.ReadCommitted, SingleWriter: true})
	if err != nil {
		t.Fatal(err)
	}
	assertAnomaly(t, rep, "G1c")
}

// snapshotEngine reads from a stable snapshot taken at transaction begin
// and applies staged writes at commit without any validation — first
// committer does not win, nobody wins. Snapshot reads rule out dirty and
// non-repeatable reads, so the only anomaly left is the classic one:
// write skew.
type snapshotEngine struct {
	mu    sync.Mutex
	vals  map[uint64][]byte
	stats engine.Stats
}

func (e *snapshotEngine) Name() string         { return "weak-snapshot" }
func (e *snapshotEngine) Stats() *engine.Stats { return &e.stats }
func (e *snapshotEngine) Execute(c *sim.Clock, fn func(tx engine.Tx) error) error {
	e.stats.Attempts.Add(1)
	e.mu.Lock()
	snap := make(map[uint64][]byte, len(e.vals))
	for k, v := range e.vals {
		snap[k] = v
	}
	e.mu.Unlock()
	st := engine.NewStagedTx(c, func(_ *sim.Clock, key uint64) ([]byte, error) {
		if v, ok := snap[key]; ok {
			out := make([]byte, len(v))
			copy(out, v)
			return out, nil
		}
		return make([]byte, 8), nil
	})
	if err := fn(st); err != nil {
		e.stats.Aborts.Add(1)
		return err
	}
	e.mu.Lock()
	for _, w := range st.Writes() {
		e.vals[w.Key] = w.Val
	}
	e.mu.Unlock()
	e.stats.Commits.Add(1)
	return nil
}

// TestCheckerCatchesWriteSkew runs the textbook schedule on the snapshot
// engine: T1 reads k2 and writes k1, T2 reads k1 and writes k2, with both
// snapshots taken before either commit. Each read observes the initial
// state, missing the other transaction's write — two anti-dependency
// edges forming a cycle. Legal at Read Committed, write skew at
// Serializable.
func TestCheckerCatchesWriteSkew(t *testing.T) {
	e := &snapshotEngine{vals: make(map[uint64][]byte)}
	rec := history.NewRecorder()
	const k1, k2 = 11, 12
	v1, v2 := []byte("skew-v1"), []byte("skew-v2")
	begun := make(chan struct{}, 2)
	proceed := make(chan struct{})
	var wg sync.WaitGroup
	txBody := func(session int, readKey, writeKey uint64, val []byte) {
		defer wg.Done()
		c := sim.NewClock()
		err := engine.Run(e, c, engine.RunOpts{Record: rec, Session: session}, func(tx engine.Tx) error {
			begun <- struct{}{} // snapshot taken; rendezvous before reading
			<-proceed
			if _, err := tx.Read(readKey); err != nil {
				return err
			}
			return tx.Write(writeKey, val)
		})
		if err != nil {
			t.Errorf("T%d: %v", session+1, err)
		}
	}
	wg.Add(2)
	go txBody(0, k2, k1, v1)
	go txBody(1, k1, k2, v2)
	<-begun
	<-begun
	close(proceed) // both transactions hold pre-commit snapshots
	wg.Wait()

	rc, err := history.Check(rec.Ops(), history.Opts{Level: history.ReadCommitted, SingleWriter: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rc.Ok() {
		t.Errorf("write-skew schedule must be legal at Read Committed, got: %v", rc.Anomalies)
	}
	ser, err := history.Check(rec.Ops(), history.Opts{Level: history.Serializable, SingleWriter: true})
	if err != nil {
		t.Fatal(err)
	}
	assertAnomaly(t, ser, "write-skew")
}

// assertAnomaly requires the report to contain the anomaly class with a
// non-empty witness cycle.
func assertAnomaly(t *testing.T, rep *history.Report, class string) {
	t.Helper()
	for _, a := range rep.Anomalies {
		if a.Class == class {
			if len(a.Cycle) == 0 {
				t.Errorf("%s reported without a witness cycle: %s", class, a.Message)
			}
			t.Logf("checker caught it: %s", a)
			return
		}
	}
	t.Errorf("checker missed %s; report: %s, anomalies: %v", class, rep.Summary(), rep.Anomalies)
}
