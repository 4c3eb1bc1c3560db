package engine

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/sim/admission"
)

type flakyEngine struct {
	failures     int // ErrConflict this many times before succeeding
	unavailable  bool
	calls        int
	replicaCalls []int
	stats        Stats
}

func (f *flakyEngine) Name() string  { return "flaky" }
func (f *flakyEngine) Stats() *Stats { return &f.stats }

type nopTx struct{}

func (nopTx) Read(uint64) ([]byte, error) { return nil, nil }
func (nopTx) Write(uint64, []byte) error  { return nil }

// Execute models a conflict-prone engine, charging no virtual time of its
// own — which is exactly what exposes a zero-delay retry loop. It keeps
// the full attempts accounting a real engine must.
func (f *flakyEngine) Execute(c *sim.Clock, fn func(tx Tx) error) error {
	f.calls++
	f.stats.Attempts.Add(1)
	if f.unavailable {
		f.stats.Shed.Add(1)
		return ErrUnavailable
	}
	if f.failures > 0 {
		f.failures--
		f.stats.Aborts.Add(1)
		return ErrConflict
	}
	if err := fn(nopTx{}); err != nil {
		f.stats.Aborts.Add(1)
		return err
	}
	f.stats.Commits.Add(1)
	return nil
}

// flakyReader adds read replicas to flakyEngine.
type flakyReader struct {
	flakyEngine
	replicaFailures int
}

func (f *flakyReader) ReadReplica(c *sim.Clock, idx int, fn func(tx Tx) error) error {
	f.replicaCalls = append(f.replicaCalls, idx)
	f.stats.Attempts.Add(1)
	if f.replicaFailures > 0 {
		f.replicaFailures--
		f.stats.Aborts.Add(1)
		return ErrConflict
	}
	if err := fn(nopTx{}); err != nil {
		f.stats.Aborts.Add(1)
		return err
	}
	f.stats.Commits.Add(1)
	return nil
}

func TestRunRetriesConflicts(t *testing.T) {
	e := &flakyEngine{failures: 2}
	err := Run(e, sim.NewClock(), RunOpts{Retries: 3}, func(tx Tx) error { return nil })
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if e.calls != 3 {
		t.Fatalf("calls = %d, want 3", e.calls)
	}
}

func TestRunGivesUp(t *testing.T) {
	e := &flakyEngine{failures: 100}
	err := Run(e, sim.NewClock(), RunOpts{Retries: 2}, func(tx Tx) error { return nil })
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunPassesThroughOtherErrors(t *testing.T) {
	e := &flakyEngine{}
	boom := errors.New("boom")
	err := Run(e, sim.NewClock(), RunOpts{Retries: 5}, func(tx Tx) error { return boom })
	if err != boom {
		t.Fatalf("err = %v", err)
	}
	if e.calls != 1 {
		t.Fatalf("calls = %d, want 1 (no retry on app error)", e.calls)
	}
}

func TestRunZeroOptsIsExecute(t *testing.T) {
	e := &flakyEngine{failures: 1}
	err := Run(e, sim.NewClock(), RunOpts{}, func(tx Tx) error { return nil })
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("err = %v, want single-attempt conflict", err)
	}
	if e.calls != 1 {
		t.Fatalf("calls = %d, want 1", e.calls)
	}
}

func TestRunRoutesToReplica(t *testing.T) {
	e := &flakyReader{}
	err := Run(e, sim.NewClock(), RunOpts{Replica: 2}, func(tx Tx) error { return nil })
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if e.calls != 0 {
		t.Fatal("replica run must not touch the primary")
	}
	if len(e.replicaCalls) != 1 || e.replicaCalls[0] != 1 {
		t.Fatalf("replica calls = %v, want [1] (Replica is 1-based)", e.replicaCalls)
	}
}

func TestRunReplicaOnNonReader(t *testing.T) {
	e := &flakyEngine{}
	err := Run(e, sim.NewClock(), RunOpts{Replica: 1}, func(tx Tx) error { return nil })
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
}

// TestRunConflictRetryChargesClock is the zero-delay-livelock regression
// test: before the fix, Run's retry loop re-executed conflicted
// transactions without advancing virtual time at all, so a conflict-prone
// engine that charges no time of its own left the clock at zero — the
// retry storm was free, inflating throughput and starving every
// window-based policy (group commit, meters) of elapsed time. With
// default-on backoff, each retry must charge a jittered delay.
func TestRunConflictRetryChargesClock(t *testing.T) {
	e := &flakyEngine{failures: 3}
	c := sim.NewClock()
	if err := Run(e, c, RunOpts{Retries: 5}, func(tx Tx) error { return nil }); err != nil {
		t.Fatalf("err = %v", err)
	}
	if c.Now() == 0 {
		t.Fatal("3 conflict retries advanced the clock by zero: the retry loop is free again")
	}
	st := e.Stats()
	if st.Retries.Load() != 3 || st.BackoffWait.Load() != int64(c.Now()) {
		t.Fatalf("retry telemetry = retries %d wait %d (clock %v)",
			st.Retries.Load(), st.BackoffWait.Load(), c.Now())
	}
}

// TestRunBudgetSurfacesErrorWhenDry pins the retry-budget semantics: a
// dry budget stops retrying and surfaces the last error, bounding retry
// amplification no matter how large Retries is.
func TestRunBudgetSurfacesErrorWhenDry(t *testing.T) {
	e := &flakyEngine{failures: 100}
	b := admission.NewBudget(0, 2) // 2 burst tokens, earning nothing
	err := Run(e, sim.NewClock(), RunOpts{Retries: 50, Budget: b}, func(tx Tx) error { return nil })
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("err = %v, want surfaced ErrConflict", err)
	}
	if e.calls != 3 {
		t.Fatalf("calls = %d, want 3 (first attempt + 2 budgeted retries)", e.calls)
	}
}

// TestRunBreakerFastFails pins breaker wiring: sustained ErrUnavailable
// trips the breaker, after which Run sheds with ErrShed without touching
// the engine, and the shed lands in exactly one counter.
func TestRunBreakerFastFails(t *testing.T) {
	e := &flakyEngine{unavailable: true}
	br := admission.NewBreaker(2, time.Millisecond)
	c := sim.NewClock()
	for i := 0; i < 2; i++ {
		if err := Run(e, c, RunOpts{Breaker: br}, func(tx Tx) error { return nil }); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("run %d err = %v, want ErrUnavailable", i, err)
		}
	}
	err := Run(e, c, RunOpts{Breaker: br}, func(tx Tx) error { return nil })
	if !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed from the open breaker", err)
	}
	if e.calls != 2 {
		t.Fatalf("calls = %d, want 2 (fast-fail must not reach the engine)", e.calls)
	}
	st := e.Stats()
	if a, cm, ab, sh := st.Attempts.Load(), st.Commits.Load(), st.Aborts.Load(), st.Shed.Load(); a != cm+ab+sh || sh != 3 {
		t.Fatalf("accounting attempts %d = commits %d + aborts %d + shed %d violated (want shed 3)", a, cm, ab, sh)
	}
	// After the virtual cooldown the half-open probe reaches the engine.
	e.unavailable = false
	c.Advance(time.Millisecond)
	if err := Run(e, c, RunOpts{Breaker: br}, func(tx Tx) error { return nil }); err != nil {
		t.Fatalf("post-cooldown err = %v", err)
	}
	if e.calls != 3 {
		t.Fatalf("calls = %d, want 3 (probe reaches the engine)", e.calls)
	}
}

// TestRunShedderRejectsAtWatermark pins the load-shedding path: with the
// in-flight watermark full, Run fails fast with ErrShed and counts it.
func TestRunShedderRejectsAtWatermark(t *testing.T) {
	e := &flakyEngine{}
	sh := admission.NewShedder(1)
	if !sh.TryEnter() {
		t.Fatal("setup: could not occupy the only slot")
	}
	err := Run(e, sim.NewClock(), RunOpts{Shed: sh}, func(tx Tx) error { return nil })
	if !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	if e.calls != 0 {
		t.Fatal("shed run must not reach the engine")
	}
	if e.stats.Shed.Load() != 1 || e.stats.Attempts.Load() != 1 {
		t.Fatalf("shed accounting = attempts %d shed %d", e.stats.Attempts.Load(), e.stats.Shed.Load())
	}
	sh.Exit()
	if err := Run(e, sim.NewClock(), RunOpts{Shed: sh}, func(tx Tx) error { return nil }); err != nil {
		t.Fatalf("post-exit err = %v", err)
	}
}

// TestRunReplicaConflictRetriesSameReplicaWithBackoff pins the intended
// Replica+Retries semantics: conflicts retry the same replica (its state
// converges with time, which the backoff buys), the clock advances, and
// budget exhaustion surfaces the error for the caller to re-route.
func TestRunReplicaConflictRetriesSameReplicaWithBackoff(t *testing.T) {
	e := &flakyReader{replicaFailures: 2}
	c := sim.NewClock()
	if err := Run(e, c, RunOpts{Replica: 2, Retries: 4}, func(tx Tx) error { return nil }); err != nil {
		t.Fatalf("err = %v", err)
	}
	if len(e.replicaCalls) != 3 {
		t.Fatalf("replica calls = %v, want 3 attempts", e.replicaCalls)
	}
	for _, idx := range e.replicaCalls {
		if idx != 1 {
			t.Fatalf("retry switched replicas: calls = %v", e.replicaCalls)
		}
	}
	if e.calls != 0 {
		t.Fatal("replica retries must not fall back to the primary")
	}
	if c.Now() == 0 {
		t.Fatal("replica conflict retries charged no virtual time")
	}

	// Budget exhaustion surfaces the conflict instead of retrying forever.
	e2 := &flakyReader{replicaFailures: 100}
	err := Run(e2, sim.NewClock(), RunOpts{Replica: 1, Retries: 50, Budget: admission.NewBudget(0, 1)},
		func(tx Tx) error { return nil })
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("err = %v, want surfaced ErrConflict after budget", err)
	}
	if len(e2.replicaCalls) != 2 {
		t.Fatalf("replica calls = %d, want 2 (first + 1 budgeted retry)", len(e2.replicaCalls))
	}
}

// TestRunReplicaOnNonReaderCountsShed extends the routing test: the
// refusal must land in the accounting (attempts == shed == 1).
func TestRunReplicaOnNonReaderCountsShed(t *testing.T) {
	e := &flakyEngine{}
	if err := Run(e, sim.NewClock(), RunOpts{Replica: 1}, func(tx Tx) error { return nil }); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v", err)
	}
	if e.stats.Attempts.Load() != 1 || e.stats.Shed.Load() != 1 {
		t.Fatalf("accounting = attempts %d shed %d, want 1/1", e.stats.Attempts.Load(), e.stats.Shed.Load())
	}
}

// TestRunRetriesThroughConflicts pins the behavior the retired
// closed-loop shim delegated to: Retries re-executions absorb transient
// conflicts.
func TestRunRetriesThroughConflicts(t *testing.T) {
	e := &flakyEngine{failures: 2}
	if err := Run(e, sim.NewClock(), RunOpts{Retries: 3}, func(tx Tx) error { return nil }); err != nil {
		t.Fatalf("err = %v", err)
	}
	if e.calls != 3 {
		t.Fatalf("calls = %d, want 3", e.calls)
	}
}

// TestCapsDiscovery checks the consolidated capability probe against a
// plain engine and one with replicas.
func TestCapsDiscovery(t *testing.T) {
	plain := Caps(&flakyEngine{})
	if plain.Recoverer != nil || plain.Reader != nil || plain.GroupCommitter != nil {
		t.Fatalf("flakyEngine caps = %+v, want none", plain)
	}
	reader := Caps(&flakyReader{})
	if reader.Reader == nil {
		t.Fatal("flakyReader must expose the Reader capability")
	}
}

func TestStatsBytesPerCommit(t *testing.T) {
	var s Stats
	if s.BytesPerCommit() != 0 {
		t.Fatal("empty stats should be zero-safe")
	}
	s.Commits.Add(4)
	s.NetBytes.Add(400)
	if s.BytesPerCommit() != 100 {
		t.Fatalf("bytes/commit = %v", s.BytesPerCommit())
	}
	s.Reset()
	if s.Commits.Load() != 0 || s.NetBytes.Load() != 0 {
		t.Fatal("reset failed")
	}
}

// TestStatsResetZeroesEveryField walks Stats by reflection so a counter
// added without a matching Reset line fails here instead of silently
// leaking values across experiment phases.
func TestStatsResetZeroesEveryField(t *testing.T) {
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		ctr, ok := v.Field(i).Addr().Interface().(*atomic.Int64)
		if !ok {
			t.Fatalf("Stats.%s is %s, not atomic.Int64; extend Reset and this test", f.Name, f.Type)
		}
		ctr.Store(int64(i) + 1)
	}
	s.Reset()
	for i := 0; i < v.NumField(); i++ {
		if got := v.Field(i).Addr().Interface().(*atomic.Int64).Load(); got != 0 {
			t.Errorf("Stats.Reset left %s = %d", v.Type().Field(i).Name, got)
		}
	}
}
