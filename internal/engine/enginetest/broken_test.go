package enginetest

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/sim"
)

// brokenEngine is a deliberately buggy map-backed engine: it acknowledges
// commits but keeps no durable state, so Recover comes back empty — lost
// acked writes. It exists to prove the conformance checker actually fails
// engines that violate durability (a suite that can't fail is no suite).
type brokenEngine struct {
	mu      sync.Mutex
	vals    map[uint64][]byte
	stats   engine.Stats
	crashed bool
}

type brokenTx struct{ e *brokenEngine }

func (tx brokenTx) Read(key uint64) ([]byte, error) {
	tx.e.mu.Lock()
	defer tx.e.mu.Unlock()
	if v, ok := tx.e.vals[key]; ok {
		out := make([]byte, len(v))
		copy(out, v)
		return out, nil
	}
	return make([]byte, 64), nil
}

func (tx brokenTx) Write(key uint64, val []byte) error {
	tx.e.mu.Lock()
	defer tx.e.mu.Unlock()
	cp := make([]byte, len(val))
	copy(cp, val)
	tx.e.vals[key] = cp
	return nil
}

func (e *brokenEngine) Name() string         { return "broken" }
func (e *brokenEngine) Stats() *engine.Stats { return &e.stats }
func (e *brokenEngine) Execute(c *sim.Clock, fn func(tx engine.Tx) error) error {
	e.mu.Lock()
	crashed := e.crashed
	e.mu.Unlock()
	if crashed {
		return engine.ErrUnavailable
	}
	if err := fn(brokenTx{e}); err != nil {
		e.stats.Aborts.Add(1)
		return err
	}
	e.stats.Commits.Add(1)
	return nil
}

// Crash wipes everything; Recover restores nothing. Every acked write is
// lost — the durability invariant the suite must catch.
func (e *brokenEngine) Crash() {
	e.mu.Lock()
	e.crashed = true
	e.vals = make(map[uint64][]byte)
	e.mu.Unlock()
}

func (e *brokenEngine) Recover(c *sim.Clock) (time.Duration, error) {
	e.mu.Lock()
	e.crashed = false
	e.mu.Unlock()
	return 0, nil
}

// TestSuiteCatchesBrokenEngine runs the conformance workload against the
// broken engine and asserts the report holds violations after a
// crash/recover cycle, and the flight timelines with them. If this test
// fails, the suite has lost its teeth.
func TestSuiteCatchesBrokenEngine(t *testing.T) {
	e := &brokenEngine{vals: make(map[uint64][]byte)}
	w := runWorkload(e, "broken", Seed())
	if w.Report().Commits == 0 {
		t.Fatal("workload made no progress on the broken engine")
	}
	// Pre-crash the state is fine (the bug is durability, not visibility).
	w.Verify("")
	if rep := w.Report(); !rep.Ok() {
		t.Fatalf("unexpected pre-crash violations: %v", rep.Violations)
	}
	if !w.CrashRecover(e) {
		t.Fatal("the broken engine's recovery failed")
	}
	rep := w.Report()
	lost := 0
	for _, v := range rep.Violations {
		if strings.Contains(v.Msg, "lost acked write") {
			lost++
		}
	}
	if lost == 0 {
		t.Fatalf("conformance checker passed an engine that loses every acked write on recovery: %v", rep.Violations)
	}
	if !strings.Contains(rep.Dump, "--- worker 0 ---") {
		t.Errorf("a report with violations carries no flight timelines:\n%s", rep.Dump)
	}
	t.Logf("checker correctly flagged %d violations, e.g. %q", len(rep.Violations), rep.Violations[0])
}
