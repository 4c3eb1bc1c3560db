package enginetest

import (
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
// broken engine and asserts the checker reports violations after a
// crash/recover cycle. If this test fails, the suite has lost its teeth.
func TestSuiteCatchesBrokenEngine(t *testing.T) {
	e := &brokenEngine{vals: make(map[uint64][]byte)}
	layout := Layout(t)
	seed := Seed()
	res := runConformanceWorkload(e, layout, seed)
	if res.commits.Load() == 0 {
		t.Fatal("workload made no progress on the broken engine")
	}
	// Pre-crash the state is fine (the bug is durability, not visibility).
	if v := verifyFinalState(res); len(v) != 0 {
		t.Fatalf("unexpected pre-crash violations: %v", v)
	}
	e.Crash()
	if _, err := e.Recover(sim.NewClock()); err != nil {
		t.Fatal(err)
	}
	violations := verifyFinalState(res)
	if len(violations) == 0 {
		t.Fatal("conformance checker passed an engine that loses every acked write on recovery")
	}
	t.Logf("checker correctly flagged %d violations, e.g. %q", len(violations), violations[0])
}
