package enginetest

import (
	"encoding/binary"
	"sync/atomic"
	"testing"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/sim"
)

// InFlightCaptureGuard is the regression for a page image captured between
// two applies that ran out of LSN order. Two keys share a page. A commits
// first (LSN n) and is held inside its Durable hook while B (LSN n+2)
// commits and applies, so the cached page carries B's LSN without A's
// update. ship then captures the cached pages for storage; A is released
// and applies to the cache only; the node crashes, recovers and reads both
// keys back. An image stamped with B's LSN tells every later redo that A is
// already in it, so A's acked write is lost.
//
// gate installs fn to run inside e's Durable hook before the records leave
// the node; ship is whatever writes e's cached page images to its durable
// page store (a flush of the cache, a checkpoint to remote memory).
func InFlightCaptureGuard(t *testing.T, e engine.Engine, gate func(fn func()), ship func(c *sim.Clock) error) {
	t.Helper()
	layout := Layout(t)
	const a, b = 0, 1 // one page
	if layout.PageOf(a) != layout.PageOf(b) {
		t.Fatal("keys a and b must share a page")
	}
	c := sim.NewClock()
	for _, k := range []uint64{a, b} {
		if err := writeKey(e, c, engine.RunOpts{}, k, val(layout, 1)); err != nil {
			t.Fatal(err)
		}
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var held atomic.Bool // sync.Once would hold B's Durable too
	gate(func() {
		if held.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
	})
	done := make(chan error)
	go func() { done <- writeKey(e, sim.NewClock(), engine.RunOpts{}, a, val(layout, 2)) }()
	<-entered
	if err := writeKey(e, c, engine.RunOpts{}, b, val(layout, 2)); err != nil {
		t.Fatal(err)
	}
	shipErr := ship(c)
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("%s: held commit: %v", e.Name(), err)
	}
	if shipErr != nil {
		t.Fatalf("%s: ship: %v", e.Name(), shipErr)
	}
	crashRecover(t, e)
	for _, k := range []uint64{a, b} {
		got, err := readKey(e, c, engine.RunOpts{}, k)
		if err != nil {
			t.Fatalf("%s: read key %d after recovery: %v", e.Name(), k, err)
		}
		if tag := binary.LittleEndian.Uint64(got); tag != 2 {
			t.Fatalf("%s: key %d reads version %d after recovery, want the acked 2 (an image shipped or a checkpoint taken while its commit was in flight skipped it)", e.Name(), k, tag)
		}
	}
}

// CheckpointDuringApplyGuard is InFlightCaptureGuard one step later: gate
// holds A inside its Apply hook — decided and durable, but not yet in the
// cache — while B commits and applies to the same page and a full checkpoint
// round runs. A horizon at the durable LSN covers A, yet the round's redo
// into the cached page skips A under the page-LSN guard (B's stamp is
// higher) and its flush stamps the image below A, so truncating below the
// horizon drops the only copy of A's update. The horizon must stay below
// every decided commit that has not applied.
func CheckpointDuringApplyGuard(t *testing.T, e engine.Engine, gate func(fn func())) {
	t.Helper()
	InFlightCaptureGuard(t, e, gate, engine.Caps(e).Checkpointer.Checkpoint)
}
