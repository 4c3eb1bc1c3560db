package enginetest

import (
	"encoding/binary"
	"testing"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/sim"
)

// InFlightCaptureGuard is the regression for a page image captured while an
// earlier commit to its page is in flight. Two keys share a page. A commits
// first (LSN n) and is held at pt — sim.PointDurable, not yet durable, or
// sim.PointApply, durable but not yet in the cache — while B (LSN n+2)
// commits and applies, so the cached page carries B's LSN without A's
// update. ship then writes e's cached pages to its durable page store (a
// cache flush, a remote-memory or a full checkpoint); A is released, and the
// node crashes, recovers and reads both keys back. An image stamped with B's
// LSN tells every later redo that A is in it, and a horizon that covers A
// lets truncation drop the only copy of its update: either way A's acked
// write is lost. The guard sets the At hook of cfg, e's configuration.
func InFlightCaptureGuard(t *testing.T, e engine.Engine, cfg *sim.Config, pt sim.Point, ship func(c *sim.Clock) error) {
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
	held, entered, release := sim.NewClock(), make(chan struct{}), make(chan struct{})
	cfg.At = func(c *sim.Clock, at sim.Point) {
		if c == held && at == pt {
			close(entered)
			<-release
		}
	}
	done := make(chan error)
	go func() { done <- writeKey(e, held, engine.RunOpts{}, a, val(layout, 2)) }()
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
