package buffer

import (
	"bytes"
	"errors"
	"runtime/debug"
	"testing"

	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/sim"
)

// raceBuild reports whether the test binary was built with -race, where
// page.Release poisons a buffer instead of keeping it for page.Alloc.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// released reports whether b went through page.Release: it is what the next
// page.Alloc of its length returns (taking it off the list again), or, in
// the race build, it is poisoned. Each test uses a page length of its own, so
// the list holds nothing another test released.
func released(b []byte) bool {
	if raceBuild() {
		return bytes.Equal(b, bytes.Repeat([]byte{0xFF}, len(b)))
	}
	return &page.Alloc(len(b))[0] == &b[0]
}

func pageOf(size int, fill byte) []byte { return bytes.Repeat([]byte{fill}, size) }

func TestEvictionReleasesTheVictimOnlyAfterItsWriteback(t *testing.T) {
	const size = 301
	cfg, c := sim.DefaultConfig(), sim.NewClock()
	down := true
	p := NewPool(cfg, 1, nil, func(*sim.Clock, page.ID, []byte) error {
		if down {
			return errors.New("storage node down")
		}
		return nil
	})
	victim := pageOf(size, 1)
	if err := p.Install(c, 1, victim, true); err != nil {
		t.Fatal(err)
	}
	if err := p.Install(c, 2, pageOf(size, 2), false); err == nil {
		t.Fatal("Install evicted a dirty page whose writeback failed")
	}
	if released(victim) {
		t.Fatal("a victim whose writeback failed was released")
	}
	if !p.View(c, 1, func(d []byte) {
		if !bytes.Equal(d, pageOf(size, 1)) {
			t.Error("the resident victim's bytes changed")
		}
	}) {
		t.Fatal("a victim whose writeback failed is no longer resident")
	}
	down = false
	if err := p.Install(c, 2, pageOf(size, 2), false); err != nil {
		t.Fatal(err)
	}
	if !released(victim) {
		t.Fatal("an evicted, written-back victim was not released")
	}
}

func TestInstallReleasesTheBytesItReplacesOnce(t *testing.T) {
	const size = 302
	cfg, c := sim.DefaultConfig(), sim.NewClock()
	p := NewPool(cfg, 2, nil, nil)
	old, next := pageOf(size, 1), pageOf(size, 2)
	p.Install(c, 9, old, false)
	p.Install(c, 9, next, false)
	if !released(old) {
		t.Fatal("Install over a resident page did not release the old bytes")
	}
	if !raceBuild() && released(old) {
		t.Fatal("the old bytes were on the free list twice")
	}
	// The same slice again: it is the frame, not a buffer to recycle.
	p.Install(c, 9, next, true)
	if released(next) {
		t.Fatal("re-installing the frame's own slice released it")
	}
	if !p.View(c, 9, func(d []byte) {
		if !bytes.Equal(d, pageOf(size, 2)) {
			t.Error("the frame's bytes changed")
		}
	}) {
		t.Fatal("page 9 not resident")
	}
}

func TestInvalidatedFramesAreNotReleased(t *testing.T) {
	const size = 303
	cfg, c := sim.DefaultConfig(), sim.NewClock()
	p := NewPool(cfg, 2, nil, nil)
	a, b := pageOf(size, 1), pageOf(size, 2)
	p.Install(c, 1, a, false)
	p.Install(c, 2, b, false)
	p.Invalidate(1)
	p.InvalidateAll()
	if released(a) || released(b) {
		t.Fatal("Invalidate / InvalidateAll released a frame")
	}
}
