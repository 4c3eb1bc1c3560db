package enginetest

import (
	"errors"
	"testing"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/sim"
)

// FailedRedoGuard is the regression for page fetches that redo the log onto
// a stored image: a record that cannot be applied must fail the fetch — the
// rule wal.ErrTruncated already follows — not leave a half-redone page to be
// served as authoritative. plant stores img as e's durable image of a page;
// drop empties e's caches.
//
// The planted image holds only the page's first slot, so the committed
// update to its second key has nowhere to go while a read of its first key
// would succeed on whatever page a fetch returned.
//
// A checkpoint is held to the same rule: its flush redoes the same record, so
// the round must fail and leave the horizon where it was — a round that
// swallows the failure truncates an acked commit that is in no page.
func FailedRedoGuard(t *testing.T, e engine.Engine, plant func(id page.ID, img []byte), drop func()) {
	t.Helper()
	layout := Layout(t)
	const id = 3
	first := uint64(id) * uint64(layout.PerPage)
	img := make([]byte, layout.PageSize)
	if err := page.Format(img, 1, len(layout.EncodeRecord(first, nil))); err != nil {
		t.Fatal(err)
	}
	if err := layout.WriteValue(img, first, val(layout, 0), 0); err != nil {
		t.Fatal(err)
	}
	plant(id, img)
	c := sim.NewClock()
	// Durable in the log whether or not the engine reports the apply, which
	// cannot succeed either.
	_ = writeKey(e, c, engine.RunOpts{}, first+1, val(layout, 9))
	drop()
	read := func() error {
		_, err := readKey(e, c, engine.RunOpts{}, first)
		return err
	}
	if err := read(); !errors.Is(err, page.ErrBadSlot) {
		t.Fatalf("%s: read of a page whose redo failed: err = %v, want the redo's %v (nil: the half-redone page was served)", e.Name(), err, page.ErrBadSlot)
	}
	cp := engine.Caps(e).Checkpointer
	if cp == nil {
		return
	}
	horizon := cp.RecoveryHorizon()
	if err := cp.Checkpoint(c); !errors.Is(err, page.ErrBadSlot) {
		t.Fatalf("%s: checkpoint over a record it cannot redo: err = %v, want the redo's %v", e.Name(), err, page.ErrBadSlot)
	}
	if got := cp.RecoveryHorizon(); got != horizon {
		t.Fatalf("%s: failed checkpoint moved the recovery horizon %d -> %d", e.Name(), horizon, got)
	}
	drop()
	if err := read(); !errors.Is(err, page.ErrBadSlot) {
		t.Fatalf("%s: read after the failed checkpoint: err = %v, want %v (the commit is gone from page and log)", e.Name(), err, page.ErrBadSlot)
	}
}
