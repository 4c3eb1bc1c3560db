package monolithic

import (
	"slices"

	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/wal"
)

// LogLen exposes the in-memory log length to the external test package.
func (e *Engine) LogLen() int { return e.log.Len() }

// SetBetweenFlushAndTruncate installs a hook that runs inside a
// checkpoint's flush→truncate window — the window whose in-flight
// commits the original Checkpoint ordering truncated away.
func (e *Engine) SetBetweenFlushAndTruncate(fn func()) { e.testBetweenFlushAndTruncate = fn }

// GateDurable makes every commit call gate inside its durable hook, before
// the fsync.
func (e *Engine) GateDurable(gate func()) {
	durable := e.pipe.Durable
	e.pipe.Durable = func(c *sim.Clock, recs []wal.Record) error {
		gate()
		return durable(c, recs)
	}
}

// GateApply makes every commit call gate inside its apply hook, before the
// buffer pool sees its records.
func (e *Engine) GateApply(gate func()) {
	apply := e.pipe.Apply
	e.pipe.Apply = func(c *sim.Clock, recs []wal.Record) error {
		gate()
		return apply(c, recs)
	}
}

// FetchPage runs the buffer pool's miss path for page id outside the pool.
func (e *Engine) FetchPage(c *sim.Clock, id page.ID) ([]byte, error) { return e.fetchPage(c, id) }

// PlantDiskImage stores a copy of img as the durable on-disk image of page
// id: writebacks overwrite disk images in place, and never the caller's.
func (e *Engine) PlantDiskImage(id page.ID, img []byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.disk[id] = slices.Clone(img)
}
