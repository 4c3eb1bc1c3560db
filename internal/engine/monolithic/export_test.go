package monolithic

import (
	"slices"

	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/sim"
)

// LogLen exposes the in-memory log length to the external test package.
func (e *Engine) LogLen() int { return e.log.Len() }

// FetchPage runs the buffer pool's miss path for page id outside the pool.
func (e *Engine) FetchPage(c *sim.Clock, id page.ID) ([]byte, error) { return e.fetchPage(c, id) }

// PlantDiskImage stores a copy of img as the durable on-disk image of page
// id: writebacks overwrite disk images in place, and never the caller's.
func (e *Engine) PlantDiskImage(id page.ID, img []byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.disk[id] = slices.Clone(img)
}
