// Package monolithic implements the baseline the tutorial contrasts every
// disaggregated design against (§1): a single-server database with a local
// buffer pool, a local write-ahead log fsynced to the server's SSD, and
// pages on the same SSD. No network is involved — but there is no
// elasticity either, and recovery must replay the local log against the
// on-disk pages.
package monolithic

import (
	"fmt"
	"sync"
	"time"

	"github.com/disagglab/disagg/internal/buffer"
	"github.com/disagglab/disagg/internal/buffer/coherence"
	"github.com/disagglab/disagg/internal/checkpoint"
	"github.com/disagglab/disagg/internal/device"
	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/wal"
)

// Engine is the monolithic baseline. Its compute node is the whole server:
// a crash loses the buffer pool (Pool), and the SSD survives — the log, whose
// fsync at commit is DurableLSN, and the checkpointed pages.
type Engine struct {
	*engine.Pipeline
	cfg    *sim.Config
	layout heap.Layout
	ssd    *device.SSD
	// pool is the buffer pool. Commit publishes version-stamp its frames; a
	// frame whose apply failed keeps its old stamp and goes stale, forcing
	// the next reader through fetchPage's log replay.
	pool  *buffer.Pool
	log   *wal.Log
	stats engine.Stats

	mu sync.Mutex
	// disk is the durable page store (post-checkpoint images), private to
	// the engine: written in place and read, both under mu.
	disk map[page.ID][]byte
	// checkpointLSN is the LSN covered by on-disk pages.
	checkpointLSN wal.LSN
}

// New creates a monolithic engine with a buffer pool of poolPages frames.
func New(cfg *sim.Config, layout heap.Layout, poolPages int) *Engine {
	e := &Engine{
		cfg:    cfg,
		layout: layout,
		ssd:    device.NewSSD(cfg, 32),
		log:    wal.NewLog(),
		disk:   make(map[page.ID][]byte),
	}
	e.pool = buffer.NewPool(cfg, poolPages, e.fetchPage, e.writebackPage)
	e.Pipeline = engine.NewPipeline(cfg, "monolithic", layout, e.log, &e.stats,
		engine.Hooks{Read: e.read, Durable: e.durable, Apply: e.apply})
	e.Coherent(coherence.ModeBump)
	e.Cache("pool", e.pool)
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "monolithic" }

func (e *Engine) fetchPage(c *sim.Clock, id page.ID) ([]byte, error) {
	// writebackPage overwrites a disk image in place, so the image is copied
	// out before e.mu is dropped.
	out := page.Alloc(e.layout.PageSize)
	e.mu.Lock()
	img, ok := e.disk[id]
	if ok {
		copy(out, img)
	}
	e.mu.Unlock()
	e.stats.StorageOps.Add(1)
	if !ok {
		e.layout.Format(out, id)
	}
	e.ssd.Read(c, e.layout.PageSize)
	// Redo this page's log chain: the disk image only reflects the last
	// writeback/checkpoint, but the fsynced WAL may hold newer committed
	// updates (e.g. after a failed in-pool apply staled the frame).
	// Replaying here makes a fetch authoritative.
	e.mu.Lock()
	ckpt := e.checkpointLSN
	e.mu.Unlock()
	after := max(ckpt, wal.LSN(page.Wrap(out).LSN()))
	if err := e.log.RedoPage(uint64(id), after, func(r *wal.Record) error {
		_, err := e.Redo(out, r)
		return err
	}); err != nil {
		return nil, err
	}
	// A log truncated past the page's checkpoint floor is a horizon-
	// bookkeeping bug, surfaced loudly rather than serving a silently stale
	// page. The floor only rises: read after the walk, it covers the walk.
	if floor := e.log.Floor(); ckpt+1 < floor {
		return nil, fmt.Errorf("%w: monolithic: redo page %d from %d, floor %d", wal.ErrTruncated, id, ckpt, floor)
	}
	return out, nil
}

// writebackPage writes a dirty frame over its disk image, stamped with what
// it is known to hold (engine.Pipeline.Capture). Nobody but fetchPage reads
// disk, and it copies out under e.mu, so the image is overwritten in place:
// only a page's first writeback allocates one.
func (e *Engine) writebackPage(c *sim.Clock, id page.ID, data []byte) error {
	e.mu.Lock()
	img, ok := e.disk[id]
	if !ok {
		img = make([]byte, len(data))
		e.disk[id] = img
	}
	copy(img, data)
	e.Capture(img)
	e.mu.Unlock()
	e.ssd.Write(c, len(data))
	e.stats.StorageOps.Add(1)
	return nil
}

// read is the pipeline's read hook: the buffer pool, filled by fetchPage.
func (e *Engine) read(c *sim.Clock, key uint64) ([]byte, error) {
	return e.ReadPool(c, e.pool, key)
}

// durable is the commit pipeline's durability hook: one group-commit
// fsync of the transaction's records to the local SSD log. No network.
func (e *Engine) durable(c *sim.Clock, recs []wal.Record) error {
	n := wal.Size(recs)
	e.ssd.Write(c, n)
	e.stats.LogBytes.Add(int64(n))
	return nil
}

// apply is the pipeline's materialisation hook: the buffer pool is where
// pages live until a checkpoint writes them back. A frame whose apply
// failed goes stale at the publish, and the next reader refetches through
// fetchPage's log replay.
func (e *Engine) apply(c *sim.Clock, recs []wal.Record) error {
	e.ApplyPool(c, e.pool, recs)
	return nil
}

// Checkpoint flushes all dirty pages and truncates the log, implementing
// engine.Checkpointer. The recovery horizon is captured BEFORE the flush:
// a commit acked while the flush runs lands above the horizon and
// survives in the retained log tail. (The original flush-then-capture
// ordering truncated such a commit's records while its page updates were
// still only in the soon-to-be-lost buffer pool.)
func (e *Engine) Checkpoint(c *sim.Clock) error {
	return e.Pipeline.Checkpoint(c, checkpoint.Round{
		Flush: func(c *sim.Clock, h wal.LSN) error {
			// Redo the retained tail up to the horizon into the pool
			// before flushing: a commit whose in-pool apply failed (its
			// frame was staled) exists only in log records the truncation
			// below h+1 is about to discard. Page-LSN guards make the
			// redo idempotent against already-applied commits.
			if err := e.log.Range(e.RecoveryHorizon(), h, func(r *wal.Record) error {
				if r.Type != wal.TypeUpdate {
					return nil
				}
				return e.pool.Mutate(c, page.ID(r.PageID), func(data []byte) error {
					_, err := e.Redo(data, r)
					return err
				})
			}); err != nil {
				return err
			}
			if err := e.pool.FlushAll(c); err != nil {
				return err
			}
			e.mu.Lock()
			if h > e.checkpointLSN {
				e.checkpointLSN = h
			}
			e.mu.Unlock()
			return nil
		},
		Truncate: func(c *sim.Clock, h wal.LSN) error {
			e.log.TruncateBefore(h + 1)
			e.ssd.Write(c, 24) // checkpoint master record
			return nil
		},
	})
}

// Recover implements engine.Recoverer: ARIES-style redo of the log tail
// against on-disk pages; the durable mark is the log's decided prefix.
func (e *Engine) Recover(c *sim.Clock) (time.Duration, error) {
	start := c.Now()
	e.mu.Lock()
	ckpt := e.checkpointLSN
	e.mu.Unlock()
	// Read the log tail from SSD.
	logBytes := 0
	if err := e.log.Range(ckpt, ^wal.LSN(0), func(r *wal.Record) error {
		logBytes += r.EncodedSize()
		return nil
	}); err != nil {
		return 0, err
	}
	e.ssd.Read(c, logBytes)
	// Each page the tail touches is read once; the fetch redoes its chain.
	touched := map[page.ID]bool{}
	if err := e.log.Range(ckpt, ^wal.LSN(0), func(r *wal.Record) error {
		id := page.ID(r.PageID)
		if r.Type != wal.TypeUpdate || touched[id] {
			return nil
		}
		touched[id] = true
		_, err := e.fetchPage(c, id)
		return err
	}); err != nil {
		return 0, err
	}
	if err := e.pool.FlushAll(c); err != nil {
		return 0, err
	}
	e.Restart(e.log.Decided())
	return c.Now() - start, nil
}
