// Package polardb implements the PolarDB architecture of §2.1: compute
// separated from a PolarFS-style storage layer — a POSIX-like distributed
// file system with 3-way ParallelRaft replication over RDMA. Unlike
// Aurora, PolarDB ships BOTH redo log records (at commit) and page images
// (checkpoint writes of dirty pages), trading network volume for a storage
// layer that never has to materialize pages from log. Commits ride RDMA
// and NVMe, so commit latency is low; E1 measures the byte cost.
package polardb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/disagglab/disagg/internal/buffer"
	"github.com/disagglab/disagg/internal/buffer/coherence"
	"github.com/disagglab/disagg/internal/checkpoint"
	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/raft"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/wal"
)

// Engine is the PolarDB-style engine.
type Engine struct {
	*engine.Pipeline
	cfg    *sim.Config
	layout heap.Layout
	// FS is the PolarFS log: raft-replicated records.
	FS    *raft.Group
	log   *wal.Log
	stats engine.Stats
	// pool is the buffer pool. Commit publishes version-stamp its frames:
	// with one pool there is no fan-out (the pool is excluded from its own
	// publishes), but a frame whose apply failed goes stale automatically
	// and is refetched with log replay.
	pool *buffer.Pool

	// CheckpointEvery flushes dirty pages to PolarFS every N commits
	// (page shipping; 0 disables).
	CheckpointEvery int

	mu          sync.Mutex
	pagesFS     map[page.ID][]byte // page images persisted in PolarFS
	fsCompactTo int                // raft commit index captured with the horizon
	commitCount atomic.Int64
}

// New creates the engine with a 3-way PolarFS group.
func New(cfg *sim.Config, layout heap.Layout, poolPages int) *Engine {
	e := &Engine{
		cfg:             cfg,
		layout:          layout,
		FS:              raft.NewGroup(cfg, 3),
		log:             wal.NewLog(),
		pagesFS:         make(map[page.ID][]byte),
		CheckpointEvery: 64,
	}
	e.pool = buffer.NewPool(cfg, poolPages, e.fetchPage, e.shipPage)
	e.Pipeline = engine.NewPipeline(cfg, "polardb", layout, e.log, &e.stats, e.hooks())
	e.Coherent(coherence.ModeBump)
	e.Cache("pool", e.pool)
	return e
}

// hooks is the engine's row of the commit-pipeline table: reads are served
// from the buffer pool over PolarFS images plus redo, the log becomes
// durable as one PolarFS raft entry, pages are materialised in the buffer
// pool and shipped to PolarFS as images, and the single cache is excluded
// from its own publishes.
func (e *Engine) hooks() engine.Hooks {
	return engine.Hooks{Read: e.read, Durable: e.durable, Apply: e.apply}
}

// Peer creates an additional compute node attached to root's shared
// substrate: the PolarFS raft group, the authoritative log (one LSN
// space), and the page-coherence directory are shared; the cache, lock
// table, page-image map, and stats are the peer's own. A peer that has
// not shipped a page reads it by formatting a fresh image and replaying
// the shared log's decided records onto it. Peers rely on the
// cluster router keeping concurrent writers to one key on one member
// (independent lock tables); peerID stripes transaction IDs.
func Peer(root *Engine, peerID, poolPages int) *Engine {
	e := &Engine{
		cfg:             root.cfg,
		layout:          root.layout,
		FS:              root.FS,
		log:             root.log,
		pagesFS:         make(map[page.ID][]byte),
		CheckpointEvery: root.CheckpointEvery,
	}
	e.pool = buffer.NewPool(e.cfg, poolPages, e.fetchPage, e.shipPage)
	e.Pipeline = root.Pipeline.Peer(peerID, &e.stats, e.hooks())
	e.Cache(fmt.Sprintf("peer%d", peerID), e.pool)
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "polardb" }

// EnableGroupCommit implements engine.GroupCommitter: commit-path raft
// appends share one replication round.
func (e *Engine) EnableGroupCommit(maxItems int, window time.Duration) {
	e.GroupCommit(maxItems, window)
}

// fetchPage reads a page image from PolarFS (RDMA + NVMe) and replays any
// newer log records onto it.
func (e *Engine) fetchPage(c *sim.Clock, id page.ID) ([]byte, error) {
	e.mu.Lock()
	img, ok := e.pagesFS[id]
	e.mu.Unlock()
	data := page.Alloc(e.layout.PageSize)
	if ok {
		copy(data, img)
	} else {
		e.layout.Format(data, id)
	}
	c.Advance(e.cfg.RDMA.Cost(len(data)) + e.cfg.SSDRead.Cost(len(data)))
	e.stats.StorageOps.Add(1)
	e.stats.NetBytes.Add(int64(len(data)))
	// Replay this page's newer records from the log: only decided ones,
	// which are durable, are on its chain.
	if err := e.log.RedoPage(uint64(id), wal.LSN(page.Wrap(data).LSN()), func(r *wal.Record) error {
		applied, err := e.Redo(data, r)
		if applied {
			c.Advance(e.cfg.CPU.Cost(len(r.After)))
		}
		return err
	}); err != nil {
		return nil, err
	}
	return data, nil
}

// shipPage persists a dirty page image into PolarFS (page shipping), stamped
// with what it is known to hold (engine.Pipeline.Capture). The one copy of
// the frame is the image pagesFS keeps and the payload raft replicates:
// neither writes to it again (a checkpoint's RedoImages replaces an image it
// changes).
func (e *Engine) shipPage(c *sim.Clock, id page.ID, data []byte) error {
	img := make([]byte, len(data))
	copy(img, data)
	e.Capture(img)
	e.mu.Lock()
	e.pagesFS[id] = img
	e.mu.Unlock()
	// 3-way replicated write over RDMA + NVMe.
	if _, err := e.FS.Append(c, img); err != nil {
		return err
	}
	e.stats.PageBytes.Add(int64(len(data)))
	e.stats.NetBytes.Add(int64(len(data)))
	e.stats.StorageOps.Add(1)
	return nil
}

// read is the pipeline's read hook: the buffer pool, filled by fetchPage.
func (e *Engine) read(c *sim.Clock, key uint64) ([]byte, error) {
	return e.ReadPool(c, e.pool, key)
}

// durable: log shipping at commit — the encoded records go to PolarFS as
// one raft entry, replicated leader -> 2 followers over the fabric. The
// entry takes the encoding, which nothing else holds.
func (e *Engine) durable(c *sim.Clock, recs []wal.Record) error {
	encoded := engine.Encode(recs)
	if _, err := e.FS.Append(c, encoded); err != nil {
		return err
	}
	n := int64(len(encoded))
	e.stats.LogBytes.Add(n)
	e.stats.NetBytes.Add(n * 3)
	return nil
}

// apply: the buffer pool materialises the pages (a frame whose apply
// failed, e.g. on an injected page-fetch fault, goes stale at the publish
// and is refetched with log replay); every CheckpointEvery commits the
// dirty pages are shipped to PolarFS. A failed flush does not fail the
// (already durable) commit — the pages stay dirty and the next checkpoint
// retries.
func (e *Engine) apply(c *sim.Clock, recs []wal.Record) error {
	e.ApplyPool(c, e.pool, recs)
	e.Applied(recs) // before the flush below captures the pages
	if n := e.commitCount.Add(1); e.CheckpointEvery > 0 && n%int64(e.CheckpointEvery) == 0 {
		_ = e.pool.FlushAll(c)
	}
	return nil
}

// Recover implements engine.Recoverer: elect a PolarFS leader if needed,
// learn the shared log's decided prefix (for a takeover node, commits other
// members made durable), then resume — pages and log are durable in
// PolarFS, and pages are read on demand with log replay folded into
// fetchPage.
func (e *Engine) Recover(c *sim.Clock) (time.Duration, error) {
	start := c.Now()
	if _, err := e.FS.Elect(c); err != nil {
		return 0, err
	}
	e.Restart(e.log.Decided())
	return c.Now() - start, nil
}

// Checkpoint implements engine.Checkpointer. PolarDB already ships page
// images, so the flush step redoes the retained log tail (at or below
// the horizon) directly into the PolarFS page images — covering commits
// whose cache applies failed and never got shipped — then runs the usual
// dirty-page flush. Truncation compacts the raft log up to the commit
// index captured with the horizon and drops the redo log below the
// horizon. Entries compacted out of raft are covered by the shipped
// images plus the retained redo tail. The checkpoint must run on the
// node that owns the shipped images; fleet peers share the coordinator
// so they observe one consistent horizon.
func (e *Engine) Checkpoint(c *sim.Clock) error {
	return e.Pipeline.Checkpoint(c, checkpoint.Round{
		Durable: func() wal.LSN {
			e.mu.Lock()
			defer e.mu.Unlock()
			e.fsCompactTo = e.FS.CommitIndex()
			return e.CheckpointLSN()
		},
		Flush: func(c *sim.Clock, h wal.LSN) error {
			e.mu.Lock()
			changed, err := e.RedoImages(e.pagesFS, e.RecoveryHorizon(), h)
			e.mu.Unlock()
			if err != nil {
				return err
			}
			n := e.layout.PageSize
			for range changed {
				c.Advance(e.cfg.RDMA.Cost(n) + e.cfg.SSDWrite.Cost(n))
				e.stats.PageBytes.Add(int64(n))
				e.stats.NetBytes.Add(int64(n))
				e.stats.StorageOps.Add(1)
			}
			// Regular page shipping of whatever is dirty in the cache; a
			// fault here is tolerable (the redo above already covered the
			// horizon) but surfaces as a failed round for the caller.
			return e.pool.FlushAll(c)
		},
		Truncate: func(c *sim.Clock, h wal.LSN) error {
			e.mu.Lock()
			idx := e.fsCompactTo
			e.mu.Unlock()
			if err := e.FS.CompactTo(c, idx); err != nil {
				return err
			}
			e.log.TruncateBefore(h + 1)
			return nil
		},
	})
}
