// Package taurus implements the Taurus architecture of §2.1: logs and
// pages get different replication and consistency treatments because their
// access patterns differ. Log batches are synchronously replicated to a
// small group of log stores (durability), while each page-store write goes
// to only ONE page store — the writer stays frugal — and the page stores
// converge through gossip. Readers route to a page store fresh enough for
// their LSN.
package taurus

import (
	"sync/atomic"
	"time"

	"github.com/disagglab/disagg/internal/buffer"
	"github.com/disagglab/disagg/internal/buffer/coherence"
	"github.com/disagglab/disagg/internal/checkpoint"
	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/storagenode"
	"github.com/disagglab/disagg/internal/wal"
)

// Engine is the Taurus-style engine.
type Engine struct {
	*engine.Pipeline
	cfg    *sim.Config
	layout heap.Layout
	// LogStores is the synchronous durability group (3 stores, quorum 2).
	LogStores *storagenode.LogStoreGroup
	// PageStores converge via gossip.
	PageStores *storagenode.PageStoreGroup

	log   *wal.Log
	stats engine.Stats
	// pool is the compute cache. Commit publishes version-stamp its frames;
	// a frame whose local apply failed keeps its old stamp and goes stale,
	// so the next reader refetches instead of seeing the pre-commit image.
	pool *buffer.Pool

	// GossipEvery runs one anti-entropy round every N commits.
	GossipEvery int

	commitCount atomic.Int64
}

// New creates the engine with nPageStores page stores.
func New(cfg *sim.Config, layout heap.Layout, poolPages, nPageStores int) *Engine {
	log := wal.NewLog()
	e := &Engine{
		cfg:         cfg,
		layout:      layout,
		LogStores:   storagenode.NewLogStoreGroup(cfg, 3, 2, storagenode.MediumSSD),
		PageStores:  storagenode.NewPageStoreGroup(cfg, nPageStores, layout, log),
		log:         log,
		GossipEvery: 32,
	}
	e.pool = buffer.NewPool(cfg, poolPages, e.fetchPage, nil)
	e.Pipeline = engine.NewPipeline(cfg, "taurus", layout, e.log, &e.stats,
		engine.Hooks{Read: e.read, Durable: e.durable, Apply: e.apply})
	e.Coherent(coherence.ModeBump)
	e.Cache("pool", e.pool)
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "taurus" }

// EnableGroupCommit implements engine.GroupCommitter: commits share
// quorum log-store flushes. The frugal per-commit page-store write stays
// per transaction.
func (e *Engine) EnableGroupCommit(maxItems int, window time.Duration) {
	e.GroupCommit(maxItems, window)
}

// fetchPage reads from a fresh-enough page store; if gossip lags it runs a
// round on demand (reader-triggered catch-up).
func (e *Engine) fetchPage(c *sim.Clock, id page.ID) ([]byte, error) {
	min := e.DurableLSN()
	for try := 0; try < 4; try++ {
		data, err := e.PageStores.ReadPage(c, id, min)
		if err == nil {
			e.stats.StorageOps.Add(1)
			e.stats.NetBytes.Add(int64(len(data)))
			return data, nil
		}
		if err != storagenode.ErrStaleReplica {
			return nil, err
		}
		// No store fresh enough: trigger gossip (charged to the
		// waiting reader — staleness has a visible cost).
		e.PageStores.GossipRound(c)
	}
	return nil, storagenode.ErrStaleReplica
}

// read is the pipeline's read hook: the compute cache, filled by fetchPage.
func (e *Engine) read(c *sim.Clock, key uint64) ([]byte, error) {
	return e.ReadPool(c, e.pool, key)
}

// durable: quorum append to the log stores; all (3) receive the batch.
func (e *Engine) durable(c *sim.Clock, recs []wal.Record) error {
	if err := e.LogStores.Append(c, recs); err != nil {
		return err
	}
	copies := int64(len(e.LogStores.Stores))
	n := int64(wal.Size(recs))
	e.stats.LogBytes.Add(n)
	e.stats.NetBytes.Add(n * copies)
	return nil
}

// apply: frugal page distribution — the writer sends the records to
// exactly ONE page store (Taurus's writer-load optimization vs Aurora's
// 6-way fan-out), charged to the commit, and the stores converge by
// gossip. The commit is durable once the log-store quorum has it, so a
// failed page-store write leaves it durable but unacknowledged. The
// compute cache then drops the pages it wrote, and the next reader fetches
// them from a page store at the durable LSN, which gossip brings the
// records to. Leaving the frames to go stale at the publish is not enough:
// a later commit riding the same group flush can mutate such a frame
// first, stamping it past this commit, and it would then validate without
// this commit's write for good.
func (e *Engine) apply(c *sim.Clock, recs []wal.Record) error {
	if err := e.PageStores.WriteToOne(c, recs); err != nil {
		for i := range recs[:len(recs)-1] {
			e.pool.Invalidate(page.ID(recs[i].PageID))
		}
		return err
	}
	e.stats.NetBytes.Add(int64(wal.Size(recs)))
	e.ApplyCached(c, e.pool, recs)
	if n := e.commitCount.Add(1); e.GossipEvery > 0 && n%int64(e.GossipEvery) == 0 {
		// Background anti-entropy (not charged to the writer).
		bg := c.Fork()
		e.PageStores.GossipRound(&bg)
	}
	return nil
}

// Recover implements engine.Recoverer: learn the quorum-durable LSN from
// the log stores and resume; page stores catch up by gossip.
func (e *Engine) Recover(c *sim.Clock) (time.Duration, error) {
	start := c.Now()
	e.cfg.RPC(c, 64)
	e.Restart(e.LogStores.HighLSN())
	return c.Now() - start, nil
}

// Checkpoint implements engine.Checkpointer. Taurus checkpoints both
// tiers: the page stores converge on the durable prefix (gossip, charged
// to the checkpoint's clock — anti-entropy here is checkpoint work, not
// a reader's problem) and adopt the horizon; then the quorum log stores
// and the authoritative log drop everything below it. The log-store
// truncation is a fabric RPC and can fail under injected faults — the
// coordinator surfaces the error after publishing the horizon, and the
// next round retries the (idempotent) truncation.
func (e *Engine) Checkpoint(c *sim.Clock) error {
	return e.Pipeline.Checkpoint(c, checkpoint.Round{
		Flush: func(c *sim.Clock, h wal.LSN) error {
			e.PageStores.GossipRound(c)
			if advanced, _ := storagenode.Converge(c, e.PageStores.Stores, nil, h); advanced == 0 {
				return storagenode.ErrNoQuorum
			}
			return nil
		},
		Truncate: func(c *sim.Clock, h wal.LSN) error {
			if err := e.LogStores.TruncateBefore(c, h+1); err != nil {
				return err
			}
			e.log.TruncateBefore(h + 1)
			return nil
		},
	})
}

// MaxPageLag exposes the page-store staleness metric.
func (e *Engine) MaxPageLag() wal.LSN { return e.PageStores.MaxLag() }
