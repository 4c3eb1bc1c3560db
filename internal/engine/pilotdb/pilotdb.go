// Package pilotdb implements the PilotDB architecture of §2.3: a
// disaggregated PERSISTENT MEMORY layer holds the log, giving transactions
// near-memory-speed persistence at a fraction of DRAM-pool cost. Its two
// signature optimizations are modeled as switchable options so E8 can
// ablate them:
//
//   - Compute-node-driven logging: the compute node appends log entries to
//     remote PM with one-sided RDMA (no PM-server CPU on the commit path).
//     The ablation uses server-driven two-sided appends instead.
//   - Optimistic page reads: the compute node reads pages from the page
//     store without coordinating on freshness, validates the page LSN, and
//     repairs a stale page by fetching the log tail from PM and replaying
//     it locally. The ablation forces coordinated (fresh) reads.
package pilotdb

import (
	"cmp"
	"errors"
	"slices"
	"sync"
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

// Options toggle PilotDB's two optimizations.
type Options struct {
	ComputeDrivenLogging bool
	OptimisticReads      bool
}

// Pilot returns the full PilotDB configuration.
func Pilot() Options { return Options{ComputeDrivenLogging: true, OptimisticReads: true} }

// Naive returns the server-driven, coordinated-read baseline.
func Naive() Options { return Options{} }

// Engine is the PilotDB-style engine.
type Engine struct {
	*engine.Pipeline
	cfg    *sim.Config
	layout heap.Layout
	opt    Options
	// PMLog is the disaggregated persistent-memory log layer.
	PMLog *storagenode.LogStore
	// PageStore materializes pages asynchronously.
	PageStore *storagenode.Replica

	log   *wal.Log
	stats engine.Stats
	// pool is the compute cache. Commit publishes bump per-page versions in
	// the node's directory (ModeBump — optimistic readers validate lazily),
	// and the pool validates cached frames against it, so the pool read path
	// is also the optimistic-read validation.
	pool *buffer.Pool

	// Validations / Repairs count optimistic-read outcomes.
	Validations atomic.Int64
	Repairs     atomic.Int64

	// LagEvery delays page-store ingestion by one batch every N commits
	// to surface stale optimistic reads (0 = always lag by one commit).
	mu      sync.Mutex
	pending []wal.Record // records not yet given to the page store
}

// New creates the engine.
func New(cfg *sim.Config, layout heap.Layout, poolPages int, opt Options) *Engine {
	e := &Engine{
		cfg:       cfg,
		layout:    layout,
		opt:       opt,
		PMLog:     storagenode.NewLogStore(cfg, storagenode.MediumPM),
		PageStore: storagenode.NewReplica(cfg, "ps-0", 0, layout, 1),
		log:       wal.NewLog(),
	}
	e.pool = buffer.NewPool(cfg, poolPages, e.fetchPage, nil)
	e.Pipeline = engine.NewPipeline(cfg, "pilotdb", layout, e.log, &e.stats,
		engine.Hooks{Read: e.read, Durable: e.durable, Apply: e.apply})
	e.Coherent(coherence.ModeBump)
	e.Cache("pool", e.pool)
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string {
	if e.opt.ComputeDrivenLogging && e.opt.OptimisticReads {
		return "pilotdb"
	}
	return "pilotdb-naive"
}

// expectedLSN is the LSN a fresh copy of the page must carry: the highest
// published update-record LSN for the page (the directory version).
func (e *Engine) expectedLSN(id page.ID) wal.LSN {
	return wal.LSN(e.Dir().Version(id))
}

// fetchPage is the optimistic (or coordinated) page read.
func (e *Engine) fetchPage(c *sim.Clock, id page.ID) ([]byte, error) {
	want := e.expectedLSN(id)
	if e.opt.OptimisticReads {
		// Aggressive read: no freshness coordination.
		data, err := e.PageStore.ReadPage(c, id, 0)
		if err != nil {
			return nil, err
		}
		e.stats.StorageOps.Add(1)
		e.stats.NetBytes.Add(int64(len(data)))
		e.Validations.Add(1)
		if wal.LSN(page.Wrap(data).LSN()) >= want {
			return data, nil
		}
		// Stale: repair locally from the PM log's per-page chain.
		e.Repairs.Add(1)
		recs, err := e.PMLog.SincePage(c, uint64(id), wal.LSN(page.Wrap(data).LSN()))
		if errors.Is(err, wal.ErrTruncated) {
			// The repair window starts below the PM log's truncation
			// floor: the per-page chain cannot reconstruct the gap.
			// Fall back to a coordinated read — converge the page store
			// from the authoritative log and fetch a fresh image.
			e.PageStore.CatchUpFromLog(c, e.log)
			data, err = e.PageStore.ReadPage(c, id, want)
			if err != nil {
				return nil, err
			}
			return data, nil
		}
		if err != nil {
			return nil, err
		}
		// The PM log stores concurrent commits in arrival order; the redo
		// rule's page-LSN guard needs them ascending.
		slices.SortFunc(recs, func(a, b wal.Record) int { return cmp.Compare(a.LSN, b.LSN) })
		for i := range recs {
			applied, err := e.Redo(data, &recs[i])
			if applied {
				c.Advance(e.cfg.CPU.Cost(len(recs[i].After)))
			}
			if err != nil {
				return nil, err
			}
		}
		return data, nil
	}
	// Coordinated read: push pending records to the page store first
	// (synchronously, charged to the reader), then read fresh.
	e.mu.Lock()
	pend := e.pending
	e.pending = nil
	e.mu.Unlock()
	if len(pend) > 0 {
		if err := e.PageStore.Ingest(c, pend); err != nil {
			// The delivery failed (injected drop/tear): the records are
			// still owed to the page store — re-queue them.
			e.mu.Lock()
			e.pending = append(pend, e.pending...)
			e.mu.Unlock()
			return nil, err
		}
	}
	data, err := e.PageStore.ReadPage(c, id, want)
	if err != nil {
		// Dropped asynchronous deliveries can leave the store
		// permanently stale; re-ship the delta from the authoritative
		// log and retry once.
		bg := c.Fork()
		e.PageStore.CatchUpFromLog(&bg, e.log)
		data, err = e.PageStore.ReadPage(c, id, want)
	}
	if err != nil {
		return nil, err
	}
	e.stats.StorageOps.Add(1)
	e.stats.NetBytes.Add(int64(len(data)))
	return data, nil
}

// read is the pipeline's read hook: the compute cache, filled by fetchPage.
func (e *Engine) read(c *sim.Clock, key uint64) ([]byte, error) {
	return e.ReadPool(c, e.pool, key)
}

// durable: persistence on the PM layer.
func (e *Engine) durable(c *sim.Clock, recs []wal.Record) error {
	n := wal.Size(recs)
	if e.opt.ComputeDrivenLogging {
		// One-sided RDMA append (the LogStore PM medium charges
		// exactly that).
		if err := e.PMLog.Append(c, recs); err != nil {
			return err
		}
	} else {
		// Server-driven: a two-sided RPC engages the PM server CPU.
		c.Advance(e.cfg.RDMARPC.Cost(n) + e.cfg.RemoteCPU)
		server := c.Fork()
		if err := e.PMLog.Append(&server, recs); err != nil {
			return err
		}
		c.Advance(e.cfg.PMWrite.Cost(n))
	}
	e.stats.LogBytes.Add(int64(n))
	e.stats.NetBytes.Add(int64(n))
	return nil
}

// apply: page-store ingestion is asynchronous — the previous pending
// batch goes out now (background), the new one waits, so optimistic
// readers genuinely race materialization. The compute cache keeps its own
// copies current; a frame that missed the update goes stale at the publish
// and the next read repairs it via fetchPage. recs is the pipeline's scratch,
// rewritten by the next transaction: the batch that waits is a copy.
func (e *Engine) apply(c *sim.Clock, recs []wal.Record) error {
	e.mu.Lock()
	prev := e.pending
	e.pending = slices.Clone(recs)
	e.mu.Unlock()
	if len(prev) > 0 {
		bg := c.Fork()
		e.PageStore.Ingest(&bg, prev)
	}
	e.ApplyCached(c, e.pool, recs)
	return nil
}

// Recover implements engine.Recoverer: transactions persisted in the PM
// log survive; the compute node learns the durable LSN with one PM read.
func (e *Engine) Recover(c *sim.Clock) (time.Duration, error) {
	start := c.Now()
	c.Advance(e.cfg.RDMA.Cost(64))
	e.Restart(e.PMLog.HighLSN())
	return c.Now() - start, nil
}

// Checkpoint implements engine.Checkpointer. The PM log is the scarce
// fast tier, so the checkpoint drains the asynchronous page-store
// pipeline (the pending batch plus any dropped deliveries), stamps the
// store with the horizon, and truncates the PM log — a fabric RPC that
// can fail and is retried next round — plus the compute-side log.
func (e *Engine) Checkpoint(c *sim.Clock) error {
	return e.Pipeline.Checkpoint(c, checkpoint.Round{
		Flush: func(c *sim.Clock, h wal.LSN) error {
			e.mu.Lock()
			pend := e.pending
			e.pending = nil
			e.mu.Unlock()
			if len(pend) > 0 {
				if err := e.PageStore.Ingest(c, pend); err != nil {
					e.mu.Lock()
					e.pending = append(pend, e.pending...)
					e.mu.Unlock()
					return err
				}
			}
			if e.PageStore.Failed() {
				return storagenode.ErrStaleReplica
			}
			e.PageStore.CatchUpFromLog(c, e.log)
			e.PageStore.AdvanceHorizon(c, h)
			return nil
		},
		Truncate: func(c *sim.Clock, h wal.LSN) error {
			if err := e.PMLog.TruncateBefore(c, h+1); err != nil {
				return err
			}
			e.log.TruncateBefore(h + 1)
			return nil
		},
	})
}
