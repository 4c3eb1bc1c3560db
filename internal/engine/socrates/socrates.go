// Package socrates implements the Socrates (Azure SQL Hyperscale)
// architecture of §2.1: durability and availability are separated into
// four tiers — compute, the XLOG service (fast durable log), page servers
// (availability: serve pages, apply log asynchronously), and XStore (cheap
// durable object storage holding page snapshots). A commit only waits for
// the XLOG append; page servers and XStore are off the commit path, so
// durability does not require copies in fast storage and availability does
// not require a fixed replica count.
package socrates

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/disagglab/disagg/internal/buffer"
	"github.com/disagglab/disagg/internal/buffer/coherence"
	"github.com/disagglab/disagg/internal/checkpoint"
	"github.com/disagglab/disagg/internal/device"
	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/storagenode"
	"github.com/disagglab/disagg/internal/wal"
)

// Engine is the Socrates-style engine.
type Engine struct {
	*engine.Pipeline
	cfg    *sim.Config
	layout heap.Layout
	// XLOG is the dedicated durability tier.
	XLOG *storagenode.LogStore
	// PageServers provide availability; each holds the full page range.
	PageServers []*storagenode.Replica
	// XStore is the cheap long-term tier receiving page snapshots.
	XStore *device.ObjectStore

	log   *wal.Log
	stats engine.Stats
	// pool is the compute cache. Commit publishes version-stamp its frames;
	// a frame whose local apply failed keeps its old stamp and goes stale,
	// so the next reader refetches instead of seeing the pre-commit image.
	pool *buffer.Pool

	// SnapshotEvery pushes page snapshots to XStore every N commits
	// (0 disables).
	SnapshotEvery int

	commitCount atomic.Int64
}

// New creates the engine with nPageServers page servers.
func New(cfg *sim.Config, layout heap.Layout, poolPages, nPageServers int) *Engine {
	e := &Engine{
		cfg:           cfg,
		layout:        layout,
		XLOG:          storagenode.NewLogStore(cfg, storagenode.MediumSSD),
		XStore:        device.NewObjectStore(cfg),
		log:           wal.NewLog(),
		SnapshotEvery: 256,
	}
	for i := 0; i < nPageServers; i++ {
		e.PageServers = append(e.PageServers, storagenode.NewReplica(cfg, fmt.Sprintf("ps-%d", i), i%3, layout, 1+0.1*float64(i)))
	}
	e.pool = buffer.NewPool(cfg, poolPages, e.fetchPage, nil)
	e.Pipeline = engine.NewPipeline(cfg, "socrates", layout, e.log, &e.stats, e.hooks())
	e.Coherent(coherence.ModeBump)
	e.Cache("pool", e.pool)
	return e
}

// hooks is the engine's row of the commit-pipeline table: reads are served
// from the compute cache over the page servers, the log becomes
// durable in XLOG alone, page servers and the compute cache are brought
// up to date off the commit path, and the single cache is excluded from
// its own publishes.
func (e *Engine) hooks() engine.Hooks {
	return engine.Hooks{Read: e.read, Durable: e.durable, Apply: e.apply}
}

// Peer creates an additional compute node attached to root's shared
// substrate: XLOG, page servers, XStore, the authoritative log (one LSN
// space), and the page-coherence directory are shared; the cache, lock
// table, and stats are the peer's own. Peers rely on the cluster router
// keeping concurrent writers to one key on one member (independent lock
// tables); peerID stripes transaction IDs. A fresh peer is cold until
// Recover learns the XLOG high-water mark.
func Peer(root *Engine, peerID, poolPages int) *Engine {
	e := &Engine{
		cfg:           root.cfg,
		layout:        root.layout,
		XLOG:          root.XLOG,
		PageServers:   root.PageServers,
		XStore:        root.XStore,
		log:           root.log,
		SnapshotEvery: root.SnapshotEvery,
	}
	e.pool = buffer.NewPool(e.cfg, poolPages, e.fetchPage, nil)
	e.Pipeline = root.Pipeline.Peer(peerID, &e.stats, e.hooks())
	e.Cache(fmt.Sprintf("peer%d", peerID), e.pool)
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "socrates" }

// EnableGroupCommit implements engine.GroupCommitter: commits share XLOG
// flushes.
func (e *Engine) EnableGroupCommit(maxItems int, window time.Duration) {
	e.GroupCommit(maxItems, window)
}

// fetchPage reads from the first healthy, fresh-enough page server.
func (e *Engine) fetchPage(c *sim.Clock, id page.ID) ([]byte, error) {
	min := e.DurableLSN()
	var lastErr error = engine.ErrUnavailable
	for attempt := 0; attempt < 2; attempt++ {
		for _, ps := range e.PageServers {
			data, err := ps.ReadPage(c, id, min)
			if err == nil {
				e.stats.StorageOps.Add(1)
				e.stats.NetBytes.Add(int64(len(data)))
				return data, nil
			}
			lastErr = err
		}
		// Dropped background dissemination can leave every page server
		// with the same log hole; re-ship the delta from the
		// authoritative log (what XLOG replay does) and retry once.
		bg := c.Fork()
		storagenode.Converge(&bg, e.PageServers, e.log, 0)
	}
	return nil, lastErr
}

// read is the pipeline's read hook: the compute cache, filled by fetchPage.
func (e *Engine) read(c *sim.Clock, key uint64) ([]byte, error) {
	return e.ReadPool(c, e.pool, key)
}

// durable: the commit waits ONLY for the XLOG append.
func (e *Engine) durable(c *sim.Clock, recs []wal.Record) error {
	if err := e.XLOG.Append(c, recs); err != nil {
		return err
	}
	n := int64(wal.Size(recs))
	e.stats.LogBytes.Add(n)
	e.stats.NetBytes.Add(n)
	return nil
}

// apply: availability. XLOG disseminates to the page servers off the
// commit path (the writer does NOT pay this fan-out — Socrates's advantage
// over Taurus's writer-driven distribution); the compute cache keeps its
// own copies current; every SnapshotEvery commits the written pages'
// images go to XStore.
func (e *Engine) apply(c *sim.Clock, recs []wal.Record) error {
	var bg sim.Clock
	for _, ps := range e.PageServers {
		bg = c.Fork()
		ps.Ingest(&bg, recs)
	}
	e.ApplyCached(c, e.pool, recs)
	if n := e.commitCount.Add(1); e.SnapshotEvery > 0 && n%int64(e.SnapshotEvery) == 0 {
		e.snapshotToXStore(c, recs)
	}
	return nil
}

// snapshotToXStore pushes current page images of recently written pages to
// XStore — the extra data movement the tutorial notes Socrates may incur.
// XStore keeps the ReadPage copy it is handed and releases the snapshot of
// the page it replaces.
func (e *Engine) snapshotToXStore(c *sim.Clock, recs []wal.Record) {
	seen := map[page.ID]bool{}
	for _, r := range recs[:len(recs)-1] {
		id := page.ID(r.PageID)
		if seen[id] {
			continue
		}
		seen[id] = true
		bg := c.Fork() // read the page server beside the commit
		data, err := e.PageServers[0].ReadPage(&bg, id, 0)
		if err != nil {
			continue
		}
		e.XStore.Put(c, fmt.Sprintf("page/%d", id), data)
		e.stats.PageBytes.Add(int64(len(data)))
		e.stats.NetBytes.Add(int64(len(data)))
	}
}

// Close implements io.Closer: the compute node retires and its caches hand
// their frames back (engine.Pipeline.Retire). The last member of the
// substrate to close also empties the XStore that New built, handing its
// page snapshots back.
func (e *Engine) Close() error {
	if e.Retire() {
		e.XStore.Release()
	}
	return nil
}

// Recover implements engine.Recoverer: the new compute node learns the
// durable LSN from XLOG; page servers keep serving (availability tier
// unaffected by compute failure).
func (e *Engine) Recover(c *sim.Clock) (time.Duration, error) {
	start := c.Now()
	// One metadata round trip to XLOG.
	e.cfg.RPC(c, 64)
	e.Restart(e.XLOG.HighLSN())
	return c.Now() - start, nil
}

// Checkpoint implements engine.Checkpointer. In Socrates the durability
// tier (XLOG) must stay small — it is the expensive fast tier — so the
// checkpoint drives page servers to absorb the durable prefix, stamps
// them with the horizon, and truncates XLOG (a fabric RPC that can fail
// and is retried next round) plus the compute-side log below it.
func (e *Engine) Checkpoint(c *sim.Clock) error {
	return e.Pipeline.Checkpoint(c, checkpoint.Round{
		Flush: func(c *sim.Clock, h wal.LSN) error {
			if advanced, _ := storagenode.Converge(c, e.PageServers, e.log, h); advanced == 0 {
				return storagenode.ErrNoQuorum
			}
			return nil
		},
		Truncate: func(c *sim.Clock, h wal.LSN) error {
			if err := e.XLOG.TruncateBefore(c, h+1); err != nil {
				return err
			}
			e.log.TruncateBefore(h + 1)
			return nil
		},
	})
}
