// Package aurora implements the Aurora architecture of §2.1: software-level
// disaggregation with "the log is the database". The single writer node
// ships only redo log records — never pages — to a 6-replica / 3-AZ
// storage volume with a 4/6 write quorum; storage nodes materialize pages
// from the log asynchronously. Reader replicas share the same volume and
// serve reads at their replica LSN. Crash recovery is nearly instant: a
// new writer only needs the durable volume LSN (no redo replay on the
// compute node).
package aurora

import (
	"fmt"
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

// Engine is the Aurora-style engine: one writer, optional readers, shared
// quorum volume. Its compute node is the writer: a crash loses the writer
// cache (Pool), and the volume and its materialised pages survive.
// DurableLSN is the write-quorum-durable LSN.
type Engine struct {
	*engine.Pipeline
	cfg    *sim.Config
	layout heap.Layout
	Volume *storagenode.Volume
	log    *wal.Log
	stats  engine.Stats

	// pool is the writer-node cache, the node's own tier: commit publishes
	// fan invalidation notices to the reader caches (riding the log stream)
	// and version-stamp every cached frame, but skip the writer, which
	// applies in place.
	pool    *buffer.Pool
	readers []*buffer.Pool
	// readerReads[i] is reader i's read path, built once beside its cache.
	readerReads []engine.ReadFunc
}

// New creates the engine with the canonical volume, a writer cache of
// poolPages frames, and `readers` reader replicas with caches of the same
// size.
func New(cfg *sim.Config, layout heap.Layout, poolPages, readers int) *Engine {
	e := &Engine{
		cfg:    cfg,
		layout: layout,
		Volume: storagenode.NewAuroraVolume(cfg, layout),
		log:    wal.NewLog(),
	}
	e.pool = buffer.NewPool(cfg, poolPages, e.fetchPage, nil)
	for i := 0; i < readers; i++ {
		rp := buffer.NewPool(cfg, poolPages, e.fetchPage, nil)
		e.readers = append(e.readers, rp)
		e.readerReads = append(e.readerReads, func(c *sim.Clock, key uint64) ([]byte, error) {
			return e.ReadPool(c, rp, key)
		})
	}
	e.Pipeline = engine.NewPipeline(cfg, "aurora", layout, e.log, &e.stats, e.hooks())
	e.Coherent(coherence.ModeInvalidate)
	e.Cache("writer", e.pool)
	for i, rp := range e.readers {
		e.Cache(fmt.Sprintf("reader%d", i), rp)
	}
	return e
}

// hooks is the engine's row of the commit-pipeline table: reads are served
// from the writer's cache over the volume, the log becomes durable on the
// write quorum, only the writer's cached copies need applying (storage
// materialises from the log), and the directory fans invalidations to every
// other registered cache. Read-only work needs only the read quorum; a
// commit with writes needs the write quorum, and a volume below it refuses
// the append before delivering anything — an ordinary failed prepare.
func (e *Engine) hooks() engine.Hooks {
	return engine.Hooks{Read: e.read, Durable: e.durable, Apply: e.apply}
}

// Peer creates an additional compute node attached to root's shared
// substrate: it shares the quorum volume, the authoritative log (one LSN
// space), and the page-coherence directory, but owns a fresh cache, lock
// table, and stats — the disaggregation elasticity story, where a
// scaled-out node is stateless and attaches in seconds. The peer's pool
// registers as a coherence tier with the ROOT's directory, so commits on
// any member invalidate every member's cached copies. Correctness
// contract: peers have independent lock tables, so a router must keep
// concurrent writers to the same key on one member (the cluster shard map
// does). peerID stripes transaction IDs so members never collide in the
// shared log.
func Peer(root *Engine, peerID, poolPages int) *Engine {
	e := &Engine{
		cfg:    root.cfg,
		layout: root.layout,
		Volume: root.Volume,
		log:    root.log,
	}
	e.pool = buffer.NewPool(e.cfg, poolPages, e.fetchPage, nil)
	e.Pipeline = root.Pipeline.Peer(peerID, &e.stats, e.hooks())
	e.Cache(fmt.Sprintf("peer%d", peerID), e.pool)
	// A fresh node knows nothing durable yet; Recover (the fleet's warm-up
	// step) learns the volume's high LSN. Until then reads float at LSN 0,
	// which is safe (floors only rise) but cold.
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "aurora" }

// EnableGroupCommit implements engine.GroupCommitter: commit-path volume
// appends ride a shared quorum flush.
func (e *Engine) EnableGroupCommit(maxItems int, window time.Duration) {
	e.GroupCommit(maxItems, window)
}

// fetchPage is every cache's fetcher: read the page from the volume at or
// above the node's read floor, which a writer crash leaves in place.
func (e *Engine) fetchPage(c *sim.Clock, id page.ID) ([]byte, error) {
	data, err := e.Volume.ReadPage(c, id, e.ReadFloor())
	if err != nil {
		// Injected drops can leave the same log hole on every
		// replica (no peer can fill it); heal from the writer's
		// authoritative log and retry once.
		bg := c.Fork()
		e.Volume.Heal(&bg, e.log)
		data, err = e.Volume.ReadPage(c, id, e.ReadFloor())
	}
	if err != nil {
		return nil, err
	}
	e.stats.StorageOps.Add(1)
	e.stats.NetBytes.Add(int64(len(data)))
	return data, nil
}

// read is the pipeline's read hook: the writer cache, filled by fetchPage.
func (e *Engine) read(c *sim.Clock, key uint64) ([]byte, error) {
	return e.ReadPool(c, e.pool, key)
}

// durable ships ONLY log records (log-as-the-database) to the volume and
// returns once the write quorum holds them. The writer fans the records
// out to every alive replica (6-way under full health); all copies cross
// the network.
func (e *Engine) durable(c *sim.Clock, recs []wal.Record) error {
	if err := e.Volume.AppendLog(c, recs); err != nil {
		return err
	}
	fanout := int64(e.Volume.Alive())
	n := int64(wal.Size(recs))
	e.stats.LogBytes.Add(n)
	e.stats.NetBytes.Add(n * fanout)
	return nil
}

// apply keeps the writer's own cached copies current; pages materialise
// lazily in storage. The publish that follows fans invalidation notices
// (riding the log stream) to every reader cache holding a written page —
// without it a reader frame cached before the commit serves the old
// version forever: not replica lag but a permanently stale read, which the
// history checker flags as a session-order cycle.
func (e *Engine) apply(c *sim.Clock, recs []wal.Record) error {
	e.ApplyCached(c, e.pool, recs)
	return nil
}

// ReadReplica implements engine.Reader: a read-only transaction on reader
// replica idx, served from its cache backed by the shared volume. Replica
// reads follow the same accounting invariant as Execute: every attempt
// lands in exactly one of Commits/Aborts.
func (e *Engine) ReadReplica(c *sim.Clock, idx int, fn func(tx engine.Tx) error) error {
	return e.ReadOnly(c, e.readerReads[idx], fn)
}

// Recover implements engine.Recoverer: Aurora recovery — poll a read
// quorum for the durable volume LSN; no compute-side redo (storage nodes
// materialize on demand).
func (e *Engine) Recover(c *sim.Clock) (time.Duration, error) {
	start := c.Now()
	lsn, err := e.Volume.FindHighLSN(c)
	if err != nil {
		return 0, err
	}
	e.Restart(lsn)
	return c.Now() - start, nil
}

// Checkpoint implements engine.Checkpointer. Aurora's checkpoint is a
// storage-side operation: the writer nudges every alive replica to
// materialize the log prefix at or below the durable LSN into pages
// (Heal), publishes the horizon to the volume, and only then drops its
// own retained log tail below the horizon. Replicas that are down during
// the round adopt the horizon later via RepairReplica's checkpoint-image
// copy, so truncation never strands them.
func (e *Engine) Checkpoint(c *sim.Clock) error {
	return e.Pipeline.Checkpoint(c, checkpoint.Round{
		Flush: func(c *sim.Clock, h wal.LSN) error {
			advanced, _ := storagenode.Converge(c, e.Volume.Replicas, e.log, h)
			if advanced < e.Volume.WriteQ {
				// Fewer than a write quorum hold the checkpoint; keep the
				// full tail so repair can still replay from the log.
				return storagenode.ErrNoQuorum
			}
			return nil
		},
	})
}

// Log exposes the authoritative log (replica repair, tests).
func (e *Engine) Log() *wal.Log { return e.log }
