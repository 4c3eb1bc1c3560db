// Package legobase implements the LegoBase architecture of §3.1: a
// cloud-native engine for memory disaggregation with (1) two-level cache
// management — a small compute-local LRU in front of a large remote-memory
// LRU — and (2) a two-tier ARIES protocol that checkpoints to remote
// memory frequently and to storage rarely, so a crashed compute node
// recovers from remote memory (fast) instead of replaying against storage
// (slow).
package legobase

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/disagglab/disagg/internal/buffer"
	"github.com/disagglab/disagg/internal/buffer/coherence"
	"github.com/disagglab/disagg/internal/checkpoint"
	"github.com/disagglab/disagg/internal/device"
	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/memnode"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/wal"
)

// Engine is the LegoBase-style engine.
type Engine struct {
	*engine.Pipeline
	cfg    *sim.Config
	layout heap.Layout
	// Tiers is the two-level cache (local LRU + remote-memory LRU). Commit
	// publishes version-stamp both tiers (ModeBump: lazy validation): a
	// remote copy that missed an update goes stale and is dropped on its
	// next validated read, falling through to the log-replaying storage
	// fetch.
	Tiers   *buffer.TwoTier
	MemNode *memnode.Pool
	ssd     *device.SSD
	log     *wal.Log
	stats   engine.Stats

	// CheckpointRemoteEvery / CheckpointStorageEvery control the two
	// ARIES tiers (commit counts; 0 disables).
	CheckpointRemoteEvery  int
	CheckpointStorageEvery int

	mu sync.Mutex
	// disk is durable page storage.
	disk map[page.ID][]byte
	// remoteCkptLSN / storageCkptLSN are the two checkpoint horizons.
	remoteCkptLSN  wal.LSN
	storageCkptLSN wal.LSN
	commitCount    atomic.Int64
}

// New creates the engine: a local cache of localPages frames backed by a
// remote pool of remotePages frames backed by SSD storage.
func New(cfg *sim.Config, layout heap.Layout, localPages, remotePages int) *Engine {
	mn := memnode.New(cfg, "lego-mem", remotePages*layout.PageSize+1024)
	e := &Engine{
		cfg:                    cfg,
		layout:                 layout,
		MemNode:                mn,
		ssd:                    device.NewSSD(cfg, 32),
		log:                    wal.NewLog(),
		disk:                   make(map[page.ID][]byte),
		CheckpointRemoteEvery:  32,
		CheckpointStorageEvery: 512,
	}
	base, err := mn.Alloc(uint64(remotePages * layout.PageSize))
	if err != nil {
		panic("legobase: remote pool sizing bug: " + err.Error())
	}
	remote := buffer.NewRemotePool(cfg, mn.Node(), nil, base, remotePages, layout.PageSize)
	e.Tiers = buffer.NewTwoTier(cfg, localPages, remote, e.fetchFromStorage)
	e.Pipeline = engine.NewPipeline(cfg, "legobase", layout, e.log, &e.stats,
		engine.Hooks{Read: e.readKey, Durable: e.durable, Apply: e.apply})
	e.Coherent(coherence.ModeBump)
	// Both cache tiers register with the directory themselves, so the node
	// has no own tier and none is excluded from a publish: the local tier's
	// frames are re-stamped by the apply and stay fresh; a remote-tier copy
	// that predates the commit goes stale and is dropped on its next
	// validated read.
	e.Tiers.SetCoherence(e.Dir(), "legobase", engine.PageLSN)
	e.Tiers.Capture = e.Capture
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "legobase" }

func (e *Engine) fetchFromStorage(c *sim.Clock, id page.ID) ([]byte, error) {
	e.mu.Lock()
	data, ok := e.disk[id]
	e.mu.Unlock()
	out := page.Alloc(e.layout.PageSize)
	if ok {
		copy(out, data)
	} else {
		e.layout.Format(out, id)
	}
	// Storage is network-attached (TCP) + SSD.
	e.cfg.RPC(c, len(out))
	e.ssd.Read(c, len(out))
	e.stats.StorageOps.Add(1)
	e.stats.NetBytes.Add(int64(len(out)))
	// Replay this page's log chain newer than the page image.
	if err := e.log.RedoPage(uint64(id), wal.LSN(page.Wrap(out).LSN()), func(r *wal.Record) error {
		applied, err := e.Redo(out, r)
		if applied {
			c.Advance(e.cfg.CPU.Cost(len(r.After)))
		}
		return err
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// readKey is the pipeline's read hook: the two-level cache, filled from
// storage.
func (e *Engine) readKey(c *sim.Clock, key uint64) (val []byte, err error) {
	rerr := e.Tiers.Read(c, e.layout.PageOf(key), func(data []byte) {
		val, err = e.layout.ReadValue(data, key)
	})
	if rerr != nil {
		return nil, rerr
	}
	return val, err
}

// durable: network round trip to the log + SSD append.
func (e *Engine) durable(c *sim.Clock, recs []wal.Record) error {
	n := wal.Size(recs)
	e.cfg.RPC(c, n)
	e.ssd.Write(c, n)
	e.stats.LogBytes.Add(int64(n))
	e.stats.NetBytes.Add(int64(n))
	return nil
}

// apply writes the commit through the two-level cache, then runs the two
// ARIES checkpoint tiers on their commit-count cadence. A failed tier
// apply (e.g. an injected fault on the remote pull) leaves the commit
// durable in the log but unapplied to the cache hierarchy.
func (e *Engine) apply(c *sim.Clock, recs []wal.Record) error {
	lsn := uint64(recs[len(recs)-1].LSN)
	for i := range recs[:len(recs)-1] {
		r := &recs[i]
		if err := e.Tiers.Mutate(c, page.ID(r.PageID), func(data []byte) error {
			return e.layout.WriteValue(data, r.Key, r.After, lsn)
		}); err != nil {
			return err
		}
	}
	e.Applied(recs) // before a checkpoint below captures the pages
	n := e.commitCount.Add(1)
	if e.CheckpointRemoteEvery > 0 && n%int64(e.CheckpointRemoteEvery) == 0 {
		e.CheckpointRemote(c)
	}
	if e.CheckpointStorageEvery > 0 && n%int64(e.CheckpointStorageEvery) == 0 {
		e.CheckpointStorage(c)
	}
	return nil
}

// redoTiers redoes the log's (after, upto] tail through the tier hierarchy:
// the page-LSN guard skips records already applied, and Mutate pulls any
// page the caches dropped back from storage. wal.ErrTruncated means the tail
// starts below the truncation floor: redoing the retained part as if it were
// complete would silently miss updates.
func (e *Engine) redoTiers(c *sim.Clock, after, upto wal.LSN) error {
	return e.log.Range(after, upto, func(r *wal.Record) error {
		if r.Type != wal.TypeUpdate {
			return nil
		}
		return e.Tiers.Mutate(c, page.ID(r.PageID), func(data []byte) error {
			_, err := e.Redo(data, r)
			return err
		})
	})
}

// CheckpointRemote is the fast ARIES tier: the remote memory pool
// absorbs every commit at or below a horizon captured BEFORE the flush.
// The original version captured the horizon after — a commit that became
// durable during the flush (applied only to the soon-to-die local cache,
// or not applied at all) fell below the horizon without its pages in
// remote memory, and Recover's from-horizon replay skipped it. The
// capture-first ordering plus a log-tail redo closes both holes. The
// horizon is the checkpoint LSN, not the durable LSN, for the same reason:
// a commit still on its way into the local cache is in no image this round
// writes.
//
// Each dirty frame is copied into one recycled buffer, stamped and written
// to remote memory, which keeps its own copy.
func (e *Engine) CheckpointRemote(c *sim.Clock) error {
	target := e.CheckpointLSN()
	e.mu.Lock()
	from := e.remoteCkptLSN
	e.mu.Unlock()
	if err := e.redoTiers(c, from, target); err != nil {
		return err
	}
	img := page.Alloc(e.layout.PageSize)
	defer page.Release(img)
	for _, id := range e.Tiers.Local.DirtyIDs() {
		if err := e.Tiers.Local.Read(c, id, func(data []byte) { copy(img, data) }); err != nil {
			return err
		}
		e.Capture(img)
		if err := e.Tiers.Remote.Put(c, id, img); err != nil {
			return err
		}
	}
	// The pages are now safe in remote memory; mark them clean locally
	// so they are not re-demoted.
	bg := c.Fork()
	e.Tiers.Local.FlushAll(&bg)
	e.mu.Lock()
	if target > e.remoteCkptLSN {
		e.remoteCkptLSN = target
	}
	e.mu.Unlock()
	return nil
}

// CheckpointStorage is the slow ARIES tier and the engine's log
// lifecycle: on-disk page images absorb the retained tail at or below
// the coordinator's horizon, the horizon is published, and only then is
// the log truncated below it. The original version advanced the horizon
// without ever truncating (unbounded log) and trusted the remote tier's
// current contents (whose LRU may have evicted below-horizon pages).
func (e *Engine) CheckpointStorage(c *sim.Clock) error {
	return e.Pipeline.Checkpoint(c, checkpoint.Round{
		Flush: func(c *sim.Clock, h wal.LSN) error {
			// Redo the retained tail straight into the disk images — the
			// disk copy must cover <= h independent of what either cache
			// tier currently holds.
			e.mu.Lock()
			changed, err := e.RedoImages(e.disk, e.RecoveryHorizon(), h)
			e.mu.Unlock()
			if err != nil {
				return err
			}
			for range changed {
				e.cfg.RPC(c, e.layout.PageSize)
				e.ssd.Write(c, e.layout.PageSize)
				e.stats.PageBytes.Add(int64(e.layout.PageSize))
			}
			e.mu.Lock()
			if h > e.storageCkptLSN {
				e.storageCkptLSN = h
			}
			// The fast tier's replay start must never fall below the
			// truncation floor.
			if h > e.remoteCkptLSN {
				e.remoteCkptLSN = h
			}
			e.mu.Unlock()
			return nil
		},
		Truncate: func(c *sim.Clock, h wal.LSN) error {
			e.ssd.Write(c, 24) // checkpoint master record
			return nil
		},
	})
}

// Checkpoint implements engine.Checkpointer: one full round of both
// ARIES tiers, ending in log truncation.
func (e *Engine) Checkpoint(c *sim.Clock) error {
	if err := e.CheckpointRemote(c); err != nil {
		return err
	}
	return e.CheckpointStorage(c)
}

// Crash implements engine.Recoverer: the compute node dies; local cache is
// lost, remote memory and storage survive.
func (e *Engine) Crash() {
	e.Pipeline.Crash()
	e.Tiers.Local.InvalidateAll()
}

// Close implements io.Closer: the compute node retires and its local tier
// hands its frames back; the memory node New built for the remote tier
// closes too, handing its touched memory back (memnode.Pool.Close).
func (e *Engine) Close() error {
	last := e.Retire()
	e.Tiers.Local.InvalidateAll()
	if last {
		e.MemNode.Close()
	}
	return nil
}

// Recover implements engine.Recoverer: LegoBase recovery — repopulate from
// REMOTE MEMORY (RDMA reads of the checkpointed pages) and replay only the
// log tail since the remote checkpoint; the durable mark is the log's
// decided prefix.
func (e *Engine) Recover(c *sim.Clock) (time.Duration, error) {
	start := c.Now()
	e.mu.Lock()
	from := e.remoteCkptLSN
	e.mu.Unlock()
	// Replay the short tail; pages come from remote memory on demand
	// (charged as RDMA reads inside Tiers.Read).
	if err := e.redoTiers(c, from, ^wal.LSN(0)); err != nil {
		return 0, err
	}
	e.Restart(e.log.Decided())
	return c.Now() - start, nil
}

// RecoverFromStorageOnly is the ablation baseline for E9: ignore remote
// memory and run classic ARIES from the storage checkpoint.
func (e *Engine) RecoverFromStorageOnly(c *sim.Clock) (time.Duration, error) {
	start := c.Now()
	e.mu.Lock()
	from := e.storageCkptLSN
	e.mu.Unlock()
	logBytes := 0
	if err := e.log.Range(from, ^wal.LSN(0), func(r *wal.Record) error {
		logBytes += r.EncodedSize()
		return nil
	}); err != nil {
		return 0, err
	}
	e.cfg.RPC(c, logBytes)
	e.ssd.Read(c, logBytes)
	touched := map[page.ID]bool{}
	if err := e.log.Range(from, ^wal.LSN(0), func(r *wal.Record) error {
		if r.Type != wal.TypeUpdate {
			return nil
		}
		id := page.ID(r.PageID)
		if !touched[id] {
			touched[id] = true
			// Page fetched from storage, not remote memory.
			if _, err := e.fetchFromStorage(c, id); err != nil {
				return err
			}
		}
		c.Advance(e.cfg.CPU.Cost(len(r.After)))
		return nil
	}); err != nil {
		return 0, err
	}
	e.Restart(e.log.Decided())
	return c.Now() - start, nil
}
