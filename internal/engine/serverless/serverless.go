// Package serverless implements the PolarDB Serverless architecture of
// §3.1: storage disaggregation (a quorum log volume) PLUS memory
// disaggregation — an elastic, shared remote buffer pool that all compute
// nodes use. Pages in the shared pool are always current, so secondary
// nodes read fresh data without log replay, resizing the buffer is a
// metadata operation, and failover promotes a secondary without cache
// warm-up. Local caches are kept coherent with page-LSN validation (one
// 8-byte one-sided read) instead of invalidation broadcasts.
package serverless

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
	"github.com/disagglab/disagg/internal/memnode"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/rdma"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/storagenode"
	"github.com/disagglab/disagg/internal/txn"
	"github.com/disagglab/disagg/internal/wal"
)

// Engine is the PolarDB Serverless-style engine: one primary (writer) and
// any number of secondaries sharing the remote buffer pool.
type Engine struct {
	// The node's directory is the memory-node page directory (ModeBump:
	// local caches are kept coherent by page-LSN validation, not
	// invalidation broadcasts); the shared pool and every node cache
	// validate their entries against it.
	*engine.Pipeline

	cfg    *sim.Config
	layout heap.Layout
	Volume *storagenode.Volume
	// Shared is the disaggregated shared buffer pool.
	Shared  *buffer.RemotePool
	MemNode *memnode.Pool

	log   *wal.Log
	stats engine.Stats
	// latches are the memory node's page-level physical latches.
	latches *txn.LockTable

	// nodes[0] is the primary; others are secondaries. Each node has a
	// small local cache plus a QP for validation reads.
	nodes   []*computeNode
	primary atomic.Int32

	mu sync.Mutex
}

type computeNode struct {
	cache *buffer.Pool
	qp    *rdma.QP
	// read is the node's read path, built once with the node.
	read engine.ReadFunc
	// crashed marks a node that is down: ReadReplica on it sheds and
	// Recover promotes another. Execute sheds behind the pipeline's gate.
	crashed atomic.Bool
}

// newNode builds a compute node with a local cache of localPages frames.
func (e *Engine) newNode(localPages int) *computeNode {
	n := &computeNode{qp: e.MemNode.Connect(nil), cache: buffer.NewPool(e.cfg, localPages, nil, nil)}
	n.read = func(c *sim.Clock, key uint64) ([]byte, error) { return e.readKeyOn(c, n, key) }
	return n
}

// New creates the engine with `nodes` compute nodes (>=1), a shared pool
// of sharedPages frames, and per-node caches of localPages frames.
func New(cfg *sim.Config, layout heap.Layout, nodes, localPages, sharedPages int) *Engine {
	if nodes < 1 {
		nodes = 1
	}
	mn := memnode.New(cfg, "shared-buf", sharedPages*layout.PageSize+1024)
	e := &Engine{
		cfg:     cfg,
		layout:  layout,
		Volume:  storagenode.NewAuroraVolume(cfg, layout),
		MemNode: mn,
		log:     wal.NewLog(),
		latches: txn.NewLockTable(),
	}
	// The site is not the engine's Name. No tier is the node's own, so none
	// is excluded from a publish: the writer's own copies carry the commit
	// LSN and stay fresh; every other node's cached copy goes stale and
	// revalidates.
	e.Pipeline = engine.NewPipeline(cfg, "serverless", layout, e.log, &e.stats,
		engine.Hooks{Read: e.readKey, Durable: e.durable, Apply: e.apply})
	e.Coherent(coherence.ModeBump)
	base, err := mn.Alloc(uint64(sharedPages * layout.PageSize))
	if err != nil {
		panic("serverless: shared pool sizing bug: " + err.Error())
	}
	e.Shared = buffer.NewRemotePool(cfg, mn.Node(), nil, base, sharedPages, layout.PageSize)
	e.Shared.SetCoherence(e.Dir().Register("shared", e.Shared), engine.PageLSN)
	for i := 0; i < nodes; i++ {
		n := e.newNode(localPages)
		n.cache.SetCoherence(e.Dir().Register(fmt.Sprintf("node%d", i), n.cache), engine.PageLSN)
		e.nodes = append(e.nodes, n)
	}
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "polardb-serverless" }

// directoryLSN returns the current LSN of a page in the shared directory,
// charging the validation read.
func (e *Engine) directoryLSN(c *sim.Clock, n *computeNode, id page.ID) wal.LSN {
	// One 8-byte one-sided read against the memory node.
	var buf [8]byte
	n.qp.Read(c, 0, buf[:])
	return wal.LSN(e.Dir().Version(id))
}

// readPage runs fn on a current image of the page: the node's local cache
// if fresh, else the shared pool, else the storage volume. On a miss fn runs
// on the fetched buffer while it is private; then it becomes the local frame.
func (e *Engine) readPage(c *sim.Clock, n *computeNode, id page.ID, fn func(data []byte)) error {
	want := e.directoryLSN(c, n, id)
	// View only serves a frame whose stamp is current in the directory —
	// it replaces the old manual page-LSN check + Invalidate (which
	// miscounted a stale frame as a hit before dropping it).
	if n.cache.View(c, id, fn) {
		e.stats.CacheHits.Add(1)
		return nil
	}
	e.stats.CacheMisses.Add(1)
	buf := page.Alloc(e.layout.PageSize)
	ok, err := e.Shared.Get(c, id, buf)
	if !ok {
		// A miss or an error: the probe buffer was never shared, and the
		// volume read below can fill it.
		page.Release(buf)
	}
	if err != nil {
		return err
	}
	if ok {
		e.stats.NetBytes.Add(int64(len(buf)))
	} else {
		// Shared-pool miss: fetch from storage at the page's directory LSN
		// (it may trail the read floor), then populate the shared pool.
		floor := min(e.ReadFloor(), want)
		buf, err = e.Volume.ReadPage(c, id, floor)
		if err != nil {
			// Injected drops can leave the same log hole on every replica;
			// heal from the authoritative log and retry once.
			bg := c.Fork()
			e.Volume.Heal(&bg, e.log)
			buf, err = e.Volume.ReadPage(c, id, floor)
		}
		if err != nil {
			return err
		}
		e.stats.StorageOps.Add(1)
		e.stats.NetBytes.Add(int64(len(buf)))
		if err := e.Shared.Put(c, id, buf); err != nil {
			return err
		}
	}
	fn(buf)
	n.cache.Install(c, id, buf, false)
	return nil
}

func (e *Engine) readKeyOn(c *sim.Clock, n *computeNode, key uint64) (val []byte, err error) {
	rerr := e.readPage(c, n, e.layout.PageOf(key), func(data []byte) {
		val, err = e.layout.ReadValue(data, key)
	})
	if rerr != nil {
		return nil, rerr
	}
	return val, err
}

// readKey is the pipeline's read hook: read-write transactions read on
// whichever node is the primary.
func (e *Engine) readKey(c *sim.Clock, key uint64) ([]byte, error) {
	return e.readKeyOn(c, e.nodes[e.primary.Load()], key)
}

// durable: log to the storage volume (inherited from the PolarDB/Aurora
// lineage).
func (e *Engine) durable(c *sim.Clock, recs []wal.Record) error {
	if err := e.Volume.AppendLog(c, recs); err != nil {
		return err
	}
	n := int64(wal.Size(recs))
	e.stats.LogBytes.Add(n)
	e.stats.NetBytes.Add(n)
	return nil
}

// apply: freshness — write the updated pages into the SHARED pool so every
// node sees current data without replay. The read-modify-write of each
// page happens under a page latch (PolarDB Serverless keeps page-level
// physical latches on the memory node) so concurrent committers to one
// page cannot clobber each other. A page the shared pool never saw (a
// fault below) still has its version published by the pipeline: its
// cached copies go stale and the next reader materialises it from the
// volume's durable log.
func (e *Engine) apply(c *sim.Clock, recs []wal.Record) error {
	n := e.nodes[e.primary.Load()]
	updates := recs[:len(recs)-1]
	lsn := uint64(recs[len(recs)-1].LSN)
	// Keys ascend, so each page's records are adjacent and pages ascend:
	// latching in that order is deadlock-free.
	txID := recs[0].TxID
	pages := make([]uint64, 0, len(updates))
	for i := range updates {
		if i == 0 || updates[i].PageID != updates[i-1].PageID {
			pages = append(pages, updates[i].PageID)
		}
	}
	held := 0
	defer func() {
		for _, id := range pages[:held] {
			e.latches.Unlock(txID, id, txn.Exclusive)
		}
	}()
	for _, id := range pages {
		// The commit is already durable, so a busy latch is waited out,
		// never surfaced as a conflict. Latches are taken only here, in
		// ascending page order, and released before apply returns, so the
		// wait ends (TestSamePageCommitsWaitForTheLatch).
		if err := e.latches.Acquire(c, txID, id, txn.Exclusive, txn.DefaultAcquire); err != nil {
			return err
		}
		held++
	}
	for i := 0; i < len(updates); {
		id := page.ID(updates[i].PageID)
		// The one owned copy: mutated here, then Install makes it the frame
		// (and releases the frame it replaces); until then it is private, so
		// an error on the way gives it back.
		var data []byte
		if err := e.readPage(c, n, id, func(d []byte) {
			data = page.Alloc(len(d))
			copy(data, d)
		}); err != nil {
			return err
		}
		for ; i < len(updates) && page.ID(updates[i].PageID) == id; i++ {
			if err := e.layout.WriteValue(data, updates[i].Key, updates[i].After, lsn); err != nil {
				page.Release(data)
				return err
			}
		}
		if err := e.Shared.Put(c, id, data); err != nil {
			page.Release(data)
			return err
		}
		e.stats.NetBytes.Add(int64(len(data)))
		n.cache.Install(c, id, data, false)
	}
	return nil
}

// ReadReplica implements engine.Reader: read-only transaction on a
// secondary — always fresh, no replay.
func (e *Engine) ReadReplica(c *sim.Clock, idx int, fn func(tx engine.Tx) error) error {
	n := e.nodes[idx]
	if n.crashed.Load() {
		return engine.Shed(e.Stats())
	}
	return e.ReadOnly(c, n.read, fn)
}

// Crash implements engine.Recoverer: the primary dies (its local cache is
// lost; the shared pool survives — memory disaggregation breaks fate
// sharing). Execute sheds behind the pipeline's gate until Recover.
func (e *Engine) Crash() {
	e.Pipeline.Crash()
	n := e.nodes[e.primary.Load()]
	n.crashed.Store(true)
	n.cache.InvalidateAll()
}

// Close implements io.Closer: every compute node retires and its local cache
// hands its frames back; Execute and ReadReplica shed from now on. The
// memory node New built for the shared pool closes last, handing its
// touched memory back (memnode.Pool.Close).
func (e *Engine) Close() error {
	last := e.Retire()
	for _, n := range e.nodes {
		n.crashed.Store(true)
		n.cache.InvalidateAll()
	}
	if last {
		e.MemNode.Close()
	}
	return nil
}

// Recover implements engine.Recoverer: failover — promote the next healthy
// node to primary. No cache warm-up (the working set is in the shared
// pool) and no log replay (pages there are current): one directory round
// trip plus a quorum LSN poll. A primary that never crashed stays (a warm
// Recover, as a fleet runs on a survivor).
func (e *Engine) Recover(c *sim.Clock) (time.Duration, error) {
	start := c.Now()
	cur := e.primary.Load()
	next := cur // a live primary stays; with no other node up, a crashed one restarts
	if e.nodes[cur].crashed.Load() {
		for i := range e.nodes {
			if int32(i) != cur && !e.nodes[i].crashed.Load() {
				next = int32(i)
				break
			}
		}
	}
	lsn, err := e.Volume.FindHighLSN(c)
	if err != nil {
		return 0, err
	}
	// One control-plane RPC to take ownership of the shared pool.
	c.Advance(e.cfg.RDMARPC.Cost(64))
	e.nodes[next].crashed.Store(false)
	e.primary.Store(next)
	e.Restart(lsn)
	return c.Now() - start, nil
}

// Checkpoint implements engine.Checkpointer. The shared memory pool is
// volatile — it never counts as checkpoint state. Like Aurora, the
// durable flush is storage-side: the volume replicas materialize the
// prefix at or below the durable LSN and adopt the horizon; only then
// does the compute-side log drop its tail below it.
func (e *Engine) Checkpoint(c *sim.Clock) error {
	return e.Pipeline.Checkpoint(c, checkpoint.Round{
		Flush: func(c *sim.Clock, h wal.LSN) error {
			advanced, _ := storagenode.Converge(c, e.Volume.Replicas, e.log, h)
			if advanced < e.Volume.WriteQ {
				return storagenode.ErrNoQuorum
			}
			return nil
		},
	})
}

// Nodes reports the number of compute nodes.
func (e *Engine) Nodes() int { return len(e.nodes) }

// AddNode scales out by attaching a fresh secondary: a metadata operation
// (no data movement — the point of shared storage + shared memory).
func (e *Engine) AddNode(c *sim.Clock, localPages int) int {
	n := e.newNode(localPages)
	c.Advance(e.cfg.RDMARPC.Cost(64))
	e.mu.Lock()
	e.nodes = append(e.nodes, n)
	idx := len(e.nodes) - 1
	e.mu.Unlock()
	n.cache.SetCoherence(e.Dir().Register(fmt.Sprintf("node%d", idx), n.cache), engine.PageLSN)
	return idx
}
