package engine

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/disagglab/disagg/internal/buffer"
	"github.com/disagglab/disagg/internal/buffer/coherence"
	"github.com/disagglab/disagg/internal/checkpoint"
	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/txn"
	"github.com/disagglab/disagg/internal/wal"
)

// Hooks are the four places the surveyed OLTP architectures differ (the
// tutorial's Figures 1 and 2): where a read is served, where the log becomes
// durable, where pages are materialised, and which caches must hear about a
// commit. An engine builds one Hooks value at construction from its own
// methods; everything else about committing a transaction is
// Pipeline.Execute. Read, Durable and Apply are the first three and the
// caches the engine names with Pipeline.Cache the fourth; Sequencer is a
// component only one architecture has, nil elsewhere.
//
// Durable and Apply receive one transaction's records: an update record per
// written key in ascending key order (LSN, TxID, PageID, Key and After
// filled in), then the commit record. The commit LSN — the stamp every
// applied page carries — is the last record's.
//
// Ownership: recs is the transaction context's scratch, rewritten by the
// next transaction, and valid only until the hook returns — a hook that
// keeps records copies them. Each record's After is the log's own copy of
// the image (wal.Log.Reserve), which nobody writes again; a hook may keep
// that by reference until the engine is closed.
type Hooks struct {
	// Read serves one key on the node that runs read-write transactions
	// (Execute): its cache tiers, then wherever this architecture
	// materialises pages. The value it returns is the caller's.
	Read ReadFunc
	// Durable ships recs to wherever this architecture's log becomes
	// durable and accounts the traffic that took (LogBytes, and NetBytes
	// including the engine's replication fan-out). A nil return IS the
	// durability point; an error aborts the transaction, whose records then
	// never become visible in the log. Under group commit it is called once
	// per shared flush with several transactions' records merged in LSN
	// order, so all accounting must be a function of recs alone.
	Durable func(c *sim.Clock, recs []wal.Record) error
	// Apply materialises the now-durable commit wherever this architecture
	// keeps current pages — buffer pool, cache tiers, shared memory pool,
	// page stores, value map — and runs whatever the engine does every N
	// commits. An error leaves the commit durable but unacknowledged.
	Apply func(c *sim.Clock, recs []wal.Record) error
	// Sequencer, when the architecture needs one, is held from LSN
	// assignment until Apply returns, so commits become durable and
	// visible in LSN order. Only an engine whose durable objects are
	// ordered by commit LSN (snowflake-kv's segment names) has one; page
	// engines tolerate out-of-order arrival because pages carry LSNs.
	Sequencer sync.Locker
}

// Pipeline is the compute node of the engines that keep a single
// authoritative wal.Log: monolithic, aurora, socrates, taurus, polardb,
// pilotdb, legobase, serverless and snowflake-kv. (shared-nothing keeps a
// log, a lock table and an LSN space per partition and commits across them
// with 2PC on its own Execute.)
//
// Besides the commit path below it owns what every such node has: the crash
// gate Execute sheds behind (Crash, Restart, Retire), the page-coherence
// directory and the caches registered with it (Coherent, Cache, Pool,
// Detach), the checkpoint coordinator and its recovery horizon (Checkpoint,
// RecoveryHorizon), and the site names all of these report under, derived
// from the one site the engine passes to NewPipeline. An engine embeds its
// node, so these are its methods; it declares one itself only to do more. A
// fleet member is a Peer of the root's pipeline: one log, one directory and
// one horizon, its own locks, cache and Stats.
//
// The steps of a commit, and what each guarantees:
//
//  1. Count the attempt. Every attempt ends in exactly one of Commits,
//     Aborts or Shed, so Attempts == Commits + Aborts + Shed. A crashed
//     node sheds without doing work.
//  2. Run fn against a recycled StagedTx over the Read hook. An fn error
//     aborts. An empty write set commits with nothing to log once its read
//     set validates as in step 3: reads that straddle a commit (read skew)
//     abort with ErrConflict.
//  3. Prepare: lock the write set exclusively in ascending key order
//     (deadlock free; a refused lock releases the ones held and aborts with
//     ErrConflict; locks are released when Execute returns), then validate
//     the read set: a pinned key whose version moved since it was read
//     aborts with ErrConflict, so two read-modify-writes of one key cannot
//     both commit (lock, then validate). A key that is read but not written
//     is validated but not held; in a transaction that writes, one another
//     transaction holds aborts with ErrConflict once that holder lets go,
//     so two transactions that each read what the other writes cannot both
//     commit (write skew) while the first waits unpublished in a group
//     flush. Build one update record per key and a commit record, reserve
//     their LSNs, reach sim.PointDurable, and run the Durable hook (or ride
//     the shared group flush). Until prepare
//     returns no log reader sees the records — not Range, not RedoPage, so
//     not a heal, a catch-up, a checkpoint's redo or a page miss's. A
//     failure decides the slots as aborts, which every reader skips, and
//     aborts as ErrUnavailable with nothing stamped, applied or published.
//  4. Commit: decide the slots, advance the durable LSN over the log's
//     decided prefix (never past an undecided slot: a group flush decides
//     every rider first), and stamp the transaction with its commit LSN.
//     Stamp-before-ack: from here on the records may survive a crash, so
//     any failure below is "durable but unacknowledged" — history
//     classifies it Indeterminate, and it must never look retryable (Run
//     would execute the transaction a second time).
//  5. Reach sim.PointApply, then run the Apply hook. Until it returns — or
//     calls Applied, as a hook that flushes pages to storage does first —
//     the applied prefix stays below the transaction's first LSN, and
//     Capture stamps a cached page bound for storage no higher than that.
//  6. Publish the written pages' new versions to the directory, ascending
//     by page id, whether or not Apply succeeded: a cached copy that missed
//     the update keeps its old stamp, the publish makes it stale, and the
//     next reader refetches from the durable log instead of seeing the
//     pre-commit image forever. An Apply that fails before the node's own
//     cache must drop the pages it wrote from it, though: a later commit
//     riding the same group flush can mutate the frame first and stamp it
//     past this one, and the publish then leaves the frame valid.
//
// Every slot is decided before the Execute that reserved it returns.
type Pipeline struct {
	Hooks
	cfg    *sim.Config
	site   string
	layout heap.Layout
	log    *wal.Log
	locks  *txn.LockTable
	stats  *Stats

	// ckpt owns the recovery horizon and dir the page versions; both belong
	// to the log, so a Peer shares its root's. own is the node's own cache
	// tier (the first one Cache registered): it applies commits in place and
	// is left out of their fan-out. Every engine names a directory, because
	// commit validation reads its page versions; one with no page cache
	// registers no tier with it.
	ckpt    *checkpoint.Coordinator
	dir     *coherence.Directory
	own     *coherence.Handle
	ownPool *buffer.Pool
	// caches is every pool Cache registered, for Close.
	caches []cache

	crashed atomic.Bool
	// closed makes a second Retire a no-op; open counts the members of the
	// substrate (the root and its peers) not yet retired, and the last Retire
	// hands the shared log's images back.
	closed  atomic.Bool
	open    *atomic.Int32
	nextTx  atomic.Uint64
	durable atomic.Uint64
	floor   atomic.Uint64 // the highest mark a Crash took (ReadFloor)
	// applying is shared with the node's peers, like the log.
	applying *applying

	// gc, when non-nil, combines concurrent Durable calls into shared
	// flushes (GroupCommit).
	gc *sim.Batcher[[]wal.Record, wal.LSN]
}

// NewPipeline builds an engine's compute node over its authoritative log
// and its Stats. site prefixes every telemetry site the node reports under
// ("ckpt."+site, site+".coherence", site+".groupcommit"); it is a parameter
// because it is not always the engine's Name.
func NewPipeline(cfg *sim.Config, site string, layout heap.Layout, log *wal.Log, stats *Stats, h Hooks) *Pipeline {
	p := &Pipeline{Hooks: h, cfg: cfg, site: site, layout: layout, log: log,
		locks: txn.NewLockTable(), stats: stats, ckpt: checkpoint.New(cfg, "ckpt."+site),
		open: new(atomic.Int32), applying: &applying{}}
	p.open.Store(1)
	return p
}

// Peer is an additional compute node on p's shared substrate: the log (one
// LSN space), the directory (a commit on any member reaches every member's
// cache) and the checkpoint coordinator (one horizon per log) are p's; the
// lock table, durable watermark and stats are the peer's own. peerID
// stripes the transaction-id space so members never collide in the log.
func (p *Pipeline) Peer(peerID int, stats *Stats, h Hooks) *Pipeline {
	q := &Pipeline{Hooks: h, cfg: p.cfg, site: p.site, layout: p.layout, log: p.log,
		locks: txn.NewLockTable(), stats: stats, ckpt: p.ckpt, dir: p.dir, open: p.open, applying: p.applying}
	q.open.Add(1)
	q.nextTx.Store(uint64(peerID) << 40)
	return q
}

// Coherent gives the node its page-coherence directory, feeding the
// invalidation and stale-hit counters of its Stats.
func (p *Pipeline) Coherent(mode coherence.Mode) {
	p.dir = coherence.NewDirectory(p.cfg, p.site+".coherence", mode)
	p.dir.OnInvalidate = func(n int) { p.stats.Invalidations.Add(int64(n)) }
	p.dir.OnStale = func() { p.stats.StaleHits.Add(1) }
}

// Dir is the node's directory (nil before Coherent), for the engines that
// register tiers Cache does not fit or read page versions from it.
func (p *Pipeline) Dir() *coherence.Directory { return p.dir }

// PageLSN is the commit stamp a heap page's bytes carry, the stamp every
// cache tier of a pipeline engine validates against the directory.
func PageLSN(data []byte) uint64 { return page.Wrap(data).LSN() }

// cache is one pool Cache registered and its directory handle.
type cache struct {
	h    *coherence.Handle
	pool *buffer.Pool
}

// Cache registers pool with the directory under name. The first pool
// registered is the node's own tier (Pool): excluded from the node's
// publishes, emptied by Crash, unregistered by Detach. Retire empties and
// unregisters every one.
func (p *Pipeline) Cache(name string, pool *buffer.Pool) {
	h := p.dir.Register(name, pool)
	pool.SetCoherence(h, PageLSN)
	if p.own == nil {
		p.own, p.ownPool = h, pool
	}
	p.caches = append(p.caches, cache{h, pool})
}

// Pool is the node's own cache tier (nil if Cache was never called).
func (p *Pipeline) Pool() *buffer.Pool { return p.ownPool }

// Stats is what the node counts into, as given to NewPipeline or Peer.
func (p *Pipeline) Stats() *Stats { return p.stats }

// Detach unregisters the node's own cache from the (shared) directory, so a
// retired fleet member stops absorbing invalidation fan-out.
func (p *Pipeline) Detach() { p.dir.Deregister(p.own) }

// Crash takes the compute node down: Execute sheds until Restart, and its
// own cache and durable mark are lost. What survives is the engine's
// durable tier, from which Recover learns the mark again.
func (p *Pipeline) Crash() {
	p.crashed.Store(true)
	raise(&p.floor, p.durable.Load())
	p.durable.Store(0)
	if p.ownPool != nil {
		p.ownPool.InvalidateAll()
	}
}

// Restart, the last step of every Recover, brings the node back with the
// durable mark Recover learned. The mark only rises, so a warm Recover of
// a live fleet member keeps what it knew.
func (p *Pipeline) Restart(mark wal.LSN) {
	raise(&p.durable, uint64(mark))
	p.crashed.Store(false)
}

// Retire takes the compute node out for good: Execute sheds with
// ErrUnavailable instead of refilling a cold cache, and every pool Cache
// registered leaves the directory and hands its frames to page.Release,
// without writeback. The node's cache is a soft copy of its durable tier, so
// nothing is lost that a successor cannot fetch again. The last member of
// the substrate to retire, root or peer, also releases the log
// (wal.Log.Release): the caller retires the engine whole, so nothing reads
// its log, storage tier or view afterwards. A second Retire does nothing.
// Retire reports whether it was that last one, after which the engine
// releases the rest of the substrate it built (an object store, a memory
// node).
func (p *Pipeline) Retire() (last bool) {
	if p.closed.Swap(true) {
		return false
	}
	p.crashed.Store(true)
	for _, c := range p.caches {
		p.dir.Deregister(c.h)
		c.pool.InvalidateAll()
	}
	if p.open.Add(-1) == 0 {
		p.log.Release()
		return true
	}
	return false
}

// Close is Retire as an io.Closer.
func (p *Pipeline) Close() error {
	p.Retire()
	return nil
}

// Checkpoint runs one round on the node's coordinator. The horizon it
// captures is CheckpointLSN unless the round captures more with it.
func (p *Pipeline) Checkpoint(c *sim.Clock, r checkpoint.Round) error {
	if r.Durable == nil {
		r.Durable = p.CheckpointLSN
	}
	return p.ckpt.Checkpoint(c, r)
}

// CheckpointLSN is the highest horizon a checkpoint round may capture: the
// durable LSN, held below every transaction that is decided but not yet
// applied. The durable LSN covers such a transaction, but a round's redo
// into a cached page a later commit already stamped skips its records, and
// Capture stamps the flushed image below it: only the log holds its update,
// so truncation must not reach it.
func (p *Pipeline) CheckpointLSN() wal.LSN { return min(p.DurableLSN(), p.appliedLSN()) }

// RecoveryHorizon reports the published recovery horizon of the node's log.
func (p *Pipeline) RecoveryHorizon() wal.LSN { return p.ckpt.Horizon() }

// DurableLSN reports the end of the durable prefix: every slot at or below
// it is decided, every commit there durable.
func (p *Pipeline) DurableLSN() wal.LSN { return wal.LSN(p.durable.Load()) }

// ReadFloor is the LSN a storage read filling the node's caches must cover:
// the durable mark, or the one a crash took if higher. Read replicas outlive
// their writer, and a commit they were told of stays durable while it is down.
func (p *Pipeline) ReadFloor() wal.LSN { return wal.LSN(max(p.durable.Load(), p.floor.Load())) }

// raise sets a to v unless it is higher already: between crashes the durable
// mark only rises (to the log's decided prefix, or to what Recover learned).
func raise(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Shed refuses an attempt on a crashed or retired compute node without doing
// work: stats counts the attempt and the shed, the caller sees
// ErrUnavailable, and Run records a shed.
func Shed(stats *Stats) error {
	stats.Attempts.Add(1)
	stats.Shed.Add(1)
	return errDown
}

// finish lands an executed attempt in exactly one outcome counter.
func (p *Pipeline) finish(err error) error {
	if err != nil {
		p.stats.Aborts.Add(1)
	} else {
		p.stats.Commits.Add(1)
	}
	return err
}

// Execute runs fn as one read-write transaction whose reads go through the
// Read hook (see the step list on Pipeline). The handle fn receives is
// recycled when Execute returns.
func (p *Pipeline) Execute(c *sim.Clock, fn func(tx Tx) error) error {
	if p.crashed.Load() {
		return Shed(p.stats)
	}
	p.stats.Attempts.Add(1)
	st := NewStagedTx(c, p.Read)
	st.pipe = p
	err := p.commit(c, st, fn)
	st.Release()
	return p.finish(err)
}

// ReadOnly runs fn as a read-only transaction on a replica whose reads go
// through read, a function the engine built with the replica; staging a
// write aborts with ErrReadOnly.
func (p *Pipeline) ReadOnly(c *sim.Clock, read ReadFunc, fn func(tx Tx) error) error {
	p.stats.Attempts.Add(1)
	st := NewStagedTx(c, read)
	err := fn(st)
	if err == nil && !st.Empty() {
		err = ErrReadOnly
	}
	st.Release()
	return p.finish(err)
}

func (p *Pipeline) commit(c *sim.Clock, st *StagedTx, fn func(tx Tx) error) error {
	txID := p.nextTx.Add(1)
	if err := fn(st); err != nil {
		return err
	}
	writes := st.Writes()
	held := 0
	busy, blocked := uint64(0), false
	defer func() {
		for _, w := range writes[:held] {
			p.locks.Unlock(txID, w.Key, txn.Exclusive)
		}
		// Wait for the holder of the pinned key that failed validation only
		// now, holding nothing: a wait with the write locks held could close
		// a cycle with a holder that waits for one of them.
		if blocked {
			p.awaitRelease(c, txID, busy)
		}
	}()
	for _, w := range writes {
		if p.locks.Acquire(c, txID, w.Key, txn.Exclusive, txn.DefaultAcquire) != nil {
			return ErrConflict
		}
		held++
	}
	// Validate: a pinned key whose version moved since it was read may have
	// had a commit land that this transaction's other reads saw or its
	// writes would overwrite. For a transaction that writes, a pinned key
	// another transaction holds fails too (Silo's rule): its holder may be
	// durable but not yet published, waiting in a group-commit batch, and
	// committing beside it would leave each having missed the other's write.
	// The attempt waits for the holder to let go before it returns, so the
	// retry does not spend its budget while the holder's batch waits. A
	// read-only transaction writes nothing its holder could miss; it orders
	// before the holder.
	for _, pn := range st.pins {
		if p.version(pn.key) != pn.ver {
			return ErrConflict
		}
		if len(writes) > 0 && p.locks.HeldByOther(txID, pn.key) {
			busy, blocked = pn.key, true
			return ErrConflict
		}
	}
	if len(writes) == 0 {
		return nil
	}
	if p.Sequencer != nil {
		p.Sequencer.Lock()
		defer p.Sequencer.Unlock()
	}

	// Prepare: the records go into reserved slots no log reader sees.
	for _, w := range writes {
		st.recs = append(st.recs, wal.Record{Type: wal.TypeUpdate, TxID: txID, PageID: uint64(p.layout.PageOf(w.Key)), Key: w.Key, After: w.Val})
	}
	st.recs = append(st.recs, wal.Record{Type: wal.TypeCommit, TxID: txID})
	recs := st.recs
	p.applying.reserve(p.log, recs)
	p.cfg.Reach(c, sim.PointDurable)
	var err error
	if gc := p.gc; gc != nil {
		// The flush ships every rider's records, accounts them, and decides
		// them all before it advances the durable LSN. The rider blocks until
		// the flush has copied them.
		if _, err = gc.Submit(c, recs); err == nil {
			p.stats.GroupCommits.Add(1)
		}
	} else if err = p.Durable(c, recs); err == nil {
		p.decide(recs, true)
	}
	if err != nil {
		p.decide(recs, false)
		p.Applied(recs)
		return Unavail(err)
	}

	// Commit: the records are decided and visible.
	commit := recs[len(recs)-1].LSN
	st.StampCommit(uint64(commit))
	p.cfg.Reach(c, sim.PointApply)
	err = p.Apply(c, recs)
	p.Applied(recs)
	if p.dir != nil {
		st.stamps = pageStamps(st.stamps, recs)
		p.dir.Publish(c, st.stamps, p.own)
	}
	if err != nil {
		// %v, not %w, for the cause: a lock or latch conflict inside Apply
		// must not satisfy errors.Is(err, ErrConflict) once the records
		// are durable. Unavail keeps an admission shed recognisable.
		return fmt.Errorf("%w: commit durable at LSN %d but not applied: %v", Unavail(err), commit, err)
	}
	return nil
}

// awaitRelease waits until no transaction other than tx holds key. It is a
// function of its own so that only a commit that waits builds the closure.
func (p *Pipeline) awaitRelease(c *sim.Clock, tx, key uint64) {
	sp := c.StartSpan("backoff")
	sim.Wait(c, func() bool { return !p.locks.HeldByOther(tx, key) })
	c.FinishSpan(sp, 0)
}

// version is the version commit validation compares a pinned read with:
// the number of publications to the key's page. It charges no time. A
// commit publishes after Apply and before it unlocks, so a read that saw a
// count saw the bytes of every commit counted, and any commit published to
// the page since changes the count. The page's highest stamp would not do:
// two members of one substrate can publish to a page out of LSN order, and
// a publish below the highest stamp leaves it where it is. A page is
// coarser than a key: a commit to another key of the page fails the check
// too, and the transaction retries.
func (p *Pipeline) version(key uint64) uint64 {
	if p.dir == nil {
		return 0
	}
	return p.dir.Publications(p.layout.PageOf(key))
}

// decide fills recs' slots — with the records once they are durable, with
// aborts once they cannot be — and advances the durable LSN over the log's
// decided prefix, which deciding a slot may extend over later commits.
func (p *Pipeline) decide(recs []wal.Record, commit bool) {
	raise(&p.durable, uint64(p.log.Decide(recs, commit)))
}

// applying is the set of transactions whose LSNs are reserved and whose
// records have not yet reached the node's cache, by first LSN: at most one
// entry per worker.
type applying struct {
	mu    sync.Mutex
	first []wal.LSN
}

// reserve reserves recs' LSNs in log and enters the transaction in one
// step, so no capture sees the LSNs without the entry.
func (a *applying) reserve(log *wal.Log, recs []wal.Record) {
	a.mu.Lock()
	log.Reserve(recs)
	a.first = append(a.first, recs[0].LSN)
	a.mu.Unlock()
}

// Applied marks the transaction whose records recs are as applied to the
// node's cache. The pipeline marks it when Apply returns; an Apply hook that
// captures pages for storage after applying (a flush every N commits) marks
// it first, so its own pages are not stamped below what they hold. Marking
// it again is a no-op.
func (p *Pipeline) Applied(recs []wal.Record) {
	a := p.applying
	a.mu.Lock()
	if i := slices.Index(a.first, recs[0].LSN); i >= 0 {
		a.first = slices.Delete(a.first, i, i+1)
	}
	a.mu.Unlock()
}

// appliedLSN is the end of the applied prefix: every record at or below it
// was applied to the cache, or aborted, or was never the pipeline's to
// apply. Applies run in whichever order their Durable calls return, so a
// cached page can hold a higher LSN than the prefix.
func (p *Pipeline) appliedLSN() wal.LSN {
	a := p.applying
	a.mu.Lock()
	defer a.mu.Unlock()
	through := p.log.Head() - 1
	for _, first := range a.first {
		through = min(through, first-1)
	}
	return through
}

// Capture stamps img, a copy of a cached page bound for the node's durable
// page store, with min(its page LSN, appliedLSN): the highest LSN it is
// known to hold every record up to. A redo onto the stored image then
// re-applies what the copy may lack — a commit to another key of the page
// that was still inside Durable when a later one applied — instead of
// taking the page LSN's word for it. The re-applied records reach each key
// in LSN order (a key's lock spans its own apply), so that is idempotent.
func (p *Pipeline) Capture(img []byte) {
	pg := page.Wrap(img)
	if through := uint64(p.appliedLSN()); through < pg.LSN() {
		pg.SetLSN(through)
	}
}

// pageStamps derives the publication from one transaction's records: each
// written page's new version is its highest update-record LSN (the LSN a
// storage-side materialisation of the page carries, so a refetched page
// always validates — the commit LSN would permanently stale it). Keys
// ascend and PageOf is monotone, so pages come out ascending with each
// page's records adjacent: the same slice on every run, with no map. The
// stamps are appended to dst[:0], the transaction context's scratch.
func pageStamps(dst []coherence.PageStamp, recs []wal.Record) []coherence.PageStamp {
	updates := recs[:len(recs)-1]
	stamps := dst[:0]
	for i := range updates {
		id, lsn := page.ID(updates[i].PageID), uint64(updates[i].LSN)
		if n := len(stamps); n > 0 && stamps[n-1].ID == id {
			stamps[n-1].Stamp = lsn
		} else {
			stamps = append(stamps, coherence.PageStamp{ID: id, Stamp: lsn})
		}
	}
	return stamps
}

// GroupCommit makes commits ride shared Durable flushes of up to maxItems
// transactions or the virtual window, whichever triggers first (the body of
// engine.GroupCommitter). Coherence publications piggyback on the same
// cadence: one durable group flush, one publication round for the whole
// group. An engine whose durable tier can share a flush calls it from its
// own EnableGroupCommit; embedding the node makes no engine a GroupCommitter.
func (p *Pipeline) GroupCommit(maxItems int, window time.Duration) {
	p.dir.EnableBatching(maxItems, window)
	p.gc = sim.NewBatcher(p.cfg, p.site+".groupcommit",
		sim.BatchPolicy{MaxItems: maxItems, Window: window, OnFlush: p.noteFlush},
		p.flushGroup)
}

func (p *Pipeline) noteFlush(n int, reason sim.FlushReason) {
	p.stats.GroupFlushes.Add(1)
	if reason == sim.FlushSize {
		p.stats.FlushOnSize.Add(1)
	} else {
		p.stats.FlushOnTimeout.Add(1)
	}
}

// flushGroup ships every rider's records through one Durable call in LSN
// order and decides them all before it advances the durable LSN; all riders
// wake with the same durable LSN (the group's high-water mark) or the same
// error.
func (p *Pipeline) flushGroup(c *sim.Clock, groups [][]wal.Record, out []wal.LSN) error {
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	recs := make([]wal.Record, 0, n)
	for _, g := range groups {
		recs = append(recs, g...)
	}
	slices.SortFunc(recs, func(a, b wal.Record) int { return cmp.Compare(a.LSN, b.LSN) })
	if err := p.Durable(c, recs); err != nil {
		return err
	}
	high := recs[len(recs)-1].LSN
	p.decide(recs, true)
	for i := range out {
		out[i] = high
	}
	return nil
}

// Encode is the wire form of recs back to back, for the engines whose
// durable tier stores bytes rather than records. The buffer is exactly
// sized and comes from page.Alloc: the tier that takes it hands it back
// when it drops it (device.ObjectStore.Delete).
func Encode(recs []wal.Record) []byte {
	out := page.Alloc(wal.Size(recs))[:0]
	for i := range recs {
		out = recs[i].Encode(out)
	}
	return out
}

// ReadPool is the read path of an engine whose compute cache is one
// buffer.Pool: a validated hit is served by View in one step (a separate
// Contains+Get pair raced invalidations between its two lock acquisitions
// and counted a stale frame as a hit); anything else goes through the
// pool's fetcher. ReadValue runs on the frame: only the value is copied out.
func (p *Pipeline) ReadPool(c *sim.Clock, pool *buffer.Pool, key uint64) (val []byte, err error) {
	id := p.layout.PageOf(key)
	read := func(data []byte) { val, err = p.layout.ReadValue(data, key) }
	if pool.View(c, id, read) {
		p.stats.CacheHits.Add(1)
		return val, err
	}
	p.stats.CacheMisses.Add(1)
	if rerr := pool.Read(c, id, read); rerr != nil {
		return nil, rerr
	}
	return val, err
}

// ApplyPool writes a commit's updates into pool, faulting absent pages in:
// the Apply step of an engine whose pool is where pages are materialised
// before they reach storage.
func (p *Pipeline) ApplyPool(c *sim.Clock, pool *buffer.Pool, recs []wal.Record) {
	for i := range recs[:len(recs)-1] {
		p.mutate(c, pool, &recs[i], recs[len(recs)-1].LSN)
	}
}

// ApplyCached is ApplyPool restricted to pages the pool already holds: the
// Apply step of an engine whose storage tier materialises pages from the
// log, where the compute cache only has to keep its own copies current.
func (p *Pipeline) ApplyCached(c *sim.Clock, pool *buffer.Pool, recs []wal.Record) {
	for i := range recs[:len(recs)-1] {
		if pool.Contains(page.ID(recs[i].PageID)) {
			p.mutate(c, pool, &recs[i], recs[len(recs)-1].LSN)
		}
	}
}

// mutate rewrites r's value in its pool frame and stamps the page with the
// commit LSN. Mutate re-stamps a frame from its mutated bytes, so an
// applied frame stays fresh across the publish; a frame whose mutate
// failed keeps its old stamp and the publish stales it, which is why the
// error needs no handling here.
func (p *Pipeline) mutate(c *sim.Clock, pool *buffer.Pool, r *wal.Record, commit wal.LSN) {
	_ = pool.Mutate(c, page.ID(r.PageID), func(data []byte) error {
		return p.layout.WriteValue(data, r.Key, r.After, uint64(commit))
	})
}
