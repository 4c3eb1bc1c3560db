// Package buffer implements the buffer pools used across the engines: a
// local in-DRAM LRU pool, an RDMA-backed remote pool hosted on a memory
// node, and the LegoBase two-tier combination (local LRU in front of a
// remote-memory LRU, §3.1). All tiers can subscribe to a per-engine
// coherence.Directory: frames then carry the commit stamp of their bytes
// and every hit is validated against the directory version, so a copy
// cached before a remote commit is never served after the commit's
// durability point.
//
// A local pool hands every frame it drops to page.Release, for some later
// page.Alloc; the ownership rule that makes this safe is on Pool, Fetcher and
// Writeback.
package buffer

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/disagglab/disagg/internal/buffer/coherence"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/rdma"
	"github.com/disagglab/disagg/internal/sim"
)

// Fetcher loads a page's bytes on a miss (e.g. from a storage node),
// charging the caller's clock. The returned slice becomes the pool's: it is
// the frame, written in place and recycled through page.Release on eviction,
// so nothing else may reference it. Fill a page.Alloc buffer to reuse the
// one the previous miss evicted.
type Fetcher func(c *sim.Clock, id page.ID) ([]byte, error)

// Writeback persists a dirty page on eviction. data is the frame, recycled
// once Writeback returns nil: copy it, do not retain it.
type Writeback func(c *sim.Clock, id page.ID, data []byte) error

// StampFunc extracts the commit stamp carried by page bytes (page-header
// LSN for heap pages). Coherence validation compares it against the
// directory version.
type StampFunc func(data []byte) uint64

// ErrNoFetcher is returned when a miss occurs and no fetcher is set.
var ErrNoFetcher = errors.New("buffer: miss with no fetcher")

type frame struct {
	id    page.ID
	data  []byte
	dirty bool
	// stamp is the commit stamp of the cached bytes; a frame whose stamp
	// trails the directory version is stale and never served.
	stamp uint64
}

// Pool is a local LRU page cache. Every access runs under the pool lock and
// is charged one DRAM touch. Reads go through View (hit only) and Read
// (fetch on miss), which run fn on the frame's own bytes: data is valid only
// until fn returns, so fn must copy out what it keeps and must not write to
// data or call back into the pool. Get is Read plus a copy, for callers that
// have to own the page; Mutate is the write path, whose fn writes to data
// and is otherwise under the same rule.
//
// The pool owns its frames' bytes, whether a Fetcher returned them or Install
// took them. Every frame it drops (evicted, replaced by Install, dropped by
// Invalidate, InvalidateAll or a stale validation) goes to page.Release under
// the pool lock and becomes the buffer of some later miss, in this pool or
// another: a reference kept past a callback reads another page's image. A
// victim whose writeback failed stays resident.
type Pool struct {
	cfg       *sim.Config
	capacity  int
	fetch     Fetcher
	writeback Writeback

	coh     *coherence.Handle
	stampOf StampFunc

	mu     sync.Mutex
	lru    *list.List // front = most recent
	frames map[page.ID]*list.Element

	hits        atomic.Int64
	misses      atomic.Int64
	probeMisses atomic.Int64
	staleHits   atomic.Int64
}

// NewPool creates a pool holding up to capacity pages.
func NewPool(cfg *sim.Config, capacity int, fetch Fetcher, writeback Writeback) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	return &Pool{
		cfg:       cfg,
		capacity:  capacity,
		fetch:     fetch,
		writeback: writeback,
		lru:       list.New(),
		frames:    make(map[page.ID]*list.Element),
	}
}

// SetCoherence subscribes the pool to a coherence directory: frames are
// stamped (via stampOf when the data carries its own stamp, else the
// directory version at fill time) and every hit is validated. Any frames
// already resident are noted with the directory.
func (p *Pool) SetCoherence(h *coherence.Handle, stampOf StampFunc) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.coh = h
	p.stampOf = stampOf
	for id := range p.frames {
		h.Note(id)
	}
}

// Capacity reports the pool capacity in pages.
func (p *Pool) Capacity() int { return p.capacity }

// Len reports the number of cached pages.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lru.Len()
}

// HitRatio reports hits/(hits+misses) over demand accesses; probe misses
// (View lookups, which never intend to load) are excluded
// so policies fed by the ratio are not skewed by probing.
func (p *Pool) HitRatio() float64 {
	h, m := p.hits.Load(), p.misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// ProbeMisses reports lookups that missed without requesting a load.
func (p *Pool) ProbeMisses() int64 { return p.probeMisses.Load() }

// StaleHits reports cached frames rejected by coherence validation.
func (p *Pool) StaleHits() int64 { return p.staleHits.Load() }

// removeLocked drops a frame, tells the directory and releases its bytes.
func (p *Pool) removeLocked(e *list.Element) {
	f := e.Value.(*frame)
	p.lru.Remove(e)
	delete(p.frames, f.id)
	if p.coh != nil {
		p.coh.Forget(f.id)
	}
	page.Release(f.data)
}

// locked is the one lookup body: the page's fresh frame, charged one DRAM
// touch, fetched on a miss if load is set (else a miss is a nil frame).
func (p *Pool) locked(c *sim.Clock, id page.ID, load bool) (*frame, error) {
	if e, ok := p.frames[id]; ok {
		f := e.Value.(*frame)
		if p.coh == nil || p.coh.Validate(id, f.stamp) {
			p.lru.MoveToFront(e)
			p.hits.Add(1)
			c.Advance(p.cfg.DRAM.Cost(len(f.data)))
			return f, nil
		}
		// The directory published a newer stamp: the cached copy is
		// stale. Drop it and fall through to the miss path.
		p.staleHits.Add(1)
		p.removeLocked(e)
	}
	if !load {
		// A probe, not a demand access: counted separately so HitRatio
		// (and any policy fed by it) reflects only loads.
		p.probeMisses.Add(1)
		return nil, nil
	}
	p.misses.Add(1)
	if p.fetch == nil {
		return nil, ErrNoFetcher
	}
	var floor uint64
	if p.coh != nil && p.stampOf == nil {
		floor = p.coh.Version(id)
	}
	data, err := p.fetch(c, id)
	if err != nil {
		return nil, err
	}
	f := &frame{id: id, data: data, stamp: floor}
	if p.stampOf != nil {
		f.stamp = p.stampOf(data)
	}
	if err := p.evictIfFullLocked(c); err != nil {
		return nil, err
	}
	p.frames[id] = p.lru.PushFront(f)
	if p.coh != nil {
		p.coh.Note(id)
	}
	c.Advance(p.cfg.DRAM.Cost(len(f.data)))
	return f, nil
}

func (p *Pool) evictIfFullLocked(c *sim.Clock) error {
	for p.lru.Len() >= p.capacity {
		e := p.lru.Back()
		if e == nil {
			return nil
		}
		f := e.Value.(*frame)
		if f.dirty && p.writeback != nil {
			if err := p.writeback(c, f.id, f.data); err != nil {
				// Requeue the failed victim at the MRU end: leaving it at
				// the back makes every subsequent miss retry the same
				// writeback, livelocking callers inside a storage fault
				// window. Rotating lets the next eviction pick a
				// different (possibly clean) victim.
				p.lru.MoveToFront(e)
				return err
			}
		}
		p.removeLocked(e)
	}
	return nil
}

// View runs fn (which may be nil) on the page's bytes if a fresh copy is
// cached, and reports whether one was. A miss (absent, or stale under the
// coherence directory) has no fetch side effects and is counted as a probe,
// not a demand miss.
func (p *Pool) View(c *sim.Clock, id page.ID, fn func(data []byte)) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, _ := p.locked(c, id, false)
	if f == nil {
		return false
	}
	if fn != nil {
		fn(f.data)
	}
	return true
}

// Read runs fn (which may be nil) on the page's bytes, fetching on miss.
func (p *Pool) Read(c *sim.Clock, id page.ID, fn func(data []byte)) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, err := p.locked(c, id, true)
	if err != nil {
		return err
	}
	if fn != nil {
		fn(f.data)
	}
	return nil
}

// Get returns a copy of the page bytes, fetching on miss.
func (p *Pool) Get(c *sim.Clock, id page.ID) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, err := p.locked(c, id, true)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(f.data))
	copy(out, f.data)
	return out, nil
}

// Contains reports whether the page is cached (no fetch, no LRU effect on
// miss, no counter effect).
func (p *Pool) Contains(id page.ID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.frames[id]
	return ok
}

// Mutate applies fn to the cached page under the pool lock, fetching on
// miss, and marks the page dirty. When the pool is coherent and the data
// carries its own stamp, the frame is re-stamped from the mutated bytes so
// a commit-applying writer keeps its own frame fresh across the publish.
func (p *Pool) Mutate(c *sim.Clock, id page.ID, fn func(data []byte) error) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, err := p.locked(c, id, true)
	if err != nil {
		return err
	}
	if err := fn(f.data); err != nil {
		return err
	}
	f.dirty = true
	if p.stampOf != nil {
		if s := p.stampOf(f.data); s > f.stamp {
			f.stamp = s
		}
	}
	return nil
}

// Install inserts page bytes directly (e.g. a freshly created page),
// marking it dirty if requested. data becomes the pool's, as a Fetcher's
// result does; the bytes it replaces are released, unless data is that same
// buffer installed again.
func (p *Pool) Install(c *sim.Clock, id page.ID, data []byte, dirty bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.frames[id]; ok {
		f := e.Value.(*frame)
		if len(f.data) > 0 && (len(data) == 0 || &f.data[0] != &data[0]) {
			page.Release(f.data)
		}
		f.data = data
		f.dirty = f.dirty || dirty
		f.stamp = p.installStamp(id, data)
		p.lru.MoveToFront(e)
		return nil
	}
	if err := p.evictIfFullLocked(c); err != nil {
		return err
	}
	f := &frame{id: id, data: data, dirty: dirty, stamp: p.installStamp(id, data)}
	p.frames[id] = p.lru.PushFront(f)
	if p.coh != nil {
		p.coh.Note(id)
	}
	return nil
}

func (p *Pool) installStamp(id page.ID, data []byte) uint64 {
	if p.stampOf != nil {
		return p.stampOf(data)
	}
	if p.coh != nil {
		return p.coh.Version(id)
	}
	return 0
}

// Invalidate drops a page without writeback (coherence message from a
// remote writer).
func (p *Pool) Invalidate(id page.ID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.frames[id]; ok {
		p.removeLocked(e)
	}
}

// InvalidateAll empties the pool without writeback (a crash, or a retired
// compute node handing its frames back).
func (p *Pool) InvalidateAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for e := p.lru.Front(); e != nil; e = p.lru.Front() {
		p.removeLocked(e)
	}
}

// FlushAll writes back every dirty page. A failed writeback keeps that
// page dirty (so the next checkpoint retries it) and flushing continues
// with the remaining pages; all failures are aggregated into the returned
// error so a checkpointer can tell exactly what remains unflushed.
func (p *Pool) FlushAll(c *sim.Clock) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var errs []error
	for e := p.lru.Front(); e != nil; e = e.Next() {
		f := e.Value.(*frame)
		if !f.dirty {
			continue
		}
		if p.writeback != nil {
			if err := p.writeback(c, f.id, f.data); err != nil {
				errs = append(errs, fmt.Errorf("page %d: %w", f.id, err))
				continue
			}
		}
		f.dirty = false
	}
	return errors.Join(errs...)
}

// DirtyIDs returns the IDs of dirty pages (checkpointing support).
func (p *Pool) DirtyIDs() []page.ID {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []page.ID
	for e := p.lru.Front(); e != nil; e = e.Next() {
		if f := e.Value.(*frame); f.dirty {
			out = append(out, f.id)
		}
	}
	return out
}

// RemotePool is a page cache hosted in a disaggregated memory node and
// accessed with one-sided RDMA. It is the "remote memory pool" tier of
// LegoBase and the elastic shared buffer of PolarDB Serverless.
type RemotePool struct {
	cfg      *sim.Config
	qp       *rdma.QP
	pageSize int
	capacity int

	coh     *coherence.Handle
	stampOf StampFunc

	mu    sync.Mutex
	lru   *list.List // of page.ID; front = most recent
	index map[page.ID]*remoteEntry
	free  []uint64 // free region addresses

	staleHits atomic.Int64
}

type remoteEntry struct {
	addr uint64
	// stamp is the commit stamp of the bytes last written to the frame.
	stamp uint64
	elem  *list.Element
}

// NewRemotePool carves capacity page frames out of the node's registered
// memory starting at base.
func NewRemotePool(cfg *sim.Config, node *rdma.Node, stats *rdma.Stats, base uint64, capacity, pageSize int) *RemotePool {
	rp := &RemotePool{
		cfg:      cfg,
		qp:       rdma.Connect(cfg, node, stats),
		pageSize: pageSize,
		capacity: capacity,
		lru:      list.New(),
		index:    make(map[page.ID]*remoteEntry),
	}
	for i := capacity - 1; i >= 0; i-- {
		rp.free = append(rp.free, base+uint64(i*pageSize))
	}
	return rp
}

// SetCoherence subscribes the remote pool to a coherence directory;
// entries are stamped from the page bytes on Put and validated on Get.
func (r *RemotePool) SetCoherence(h *coherence.Handle, stampOf StampFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.coh = h
	r.stampOf = stampOf
	for id := range r.index {
		h.Note(id)
	}
}

// Capacity reports the frame count.
func (r *RemotePool) Capacity() int { return r.capacity }

// Len reports resident pages.
func (r *RemotePool) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.index)
}

// StaleHits reports resident entries rejected by coherence validation.
func (r *RemotePool) StaleHits() int64 { return r.staleHits.Load() }

// Contains reports residency without RDMA traffic (the compute node keeps
// the directory locally; PolarDB Serverless keeps it on the memory node's
// control plane, which we fold into the directory lookup).
func (r *RemotePool) Contains(id page.ID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.index[id]
	return ok
}

// dropLocked unmaps an entry and returns its frame to the free list.
func (r *RemotePool) dropLocked(id page.ID, e *remoteEntry) {
	r.lru.Remove(e.elem)
	delete(r.index, id)
	r.free = append(r.free, e.addr)
	if r.coh != nil {
		r.coh.Forget(id)
	}
}

// Get reads the page into buf via one-sided RDMA. Returns false on miss —
// including a coherence miss, where the resident copy's stamp trails the
// directory version and the entry is dropped instead of served. The pool
// lock is held across the verb: a mapping and the bytes in its frame change
// together or not at all, so no reader sees a frame another caller is
// filling, or the page it held before.
func (r *RemotePool) Get(c *sim.Clock, id page.ID, buf []byte) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.index[id]
	if !ok {
		return false, nil
	}
	if r.coh != nil && !r.coh.Validate(id, e.stamp) {
		r.staleHits.Add(1)
		r.dropLocked(id, e)
		return false, nil
	}
	r.lru.MoveToFront(e.elem)
	if err := r.qp.Read(c, e.addr, buf[:r.pageSize]); err != nil {
		return false, err
	}
	return true, nil
}

// Put writes the page to remote memory, evicting the LRU page if needed.
// Evicted pages are simply dropped: the remote pool caches pages that are
// durable elsewhere (storage tier), like LegoBase's remote memory. The
// entry's stamp always describes the bytes in its frame, so demoting an old
// copy after a newer commit published, or over a newer resident copy, leaves
// the entry stale (caught on Get) rather than masking the newer version. The
// bytes are written either way: commits can apply out of LSN order, and the
// lower-stamped image may be the more complete one.
func (r *RemotePool) Put(c *sim.Clock, id page.ID, data []byte) error {
	var stamp uint64
	if r.stampOf != nil {
		stamp = r.stampOf(data)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.index[id]
	if ok {
		r.lru.MoveToFront(e.elem)
		e.stamp = stamp
	} else {
		if len(r.free) == 0 {
			victim := r.lru.Back().Value.(page.ID)
			r.dropLocked(victim, r.index[victim])
		}
		e = &remoteEntry{addr: r.free[len(r.free)-1], stamp: stamp}
		r.free = r.free[:len(r.free)-1]
		e.elem = r.lru.PushFront(id)
		r.index[id] = e
		if r.coh != nil {
			r.coh.Note(id)
		}
	}
	if err := r.qp.Write(c, e.addr, data[:r.pageSize]); err != nil {
		// The frame holds an old, torn or (for a new entry) the evicted
		// victim's version; unmap it so readers miss to the authoritative
		// tier instead of reading the wrong bytes.
		r.dropLocked(id, e)
		return err
	}
	return nil
}

// Drop removes a page from the remote pool (invalidation).
func (r *RemotePool) Drop(id page.ID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.index[id]; ok {
		r.dropLocked(id, e)
	}
}

// Invalidate implements coherence.Tier.
func (r *RemotePool) Invalidate(id page.ID) { r.Drop(id) }

// IDs returns the resident page IDs (used by recovery: a rebooted compute
// node can repopulate from remote memory instead of storage).
func (r *RemotePool) IDs() []page.ID {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]page.ID, 0, len(r.index))
	for id := range r.index {
		out = append(out, id)
	}
	return out
}

// TwoTier is LegoBase's two-level cache: a small compute-local LRU backed
// by a large remote-memory LRU, backed by the storage fetcher. Pages
// evicted from the local tier are demoted to the remote tier.
type TwoTier struct {
	Local  *Pool
	Remote *RemotePool
	fetch  Fetcher
	// Capture, when set, restamps a copy of every page demoted into the
	// remote tier before it is written there (engine.Pipeline.Capture).
	Capture func(img []byte)

	localHits  atomic.Int64
	remoteHits atomic.Int64
	storage    atomic.Int64
}

// NewTwoTier wires the two tiers. Dirty local evictions are demoted into
// the remote pool via the pool's writeback hook, and a local miss fills from
// below.
func NewTwoTier(cfg *sim.Config, localCap int, remote *RemotePool, fetch Fetcher) *TwoTier {
	t := &TwoTier{Remote: remote, fetch: fetch}
	t.Local = NewPool(cfg, localCap, t.below, func(c *sim.Clock, id page.ID, data []byte) error {
		if t.Capture != nil {
			img := page.Alloc(len(data))
			defer page.Release(img)
			copy(img, data)
			t.Capture(img)
			data = img
		}
		return remote.Put(c, id, data)
	})
	return t
}

// SetCoherence registers both tiers with the directory (as name.local and
// name.remote) and wires stamp validation into each.
func (t *TwoTier) SetCoherence(d *coherence.Directory, name string, stampOf StampFunc) {
	t.Local.SetCoherence(d.Register(name+".local", t.Local), stampOf)
	t.Remote.SetCoherence(d.Register(name+".remote", t.Remote), stampOf)
}

// below loads the page from under the local tier: the remote pool, else
// storage (which also populates the remote pool). It is the local pool's
// Fetcher, so a frame evicted between Read and a following Local.Mutate is
// refilled instead of failing the mutate with ErrNoFetcher.
func (t *TwoTier) below(c *sim.Clock, id page.ID) ([]byte, error) {
	buf := page.Alloc(t.Remote.pageSize)
	ok, err := t.Remote.Get(c, id, buf)
	if !ok {
		// A miss or an error: the probe buffer was never shared, and the
		// storage fetch below can fill it.
		page.Release(buf)
	}
	if err != nil {
		return nil, err
	}
	if ok {
		t.remoteHits.Add(1)
		return buf, nil
	}
	t.storage.Add(1)
	if buf, err = t.fetch(c, id); err != nil {
		return nil, err
	}
	if err := t.Remote.Put(c, id, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Read runs fn (which may be nil) on the page's bytes, trying local, then
// remote, then storage. The local probe goes through View so a hit is
// atomic with validation (a Contains-then-Get pair raced invalidations
// between the two lock acquisitions). On a miss fn runs on the fetched
// buffer while it is still private; then that buffer becomes the frame.
func (t *TwoTier) Read(c *sim.Clock, id page.ID, fn func(data []byte)) error {
	if t.Local.View(c, id, fn) {
		t.localHits.Add(1)
		return nil
	}
	buf, err := t.below(c, id)
	if err != nil {
		return err
	}
	if fn != nil {
		fn(buf)
	}
	return t.Local.Install(c, id, buf, false)
}

// Get returns a copy of the page bytes, for callers that must own them.
func (t *TwoTier) Get(c *sim.Clock, id page.ID) ([]byte, error) {
	var out []byte
	if err := t.Read(c, id, func(data []byte) { out = append([]byte(nil), data...) }); err != nil {
		return nil, err
	}
	return out, nil
}

// Mutate updates the page in the local tier (write path; demotion to the
// remote tier happens on eviction, and durability is the engine's log).
func (t *TwoTier) Mutate(c *sim.Clock, id page.ID, fn func(data []byte) error) error {
	if !t.Local.View(c, id, nil) {
		// Pull a fresh copy into the local tier first (a stale local
		// frame was just dropped by the probe's validation).
		if err := t.Read(c, id, nil); err != nil {
			return err
		}
	}
	return t.Local.Mutate(c, id, fn)
}

// TierStats reports (local hits, remote hits, storage fetches).
func (t *TwoTier) TierStats() (local, remote, storage int64) {
	return t.localHits.Load(), t.remoteHits.Load(), t.storage.Load()
}

// CombinedHitRatio reports the fraction of accesses served without
// touching storage.
func (t *TwoTier) CombinedHitRatio() float64 {
	l, r, s := t.TierStats()
	total := l + r + s
	if total == 0 {
		return 0
	}
	return float64(l+r) / float64(total)
}
