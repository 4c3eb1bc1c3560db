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
