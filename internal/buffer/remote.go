package buffer

import (
	"container/list"
	"sync"
	"sync/atomic"

	"github.com/disagglab/disagg/internal/buffer/coherence"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/rdma"
	"github.com/disagglab/disagg/internal/sim"
)

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
