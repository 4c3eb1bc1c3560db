// Package memnode implements the disaggregated memory pool of §3: an
// RDMA-attached memory node with a registered region and a first-fit
// allocator with an RPC allocation interface (control-plane operations go
// through two-sided RPC; data-plane accesses are one-sided). The node's
// owner closes it when it retires, handing the region's touched memory back
// for the next node's first writes (Pool.Close).
package memnode

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/disagglab/disagg/internal/rdma"
	"github.com/disagglab/disagg/internal/sim"
)

// ErrOutOfMemory is returned when an allocation cannot be satisfied.
var ErrOutOfMemory = errors.New("memnode: out of memory")

// Pool is one memory node: an rdma.Node plus an allocator over its region.
type Pool struct {
	cfg  *sim.Config
	node *rdma.Node

	mu   sync.Mutex
	free []span // sorted by addr, coalesced
	used map[uint64]uint64
}

type span struct{ addr, size uint64 }

// New creates a memory node with the given capacity. The "allocn" RPC
// handler is registered so remote compute nodes allocate with two-sided
// calls (Coalescer).
func New(cfg *sim.Config, name string, size int) *Pool {
	p := &Pool{
		cfg:  cfg,
		node: rdma.NewNode(cfg, name, size),
		free: []span{{0, uint64(size)}},
		used: make(map[uint64]uint64),
	}
	// Coalesced allocation: k sizes in, k (addr, status) pairs out, one
	// RPC round trip for the lot. Per-item failures (fragmentation, OOM)
	// are reported per item, not for the whole batch.
	p.node.Handle("allocn", func(c *sim.Clock, req []byte) []byte {
		k := len(req) / 8
		out := make([]byte, 16*k)
		for i := 0; i < k; i++ {
			addr, err := p.Alloc(binary.LittleEndian.Uint64(req[8*i:]))
			if err != nil {
				binary.LittleEndian.PutUint64(out[16*i+8:], 1)
				continue
			}
			binary.LittleEndian.PutUint64(out[16*i:], addr)
		}
		return out
	})
	return p
}

// Node exposes the underlying RDMA node.
func (p *Pool) Node() *rdma.Node { return p.node }

// Connect returns a queue pair to this node.
func (p *Pool) Connect(stats *rdma.Stats) *rdma.QP {
	return rdma.Connect(p.cfg, p.node, stats)
}

// Alloc reserves size bytes (8-byte aligned) and returns the address.
// This is the node-local operation; remote callers use a Coalescer.
func (p *Pool) Alloc(size uint64) (uint64, error) {
	if size == 0 {
		size = 8
	}
	size = (size + 7) &^ 7
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, s := range p.free {
		if s.size >= size {
			addr := s.addr
			if s.size == size {
				p.free = append(p.free[:i], p.free[i+1:]...)
			} else {
				p.free[i] = span{s.addr + size, s.size - size}
			}
			p.used[addr] = size
			return addr, nil
		}
	}
	return 0, ErrOutOfMemory
}

// Free releases an allocation, coalescing adjacent free spans.
func (p *Pool) Free(addr uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	size, ok := p.used[addr]
	if !ok {
		return
	}
	delete(p.used, addr)
	p.free = append(p.free, span{addr, size})
	sort.Slice(p.free, func(i, j int) bool { return p.free[i].addr < p.free[j].addr })
	out := p.free[:0]
	for _, s := range p.free {
		if n := len(out); n > 0 && out[n-1].addr+out[n-1].size == s.addr {
			out[n-1].size += s.size
		} else {
			out = append(out, s)
		}
	}
	p.free = out
}

// Close retires the memory node: every touched chunk of its region goes
// back to the rdma spare list (rdma.Memory.Release) and the region reads as
// zeros. Its owner calls it once nothing accesses the node any more; the
// allocator's bookkeeping is left as it is.
func (p *Pool) Close() { p.node.Mem.Release() }

// FreeBytes reports unallocated capacity.
func (p *Pool) FreeBytes() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n uint64
	for _, s := range p.free {
		n += s.size
	}
	return n
}

// UsedBytes reports allocated capacity.
func (p *Pool) UsedBytes() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n uint64
	for _, s := range p.used {
		n += s
	}
	return n
}

type allocResult struct {
	addr uint64
	ok   bool
}

// Coalescer batches control-plane allocation RPCs from many workers into
// shared "allocn" calls: one round trip and one remote dispatch per flush
// instead of per allocation. Data-plane accesses stay one-sided.
type Coalescer struct {
	qp *rdma.QP
	b  *sim.Batcher[uint64, allocResult]
}

// NewCoalescer builds a coalescer over qp that flushes at maxItems
// allocations or after the virtual window.
func NewCoalescer(qp *rdma.QP, maxItems int, window time.Duration) *Coalescer {
	co := &Coalescer{qp: qp}
	co.b = sim.NewBatcher(qp.Config(), "memnode.allocn",
		sim.BatchPolicy{MaxItems: maxItems, Window: window}, co.flush)
	return co
}

func (co *Coalescer) flush(c *sim.Clock, sizes []uint64, out []allocResult) error {
	op := co.qp.Config().Begin(c, "memnode.alloc")
	req := make([]byte, 8*len(sizes))
	for i, s := range sizes {
		binary.LittleEndian.PutUint64(req[8*i:], s)
	}
	resp, err := co.qp.Call(c, "allocn", req)
	if err != nil {
		op.End(0)
		return err
	}
	if len(resp) != 16*len(sizes) {
		op.End(0)
		return fmt.Errorf("memnode: bad allocn response (%d bytes for %d sizes)", len(resp), len(sizes))
	}
	for i := range out {
		if binary.LittleEndian.Uint64(resp[16*i+8:]) == 0 {
			out[i] = allocResult{addr: binary.LittleEndian.Uint64(resp[16*i:]), ok: true}
		} else {
			out[i] = allocResult{}
		}
	}
	op.End(int64(len(req) + len(resp)))
	return nil
}

// Alloc reserves size bytes through the coalesced RPC path. The caller's
// clock lands at its batch's completion time.
func (co *Coalescer) Alloc(c *sim.Clock, size uint64) (uint64, error) {
	r, err := co.b.Submit(c, size)
	if err != nil {
		return 0, err
	}
	if !r.ok {
		return 0, ErrOutOfMemory
	}
	return r.addr, nil
}

// Stats snapshots the coalescer's flush counters.
func (co *Coalescer) Stats() sim.BatcherStats { return co.b.Stats() }
