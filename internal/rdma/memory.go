// Package rdma models an RDMA-capable fabric at the verbs level: registered
// memory regions, queue pairs with one-sided READ/WRITE/CAS/FAA and
// two-sided SEND/RECV RPC, doorbell batching, and the persistence semantics
// of remote persistent memory (a one-sided write completes before data
// reaches the persistence domain; a trailing read or a server-side flush is
// required — Kalia et al., §2.3 of the tutorial).
//
// Time is virtual (see internal/sim) but state is real: remote memory is a
// sparse, demand-allocated, word-atomic byte array, so concurrent
// compare-and-swap contention, torn multi-word reads, and retry storms
// behave as they do on real hardware, while the host pays only for the
// part of a registered region the simulation touches. A retired region
// hands its chunks back (Memory.Release) for the next region's first
// writes; a crashed node's wipe drops them to the GC instead.
package rdma

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// chunkWords is the allocation unit of a Memory: 8192 words = 64 KiB. Pools
// are registered for capacity (512 MB–2 GB per harness cell) and touched
// sparsely, so the unit has to be small next to a region; but every touched
// chunk is one host allocation where the flat array was one per region, so
// it must not be small next to a working set either. At 64 KiB the quick
// suite allocates 1.1 % of the bytes the flat array did (bench
// alloc_share.rdma 0.52 → 0.013) and host_allocs_per_op stays inside its
// ±0.2 % run-to-run spread; a smaller chunk has almost no bytes left to
// save and only adds allocations.
const (
	chunkWords = 8192
	chunkBytes = chunkWords * 8
)

type chunk [chunkWords]atomic.Uint64

// Memory is a byte-addressable region with word (8-byte) atomicity — the
// same guarantee RDMA NICs give. Bulk reads and writes are performed word
// by word with atomic loads/stores: individual words are never torn, but a
// multi-word transfer can interleave with concurrent writers, exactly like
// a one-sided READ racing a remote writer. Higher layers (RACE, Sherman)
// must — and do — handle that with versions and checksums.
//
// The region is sparse: it is a table of fixed-size chunks, each allocated
// by the first write, CAS, FAA or Store64 that lands in it. A chunk that
// was never written reads as zeros and costs nothing, so registering a
// region is O(size/64 KiB) pointers, not O(size) zeroed and page-faulted
// bytes. A region smaller than one chunk still allocates a whole chunk on
// its first write. Release hands a retired region's chunks to a bounded
// spare list that later first writes, in any region, draw from zeroed.
type Memory struct {
	chunks []atomic.Pointer[chunk]
	size   uint64
}

// NewMemory registers a region of the given size in bytes. No backing
// memory is allocated until it is written.
func NewMemory(size int) *Memory {
	if size < 0 {
		size = 0
	}
	n := (uint64(size) + chunkBytes - 1) / chunkBytes
	return &Memory{chunks: make([]atomic.Pointer[chunk], n), size: uint64(size)}
}

// Size reports the usable size in bytes.
func (m *Memory) Size() uint64 { return m.size }

// ErrOutOfBounds reports an access outside the registered region.
type ErrOutOfBounds struct {
	Addr uint64
	Len  int
	Size uint64
}

func (e *ErrOutOfBounds) Error() string {
	return fmt.Sprintf("rdma: access [%d,%d) outside region of %d bytes", e.Addr, e.Addr+uint64(e.Len), e.Size)
}

func (m *Memory) check(addr uint64, n int) error {
	if n < 0 || addr > m.size || uint64(n) > m.size-addr {
		return &ErrOutOfBounds{Addr: addr, Len: n, Size: m.size}
	}
	return nil
}

// touch returns chunk ci, installing a zeroed one (newChunk: a spare when
// there is one) if this is its first write. Racing first writers agree on
// one chunk: the CAS admits a single winner. The loop only repeats when wipe
// drops the winner's chunk in between.
func (m *Memory) touch(ci uint64) *chunk {
	slot := &m.chunks[ci]
	var fresh *chunk
	for {
		if c := slot.Load(); c != nil {
			return c
		}
		if fresh == nil {
			fresh = newChunk()
		}
		if slot.CompareAndSwap(nil, fresh) {
			return fresh
		}
	}
}

// wipe drops every chunk to the GC, returning the region to zeros. An
// access that resolved its chunk before the drop completes against the
// dropped chunk and is lost, like a DMA racing a power failure. That is why
// wipe does not recycle: handed to another region, the chunk would take
// that late access as a write into memory it does not own.
func (m *Memory) wipe() {
	for i := range m.chunks {
		m.chunks[i].Store(nil)
	}
}

// Release hands every touched chunk to the spare list, returning the region
// to zeros; a later write touches a fresh chunk. It retires the region's
// memory node: no access may race it or follow it against the old contents,
// because the chunks are zeroed into other regions (under the race detector
// they are poisoned instead, and never reused).
func (m *Memory) Release() {
	for i := range m.chunks {
		if c := m.chunks[i].Swap(nil); c != nil {
			releaseChunk(c)
		}
	}
}

// Read copies len(p) bytes starting at addr into p. The chunk is resolved
// once per contiguous run inside it; a run in an untouched chunk reads as
// zeros and allocates nothing.
func (m *Memory) Read(addr uint64, p []byte) error {
	if err := m.check(addr, len(p)); err != nil {
		return err
	}
	for len(p) > 0 {
		off := int(addr % chunkBytes)
		n := min(len(p), chunkBytes-off)
		if c := m.chunks[addr/chunkBytes].Load(); c != nil {
			c.read(off, p[:n])
		} else {
			clear(p[:n])
		}
		addr += uint64(n)
		p = p[n:]
	}
	return nil
}

// Write copies p into the region starting at addr. Partial words at the
// edges are merged with a CAS loop so concurrent writers to adjacent bytes
// in the same word do not clobber each other.
func (m *Memory) Write(addr uint64, p []byte) error {
	if err := m.check(addr, len(p)); err != nil {
		return err
	}
	for len(p) > 0 {
		off := int(addr % chunkBytes)
		n := min(len(p), chunkBytes-off)
		m.touch(addr/chunkBytes).write(off, p[:n])
		addr += uint64(n)
		p = p[n:]
	}
	return nil
}

// read copies len(p) bytes starting at byte off of the chunk; the caller
// guarantees the run ends inside it.
func (c *chunk) read(off int, p []byte) {
	w := off / 8
	if b := off % 8; b != 0 {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], c[w].Load())
		p = p[copy(p, tmp[b:]):]
		w++
	}
	for ; len(p) >= 8; p, w = p[8:], w+1 {
		binary.LittleEndian.PutUint64(p, c[w].Load())
	}
	if len(p) > 0 {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], c[w].Load())
		copy(p, tmp[:])
	}
}

// write is read's counterpart: whole words are stored, edge words merged.
func (c *chunk) write(off int, p []byte) {
	w := off / 8
	if b := off % 8; b != 0 {
		n := min(len(p), 8-b)
		merge(&c[w], b, p[:n])
		p = p[n:]
		w++
	}
	for ; len(p) >= 8; p, w = p[8:], w+1 {
		c[w].Store(binary.LittleEndian.Uint64(p))
	}
	if len(p) > 0 {
		merge(&c[w], 0, p)
	}
}

// merge overwrites bytes [b, b+len(p)) of one word, leaving its other bytes
// as a concurrent writer last set them.
func merge(w *atomic.Uint64, b int, p []byte) {
	for {
		old := w.Load()
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], old)
		copy(tmp[b:], p)
		if w.CompareAndSwap(old, binary.LittleEndian.Uint64(tmp[:])) {
			return
		}
	}
}

func (m *Memory) checkWord(addr uint64) error {
	if addr%8 != 0 {
		return fmt.Errorf("rdma: atomic op at unaligned address %d", addr)
	}
	return m.check(addr, 8)
}

// word returns the word at addr for a mutating atomic, installing its chunk.
func (m *Memory) word(addr uint64) (*atomic.Uint64, error) {
	if err := m.checkWord(addr); err != nil {
		return nil, err
	}
	return &m.touch(addr / chunkBytes)[addr%chunkBytes/8], nil
}

// Load64 atomically loads the word at addr (8-byte aligned). Like Read it
// allocates nothing: a word in an untouched chunk is zero.
func (m *Memory) Load64(addr uint64) (uint64, error) {
	if err := m.checkWord(addr); err != nil {
		return 0, err
	}
	c := m.chunks[addr/chunkBytes].Load()
	if c == nil {
		return 0, nil
	}
	return c[addr%chunkBytes/8].Load(), nil
}

// Store64 atomically stores v at addr (8-byte aligned).
func (m *Memory) Store64(addr uint64, v uint64) error {
	w, err := m.word(addr)
	if err != nil {
		return err
	}
	w.Store(v)
	return nil
}

// CAS64 atomically compares-and-swaps the word at addr.
func (m *Memory) CAS64(addr uint64, old, new uint64) (bool, error) {
	w, err := m.word(addr)
	if err != nil {
		return false, err
	}
	return w.CompareAndSwap(old, new), nil
}

// Add64 atomically adds delta to the word at addr, returning the new value.
func (m *Memory) Add64(addr uint64, delta uint64) (uint64, error) {
	w, err := m.word(addr)
	if err != nil {
		return 0, err
	}
	return w.Add(delta), nil
}
