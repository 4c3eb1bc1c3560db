// Package lsm implements a dLSM-style LSM-tree index on disaggregated
// memory (§3.1): compute-side mutable memtables (sharded to admit
// concurrent writers), immutable sorted runs flushed to the remote memory
// pool with large one-sided writes, client-cached bloom filters and block
// indexes so a point lookup costs at most one RDMA read per probed run,
// and compaction that can run either client-driven (download-merge-upload)
// or offloaded to the memory node (dLSM's remote compaction), making the
// offloading benefit measurable.
package lsm

import (
	"encoding/binary"
	"errors"
	"sort"
	"sync"

	"github.com/disagglab/disagg/internal/memnode"
	"github.com/disagglab/disagg/internal/rdma"
	"github.com/disagglab/disagg/internal/sim"
)

// Tombstone is the reserved value marking a deleted key.
const Tombstone = ^uint64(0)

const (
	entrySize    = 16 // key + value
	blockEntries = 16 // entries per index block (one RDMA read)
)

// ErrNoSpace is returned when the memory pool cannot host a flush.
var ErrNoSpace = errors.New("lsm: memory pool full")

// Options tune the tree.
type Options struct {
	// Shards is the number of independent LSM shards (concurrent
	// writers hash across them).
	Shards int
	// MemtableEntries triggers a flush when a shard's memtable reaches
	// this size.
	MemtableEntries int
	// CompactAt triggers compaction when a shard accumulates this many
	// runs.
	CompactAt int
	// RemoteCompaction offloads merges to the memory node (dLSM);
	// otherwise the client downloads, merges, and re-uploads.
	RemoteCompaction bool
}

// DefaultOptions returns dLSM-ish defaults.
func DefaultOptions() Options {
	return Options{Shards: 8, MemtableEntries: 1024, CompactAt: 4, RemoteCompaction: true}
}

// run is one immutable sorted run in remote memory.
type run struct {
	addr  uint64
	count int
	min   uint64
	max   uint64
	// bloom is a client-cached blocked bloom filter (built at flush).
	bloom []uint64
	// blockMins is the client-cached sparse index: first key of every
	// block of blockEntries entries.
	blockMins []uint64
}

func (r *run) sizeBytes() uint64 { return uint64(r.count) * entrySize }

type shard struct {
	mu   sync.Mutex
	mem  map[uint64]uint64
	runs []*run // newest first
	// compacting serializes compactions per shard: while set, only
	// flushes may touch runs (they prepend), so the compacted suffix
	// stays stable.
	compacting bool
}

// Tree is a sharded LSM index on a memory pool. Safe for concurrent use.
type Tree struct {
	cfg    *sim.Config
	pool   *memnode.Pool
	opt    Options
	shards []*shard

	compactions int64
	statsMu     sync.Mutex
}

// New creates the tree and registers the remote-compaction RPC handler on
// the pool's node.
func New(cfg *sim.Config, pool *memnode.Pool, opt Options) *Tree {
	if opt.Shards < 1 {
		opt.Shards = 1
	}
	if opt.MemtableEntries < 1 {
		opt.MemtableEntries = 1024
	}
	if opt.CompactAt < 2 {
		opt.CompactAt = 2
	}
	t := &Tree{cfg: cfg, pool: pool, opt: opt}
	for i := 0; i < opt.Shards; i++ {
		t.shards = append(t.shards, &shard{mem: make(map[uint64]uint64)})
	}
	pool.Node().Handle("lsm.compact", t.remoteCompactHandler)
	return t
}

func hash64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xFF51AFD7ED558CCD
	k ^= k >> 33
	return k
}

func (t *Tree) shardOf(key uint64) *shard {
	return t.shards[hash64(key)%uint64(len(t.shards))]
}

// Client is one compute-side user with its own queue pair.
type Client struct {
	t  *Tree
	qp *rdma.QP
}

// Attach creates a client; stats may be nil.
func (t *Tree) Attach(stats *rdma.Stats) *Client {
	return &Client{t: t, qp: t.pool.Connect(stats)}
}

// Put inserts or updates a key. Memtable inserts are local-DRAM cheap; a
// full memtable flushes synchronously on this client's clock (dLSM uses
// background flushing; charging the writer is the conservative choice).
func (c *Client) Put(clk *sim.Clock, key, val uint64) error {
	s := c.t.shardOf(key)
	s.mu.Lock()
	s.mem[key] = val
	clk.Advance(c.t.cfg.DRAM.Cost(entrySize))
	if len(s.mem) < c.t.opt.MemtableEntries {
		s.mu.Unlock()
		return nil
	}
	if err := c.flushLocked(clk, s); err != nil {
		s.mu.Unlock()
		return err
	}
	needCompact := len(s.runs) >= c.t.opt.CompactAt
	s.mu.Unlock()
	if needCompact {
		return c.compact(clk, s)
	}
	return nil
}

// Delete writes a tombstone.
func (c *Client) Delete(clk *sim.Clock, key uint64) error {
	return c.Put(clk, key, Tombstone)
}

// Get returns the newest value for key, probing memtable then runs
// newest-first with bloom filters.
func (c *Client) Get(clk *sim.Clock, key uint64) (uint64, bool, error) {
	s := c.t.shardOf(key)
	s.mu.Lock()
	if v, ok := s.mem[key]; ok {
		s.mu.Unlock()
		clk.Advance(c.t.cfg.DRAM.Cost(entrySize))
		if v == Tombstone {
			return 0, false, nil
		}
		return v, true, nil
	}
	runs := make([]*run, len(s.runs))
	copy(runs, s.runs)
	s.mu.Unlock()
	clk.Advance(c.t.cfg.DRAM.Cost(entrySize))

	for _, r := range runs {
		if key < r.min || key > r.max || !bloomMaybe(r.bloom, key) {
			continue
		}
		v, ok, err := c.searchRun(clk, r, key)
		if err != nil {
			return 0, false, err
		}
		if ok {
			if v == Tombstone {
				return 0, false, nil
			}
			return v, true, nil
		}
	}
	return 0, false, nil
}

// searchRun finds key in a run: local sparse-index lookup picks the block,
// one RDMA read fetches it.
func (c *Client) searchRun(clk *sim.Clock, r *run, key uint64) (uint64, bool, error) {
	// Last block whose min <= key.
	b := sort.Search(len(r.blockMins), func(i int) bool { return r.blockMins[i] > key }) - 1
	if b < 0 {
		return 0, false, nil
	}
	start := b * blockEntries
	n := r.count - start
	if n > blockEntries {
		n = blockEntries
	}
	buf := make([]byte, n*entrySize)
	if err := c.qp.Read(clk, r.addr+uint64(start*entrySize), buf); err != nil {
		return 0, false, err
	}
	for i := 0; i < n; i++ {
		k := binary.LittleEndian.Uint64(buf[i*entrySize:])
		if k == key {
			return binary.LittleEndian.Uint64(buf[i*entrySize+8:]), true, nil
		}
		if k > key {
			break
		}
	}
	return 0, false, nil
}

// flushLocked sorts the memtable and writes it as a new run (shard lock
// held by the caller).
func (c *Client) flushLocked(clk *sim.Clock, s *shard) error {
	keys := make([]uint64, 0, len(s.mem))
	for k := range s.mem {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	buf := make([]byte, len(keys)*entrySize)
	for i, k := range keys {
		binary.LittleEndian.PutUint64(buf[i*entrySize:], k)
		binary.LittleEndian.PutUint64(buf[i*entrySize+8:], s.mem[k])
	}
	clk.Advance(c.t.cfg.CPU.Cost(len(buf))) // sort/encode
	r, err := c.uploadRun(clk, buf, keys)
	if err != nil {
		return err
	}
	s.runs = append([]*run{r}, s.runs...)
	s.mem = make(map[uint64]uint64)
	return nil
}

// uploadRun writes a sorted entry buffer to the pool and builds the
// client-cached metadata.
func (c *Client) uploadRun(clk *sim.Clock, buf []byte, keys []uint64) (*run, error) {
	addr, err := c.t.pool.Alloc(uint64(len(buf)))
	if err != nil {
		return nil, ErrNoSpace
	}
	if err := c.qp.Write(clk, addr, buf); err != nil {
		return nil, err
	}
	r := &run{addr: addr, count: len(keys)}
	if len(keys) > 0 {
		r.min, r.max = keys[0], keys[len(keys)-1]
	}
	r.bloom = buildBloom(keys)
	for i := 0; i < len(keys); i += blockEntries {
		r.blockMins = append(r.blockMins, keys[i])
	}
	return r, nil
}

// CompactAll merges every shard's runs (test/benchmark barrier).
func (c *Client) CompactAll(clk *sim.Clock) error {
	for _, s := range c.t.shards {
		if err := c.compact(clk, s); err != nil {
			return err
		}
	}
	return nil
}

// compact merges all runs of the shard into one.
func (c *Client) compact(clk *sim.Clock, s *shard) error {
	s.mu.Lock()
	if s.compacting || len(s.runs) < 2 {
		s.mu.Unlock()
		return nil
	}
	s.compacting = true
	runs := make([]*run, len(s.runs))
	copy(runs, s.runs)
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.compacting = false
		s.mu.Unlock()
	}()
	var merged *run
	var err error
	if c.t.opt.RemoteCompaction {
		merged, err = c.compactRemote(clk, runs)
	} else {
		merged, err = c.compactLocal(clk, runs)
	}
	if err != nil {
		return err
	}
	s.mu.Lock()
	// Replace exactly the runs we merged (new flushes may have
	// prepended fresher runs meanwhile).
	keep := s.runs[:len(s.runs)-len(runs)]
	s.runs = append(append([]*run{}, keep...), merged)
	s.mu.Unlock()
	for _, r := range runs {
		c.t.pool.Free(r.addr)
	}
	c.t.statsMu.Lock()
	c.t.compactions++
	c.t.statsMu.Unlock()
	return nil
}

// Compactions reports how many merges have run.
func (t *Tree) Compactions() int64 {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	return t.compactions
}

// compactLocal downloads every run, merges on the compute node, and
// uploads the result: traffic = 2x data size.
func (c *Client) compactLocal(clk *sim.Clock, runs []*run) (*run, error) {
	merged := make(map[uint64]uint64)
	// Oldest first so newer runs overwrite.
	for i := len(runs) - 1; i >= 0; i-- {
		r := runs[i]
		buf := make([]byte, r.sizeBytes())
		if err := c.qp.Read(clk, r.addr, buf); err != nil {
			return nil, err
		}
		for j := 0; j < r.count; j++ {
			k := binary.LittleEndian.Uint64(buf[j*entrySize:])
			v := binary.LittleEndian.Uint64(buf[j*entrySize+8:])
			merged[k] = v
		}
	}
	keys := make([]uint64, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]byte, len(keys)*entrySize)
	for i, k := range keys {
		binary.LittleEndian.PutUint64(out[i*entrySize:], k)
		binary.LittleEndian.PutUint64(out[i*entrySize+8:], merged[k])
	}
	clk.Advance(c.t.cfg.CPU.Cost(len(out) * 2)) // merge cost
	return c.uploadRun(clk, out, keys)
}

// compactRemote ships only run descriptors to the memory node; the node
// merges with local-memory accesses and replies with the new run address.
// Traffic = a few hundred bytes instead of 2x data size.
func (c *Client) compactRemote(clk *sim.Clock, runs []*run) (*run, error) {
	req := make([]byte, 4+len(runs)*12)
	binary.LittleEndian.PutUint32(req, uint32(len(runs)))
	for i, r := range runs {
		binary.LittleEndian.PutUint64(req[4+i*12:], r.addr)
		binary.LittleEndian.PutUint32(req[4+i*12+8:], uint32(r.count))
	}
	resp, err := c.qp.Call(clk, "lsm.compact", req)
	if err != nil {
		return nil, err
	}
	return decodeRunMeta(resp)
}

// Run metadata wire format (remote compaction response):
// addr(8) count(4) nMins(4) nBloom(4) mins... bloom... min(8) max(8).
func encodeRunMeta(r *run) []byte {
	out := make([]byte, 20+len(r.blockMins)*8+len(r.bloom)*8+16)
	binary.LittleEndian.PutUint64(out, r.addr)
	binary.LittleEndian.PutUint32(out[8:], uint32(r.count))
	binary.LittleEndian.PutUint32(out[12:], uint32(len(r.blockMins)))
	binary.LittleEndian.PutUint32(out[16:], uint32(len(r.bloom)))
	off := 20
	for _, m := range r.blockMins {
		binary.LittleEndian.PutUint64(out[off:], m)
		off += 8
	}
	for _, w := range r.bloom {
		binary.LittleEndian.PutUint64(out[off:], w)
		off += 8
	}
	binary.LittleEndian.PutUint64(out[off:], r.min)
	binary.LittleEndian.PutUint64(out[off+8:], r.max)
	return out
}

func decodeRunMeta(p []byte) (*run, error) {
	if len(p) < 36 {
		return nil, errors.New("lsm: bad remote compaction response")
	}
	r := &run{
		addr:  binary.LittleEndian.Uint64(p),
		count: int(binary.LittleEndian.Uint32(p[8:])),
	}
	nMins := int(binary.LittleEndian.Uint32(p[12:]))
	nBloom := int(binary.LittleEndian.Uint32(p[16:]))
	if len(p) < 20+(nMins+nBloom)*8+16 {
		return nil, errors.New("lsm: truncated compaction response")
	}
	off := 20
	for i := 0; i < nMins; i++ {
		r.blockMins = append(r.blockMins, binary.LittleEndian.Uint64(p[off:]))
		off += 8
	}
	for i := 0; i < nBloom; i++ {
		r.bloom = append(r.bloom, binary.LittleEndian.Uint64(p[off:]))
		off += 8
	}
	r.min = binary.LittleEndian.Uint64(p[off:])
	r.max = binary.LittleEndian.Uint64(p[off+8:])
	return r, nil
}

// remoteCompactHandler runs on the memory node: merge the given runs with
// node-local memory accesses (DRAM cost charged to the waiting caller, but
// no fabric transfer).
func (t *Tree) remoteCompactHandler(clk *sim.Clock, req []byte) []byte {
	if len(req) < 4 {
		return nil
	}
	n := int(binary.LittleEndian.Uint32(req))
	if len(req) < 4+n*12 {
		return nil
	}
	mem := t.pool.Node().Mem
	merged := make(map[uint64]uint64)

	for i := n - 1; i >= 0; i-- { // oldest first
		addr := binary.LittleEndian.Uint64(req[4+i*12:])
		count := int(binary.LittleEndian.Uint32(req[4+i*12+8:]))
		buf := make([]byte, count*entrySize)
		if err := mem.Read(addr, buf); err != nil {
			return nil
		}
		clk.Advance(t.cfg.DRAM.Cost(len(buf)))
		for j := 0; j < count; j++ {
			merged[binary.LittleEndian.Uint64(buf[j*entrySize:])] = binary.LittleEndian.Uint64(buf[j*entrySize+8:])
		}

	}
	keys := make([]uint64, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]byte, len(keys)*entrySize)
	for i, k := range keys {
		binary.LittleEndian.PutUint64(out[i*entrySize:], k)
		binary.LittleEndian.PutUint64(out[i*entrySize+8:], merged[k])
	}
	clk.Advance(t.cfg.CPU.Cost(len(out) * 2))
	addr, err := t.pool.Alloc(uint64(len(out)))
	if err != nil {
		return nil
	}
	if err := mem.Write(addr, out); err != nil {
		return nil
	}
	clk.Advance(t.cfg.DRAM.Cost(len(out)))
	r := &run{addr: addr, count: len(keys)}
	if len(keys) > 0 {
		r.min, r.max = keys[0], keys[len(keys)-1]
	}
	r.bloom = buildBloom(keys)
	for i := 0; i < len(keys); i += blockEntries {
		r.blockMins = append(r.blockMins, keys[i])
	}
	return encodeRunMeta(r)
}

// RunCount reports the total number of runs across shards.
func (t *Tree) RunCount() int {
	n := 0
	for _, s := range t.shards {
		s.mu.Lock()
		n += len(s.runs)
		s.mu.Unlock()
	}
	return n
}

// FlushAll flushes every shard's memtable (test/benchmark barrier).
func (c *Client) FlushAll(clk *sim.Clock) error {
	for _, s := range c.t.shards {
		s.mu.Lock()
		if len(s.mem) > 0 {
			if err := c.flushLocked(clk, s); err != nil {
				s.mu.Unlock()
				return err
			}
		}
		s.mu.Unlock()
	}
	return nil
}

// bloom: a simple 8-bits-per-key blocked filter with 2 probes.
func buildBloom(keys []uint64) []uint64 {
	words := (len(keys) + 7) / 8
	if words == 0 {
		words = 1
	}
	f := make([]uint64, words)
	for _, k := range keys {
		h1, h2 := hash64(k), hash64(k^0x5BD1E995)
		f[(h1/64)%uint64(len(f))] |= 1 << (h1 % 64)
		f[(h2/64)%uint64(len(f))] |= 1 << (h2 % 64)
	}
	return f
}

func bloomMaybe(f []uint64, k uint64) bool {
	if len(f) == 0 {
		return true
	}
	h1, h2 := hash64(k), hash64(k^0x5BD1E995)
	if f[(h1/64)%uint64(len(f))]&(1<<(h1%64)) == 0 {
		return false
	}
	return f[(h2/64)%uint64(len(f))]&(1<<(h2%64)) != 0
}
