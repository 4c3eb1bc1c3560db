// Package remotecache implements Redy and CompuCache (§3.2): a remote
// cache built from *stranded* memory — DRAM fragments on machines whose
// cores are rented out — offering a lower-latency alternative to SSD
// caches. Redy's two challenges are modeled directly:
//
//   - Performance: an SLO-driven configurator picks the access mode
//     (one-sided reads vs batched two-sided RPC) based on the observed
//     congestion signal, trading latency against remote-CPU cost.
//
//   - Dynamics: stranded memory can be reclaimed by the VM allocator on
//     minutes notice; the cache migrates its contents to another node and
//     stays correct.
//
// CompuCache's near-data processing is included as a stored-procedure
// pointer chase: k dependent hops execute on the cache node in ONE round
// trip instead of k.
package remotecache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/disagglab/disagg/internal/memnode"
	"github.com/disagglab/disagg/internal/rdma"
	"github.com/disagglab/disagg/internal/sim"
)

// Package errors.
var (
	ErrNotFound = errors.New("remotecache: key not found")
	ErrNoNodes  = errors.New("remotecache: no stranded nodes available")
)

// AccessMode selects the RDMA configuration Redy tunes.
type AccessMode int

// Access modes.
const (
	// ModeOneSided reads values with one-sided verbs (lowest latency,
	// no remote CPU).
	ModeOneSided AccessMode = iota
	// ModeRPC batches gets through the node CPU (higher base latency,
	// but cheaper under NIC congestion).
	ModeRPC
)

// SLO is the latency target driving configuration.
type SLO struct {
	// TargetP99 is the latency objective for Get.
	TargetP99 time.Duration
	// CongestionSwitch is the queued fraction above which the
	// configurator flips to RPC mode.
	CongestionSwitch float64
}

// DefaultSLO returns a 10µs target.
func DefaultSLO() SLO { return SLO{TargetP99: 10 * time.Microsecond, CongestionSwitch: 0.3} }

// Cache is a Redy-style remote cache over one active stranded node with
// standbys for migration.
type Cache struct {
	cfg       *sim.Config
	slo       SLO
	ValueSize int

	mu      sync.Mutex
	nodes   []*memnode.Pool // nodes[active] holds the data
	active  int
	index   map[uint64]uint64 // key -> remote addr (client-cached index)
	mode    AccessMode
	getHist int64
	// Migrations counts reclamation-driven moves.
	Migrations int
}

// New builds a cache with n stranded-memory nodes of size bytes each.
func New(cfg *sim.Config, slo SLO, n, size, valueSize int) (*Cache, error) {
	if n < 1 {
		return nil, ErrNoNodes
	}
	c := &Cache{cfg: cfg, slo: slo, ValueSize: valueSize, index: make(map[uint64]uint64)}
	for i := 0; i < n; i++ {
		c.nodes = append(c.nodes, memnode.New(cfg, fmt.Sprintf("stranded-%d", i), size))
	}
	c.registerHandlers(c.nodes[0])
	return c, nil
}

func (c *Cache) registerHandlers(p *memnode.Pool) {
	p.Node().Handle("cache.get", func(clk *sim.Clock, req []byte) []byte {
		if len(req) != 8 {
			return nil
		}
		addr := binary.LittleEndian.Uint64(req)
		out := make([]byte, c.ValueSize)
		if p.Node().Mem.Read(addr, out) != nil {
			return nil
		}
		clk.Advance(c.cfg.DRAM.Cost(c.ValueSize))
		return out
	})
	p.Node().Handle("cache.chase", func(clk *sim.Clock, req []byte) []byte {
		// Pointer chase: follow k hops starting at addr; each hop
		// reads a value whose first 8 bytes are the next address.
		if len(req) != 16 {
			return nil
		}
		addr := binary.LittleEndian.Uint64(req)
		hops := binary.LittleEndian.Uint64(req[8:])
		buf := make([]byte, c.ValueSize)
		for i := uint64(0); i < hops; i++ {
			if p.Node().Mem.Read(addr, buf) != nil {
				return nil
			}
			clk.Advance(c.cfg.DRAM.Cost(c.ValueSize))
			addr = binary.LittleEndian.Uint64(buf)
		}
		return buf
	})
}

// Connect returns a QP to the active node.
func (c *Cache) Connect(stats *rdma.Stats) *rdma.QP {
	c.mu.Lock()
	p := c.nodes[c.active]
	c.mu.Unlock()
	return p.Connect(stats)
}

func (c *Cache) activePool() *memnode.Pool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[c.active]
}

// Mode reports the currently configured access mode.
func (c *Cache) Mode() AccessMode {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mode
}

// Set stores a value (one-sided write; the index is client-cached).
func (c *Cache) Set(clk *sim.Clock, qp *rdma.QP, key uint64, val []byte) error {
	if len(val) != c.ValueSize {
		return fmt.Errorf("remotecache: value size %d, want %d", len(val), c.ValueSize)
	}
	c.mu.Lock()
	addr, ok := c.index[key]
	pool := c.nodes[c.active]
	c.mu.Unlock()
	if !ok {
		var err error
		addr, err = pool.Alloc(uint64(c.ValueSize))
		if err != nil {
			return err
		}
		c.mu.Lock()
		c.index[key] = addr
		c.mu.Unlock()
	}
	return qp.Write(clk, addr, val)
}

// Get fetches a value using the configured mode, adapting the mode from
// the NIC congestion signal (Redy's SLO-driven configuration). A Get that
// races a Reclaim is redirected to the node the cache migrated to instead
// of surfacing the reclaimed node's failure as a miss.
func (c *Cache) Get(clk *sim.Clock, qp *rdma.QP, key uint64) ([]byte, error) {
	c.mu.Lock()
	addr, ok := c.index[key]
	mode := c.mode
	epoch := c.active
	pool := c.nodes[c.active]
	c.getHist++
	adapt := c.getHist%256 == 0
	c.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	if adapt {
		c.adaptMode(qp)
	}
	if qp.Node() != pool.Node() {
		// The caller's QP predates a migration: addr came from the
		// post-migration index, so reading it through the old node would
		// return the wrong bytes (or ErrNodeFailed once the reclaim
		// completes). Chase the placement to the current node up front.
		clk.Advance(c.cfg.RDMARPC.Cost(16))
		qp = pool.Connect(nil)
	}
	out, err := c.getAt(clk, qp, addr, mode)
	if err != nil {
		return c.redirect(clk, key, epoch, err)
	}
	return out, nil
}

// getAt performs one read of addr through qp in the given mode.
func (c *Cache) getAt(clk *sim.Clock, qp *rdma.QP, addr uint64, mode AccessMode) ([]byte, error) {
	if mode == ModeOneSided {
		out := make([]byte, c.ValueSize)
		if err := qp.Read(clk, addr, out); err != nil {
			return nil, err
		}
		return out, nil
	}
	var req [8]byte
	binary.LittleEndian.PutUint64(req[:], addr)
	out, err := qp.Call(clk, "cache.get", req[:])
	if err != nil {
		return nil, err
	}
	if len(out) != c.ValueSize {
		return nil, ErrNotFound
	}
	return out, nil
}

// redirect retries a failed Get against the node the cache migrated to.
// Regression: a Get racing Reclaim used to return the reclaimed node's
// error (surfacing as a spurious miss/failure) even though the value had
// been migrated intact. The loop is bounded: it only retries while the
// migration epoch advanced since the failed attempt, which happens at most
// len(nodes)-1 times.
func (c *Cache) redirect(clk *sim.Clock, key uint64, epoch int, orig error) ([]byte, error) {
	for {
		c.mu.Lock()
		if c.active == epoch {
			c.mu.Unlock()
			return nil, orig
		}
		epoch = c.active
		addr, ok := c.index[key]
		mode := c.mode
		pool := c.nodes[c.active]
		c.mu.Unlock()
		if !ok {
			return nil, ErrNotFound
		}
		// Chasing the migration costs one control round trip to learn the
		// new placement, then the retried read on the new node.
		clk.Advance(c.cfg.RDMARPC.Cost(16))
		out, err := c.getAt(clk, pool.Connect(nil), addr, mode)
		if err == nil {
			return out, nil
		}
		orig = err
	}
}

// adaptMode flips between one-sided and RPC based on NIC queueing.
func (c *Cache) adaptMode(qp *rdma.QP) {
	frac := qp.Node().NIC.QueuedFraction()
	c.mu.Lock()
	if frac > c.slo.CongestionSwitch {
		c.mode = ModeRPC
	} else {
		c.mode = ModeOneSided
	}
	c.mu.Unlock()
}

// Chase performs a k-hop pointer chase.
// Offloaded (CompuCache): ONE RPC; the node follows the pointers locally.
// Client-driven: k dependent one-sided reads.
func (c *Cache) Chase(clk *sim.Clock, qp *rdma.QP, startKey uint64, hops int, offloaded bool) ([]byte, error) {
	c.mu.Lock()
	addr, ok := c.index[startKey]
	c.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	if offloaded {
		var req [16]byte
		binary.LittleEndian.PutUint64(req[:], addr)
		binary.LittleEndian.PutUint64(req[8:], uint64(hops))
		out, err := qp.Call(clk, "cache.chase", req[:])
		if err != nil {
			return nil, err
		}
		if len(out) != c.ValueSize {
			return nil, ErrNotFound
		}
		return out, nil
	}
	buf := make([]byte, c.ValueSize)
	for i := 0; i < hops; i++ {
		if err := qp.Read(clk, addr, buf); err != nil {
			return nil, err
		}
		addr = binary.LittleEndian.Uint64(buf)
	}
	return buf, nil
}

// Reclaim simulates the VM allocator revoking the active node's memory:
// the cache migrates every value to the next standby, charging the bulk
// copy, and the old node is failed. Returns bytes moved.
func (c *Cache) Reclaim(clk *sim.Clock) (int64, error) {
	c.mu.Lock()
	if c.active+1 >= len(c.nodes) {
		c.mu.Unlock()
		return 0, ErrNoNodes
	}
	old := c.nodes[c.active]
	next := c.nodes[c.active+1]
	index := c.index
	c.mu.Unlock()

	newIndex := make(map[uint64]uint64, len(index))
	var moved int64
	buf := make([]byte, c.ValueSize)
	for key, addr := range index {
		if err := old.Node().Mem.Read(addr, buf); err != nil {
			return moved, err
		}
		na, err := next.Alloc(uint64(c.ValueSize))
		if err != nil {
			return moved, err
		}
		if err := next.Node().Mem.Write(na, buf); err != nil {
			return moved, err
		}
		newIndex[key] = na
		moved += int64(c.ValueSize)
	}
	// Bulk node-to-node transfer over the fabric.
	clk.Advance(c.cfg.RDMA.Cost(int(moved)))
	c.registerHandlers(next)
	c.mu.Lock()
	c.index = newIndex
	c.active++
	c.Migrations++
	c.mu.Unlock()
	old.Node().Fail()
	return moved, nil
}

// Close hands every stranded node's memory back; nothing may use c after.
func (c *Cache) Close() {
	for _, p := range c.nodes {
		p.Close()
	}
}

// Link builds a pointer chain over keys 0..hops: key i's value begins with
// the remote address of key i+1's block, so Chase(0, hops) walks the whole
// chain. All keys must already be Set.
func (c *Cache) Link(clk *sim.Clock, qp *rdma.QP, hops int) error {
	for i := 0; i < hops; i++ {
		c.mu.Lock()
		next, ok := c.index[uint64(i+1)]
		c.mu.Unlock()
		if !ok {
			return ErrNotFound
		}
		v := make([]byte, c.ValueSize)
		binary.LittleEndian.PutUint64(v, next)
		if err := c.Set(clk, qp, uint64(i), v); err != nil {
			return err
		}
	}
	return nil
}

// SSDGetCost reports the comparator cost of serving the same value from a
// local SSD cache (E15's baseline).
func (c *Cache) SSDGetCost() time.Duration {
	return c.cfg.SSDRead.Cost(c.ValueSize)
}
