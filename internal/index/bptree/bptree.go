// Package bptree implements a B+tree on disaggregated memory in the style
// of Sherman (§3.1): tree nodes live in the memory pool; readers traverse
// with one-sided reads validated by front/back version words (torn reads
// retry); writers acquire a per-node lock word with RDMA CAS, apply their
// change with a doorbell-batched write, bump the version, and release.
//
// The package also exposes the "naive" configuration used as the E11
// baseline — lock-coupled reads (every node read takes and releases the
// node lock) and unbatched writes — so the benefit of Sherman's techniques
// is measurable as an ablation.
package bptree

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/disagglab/disagg/internal/memnode"
	"github.com/disagglab/disagg/internal/rdma"
	"github.com/disagglab/disagg/internal/sim"
)

// Fanout is the number of keys per node.
const Fanout = 16

// Node layout (all words little-endian):
//
//	[0]   version (front) — odd while a write is in progress
//	[1]   lock word (0 free, else owner id)
//	[2]   count | isLeaf<<32
//	[3]   low fence (inclusive)
//	[4]   high fence (exclusive; ^0 means unbounded)
//	[5..5+F)     keys
//	[5+F..5+2F)  values (leaf) or child addrs (inner)
//	[5+2F]       version (back)
//
// Fence keys let a client detect that an optimistically read leaf no
// longer covers its key after a concurrent split (Sherman's fix for stale
// cached routing). The maximum key ^uint64(0) is reserved.
const (
	offVersion = 0
	offLock    = 8
	offMeta    = 16
	offLow     = 24
	offHigh    = 32
	offKeys    = 40
	offVals    = offKeys + Fanout*8
	offVerBack = offVals + Fanout*8
	nodeSize   = offVerBack + 8
)

// maxKey is the reserved upper sentinel.
const maxKey = ^uint64(0)

// Package errors.
var (
	ErrDeadlock = errors.New("bptree: wait deadlocked")
	ErrFull     = errors.New("bptree: node unexpectedly full")
	ErrCorrupt  = errors.New("bptree: corrupt node (lost remote memory?)")
)

// Options select which Sherman optimizations are active.
type Options struct {
	// OptimisticReads traverses with version-validated reads instead of
	// lock-coupled reads.
	OptimisticReads bool
	// BatchedWrites flushes node updates with one doorbell batch instead
	// of one verb per field group.
	BatchedWrites bool
	// OnChipLocks models Sherman's NIC-SRAM lock table: lock CAS latency
	// is a fraction of a memory CAS.
	OnChipLocks bool
}

// Sherman returns the full optimization set.
func Sherman() Options {
	return Options{OptimisticReads: true, BatchedWrites: true, OnChipLocks: true}
}

// Naive returns the lock-coupling baseline.
func Naive() Options { return Options{} }

// Tree is the shared tree handle: pool, root pointer, and a structure
// mutex used only for splits (standing in for Sherman's hierarchical SMO
// locking, which serializes structure changes but not leaf operations).
type Tree struct {
	cfg  *sim.Config
	pool *memnode.Pool
	opt  Options

	rootMu sync.RWMutex
	root   uint64 // remote addr of root node

	smo  sync.Mutex
	smos atomic.Uint64 // structure modifications completed
}

// New allocates an empty tree (a single empty leaf as root).
func New(cfg *sim.Config, pool *memnode.Pool, opt Options) (*Tree, error) {
	t := &Tree{cfg: cfg, pool: pool, opt: opt}
	setup := sim.NewClock()
	qp := pool.Connect(nil)
	root, err := t.allocNode(setup, qp, true)
	if err != nil {
		return nil, err
	}
	t.root = root
	return t, nil
}

func (t *Tree) allocNode(clk *sim.Clock, qp *rdma.QP, leaf bool) (uint64, error) {
	addr, err := t.pool.Alloc(nodeSize)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, nodeSize)
	meta := uint64(0)
	if leaf {
		meta |= 1 << 32
	}
	binary.LittleEndian.PutUint64(buf[offMeta:], meta)
	binary.LittleEndian.PutUint64(buf[offHigh:], maxKey)
	if err := qp.Write(clk, addr, buf); err != nil {
		return 0, err
	}
	return addr, nil
}

// node is the client-side decoded image of a remote node.
type node struct {
	addr    uint64
	version uint64
	count   int
	leaf    bool
	low     uint64
	high    uint64
	keys    [Fanout]uint64
	vals    [Fanout]uint64
}

// covers reports whether the node's fence range includes key.
func (n *node) covers(key uint64) bool { return key >= n.low && key < n.high }

func decodeNode(addr uint64, buf []byte) node {
	var n node
	n.addr = addr
	n.version = binary.LittleEndian.Uint64(buf[offVersion:])
	meta := binary.LittleEndian.Uint64(buf[offMeta:])
	n.count = int(uint32(meta))
	n.leaf = meta>>32 != 0
	n.low = binary.LittleEndian.Uint64(buf[offLow:])
	n.high = binary.LittleEndian.Uint64(buf[offHigh:])
	for i := 0; i < Fanout; i++ {
		n.keys[i] = binary.LittleEndian.Uint64(buf[offKeys+i*8:])
		n.vals[i] = binary.LittleEndian.Uint64(buf[offVals+i*8:])
	}
	return n
}

func encodeNode(n *node) []byte {
	buf := make([]byte, nodeSize)
	binary.LittleEndian.PutUint64(buf[offVersion:], n.version)
	meta := uint64(uint32(n.count))
	if n.leaf {
		meta |= 1 << 32
	}
	binary.LittleEndian.PutUint64(buf[offMeta:], meta)
	binary.LittleEndian.PutUint64(buf[offLow:], n.low)
	binary.LittleEndian.PutUint64(buf[offHigh:], n.high)
	for i := 0; i < Fanout; i++ {
		binary.LittleEndian.PutUint64(buf[offKeys+i*8:], n.keys[i])
		binary.LittleEndian.PutUint64(buf[offVals+i*8:], n.vals[i])
	}
	binary.LittleEndian.PutUint64(buf[offVerBack:], n.version)
	return buf
}

// Client is one compute-side user with its own QP.
type Client struct {
	t  *Tree
	qp *rdma.QP
	id uint64
}

// Attach creates a client; stats may be nil.
func (t *Tree) Attach(id uint64, stats *rdma.Stats) *Client {
	if id == 0 {
		id = 1
	}
	return &Client{t: t, qp: t.pool.Connect(stats), id: id}
}

// lockCost is the latency of one lock CAS: cheaper with on-chip locks.
func (c *Client) lockCost() time.Duration {
	if c.t.opt.OnChipLocks {
		return c.t.cfg.RDMA.Base * 6 / 10
	}
	return c.t.cfg.RDMA.Cost(8)
}

// lockNode takes the node's lock word with CAS(0 -> id). After a lost CAS
// the client waits, uncharged, until the word reads free, then CASes again.
func (c *Client) lockNode(clk *sim.Clock, addr uint64) error {
	mem := c.t.pool.Node().Mem
	for {
		ok, err := mem.CAS64(addr+offLock, 0, c.id)
		if err != nil {
			return err
		}
		clk.Advance(c.lockCost())
		if ok {
			return nil
		}
		if !sim.Wait(clk, func() bool {
			w, err := mem.Load64(addr + offLock)
			return err != nil || w == 0
		}) {
			return ErrDeadlock
		}
	}
}

func (c *Client) unlockNode(clk *sim.Clock, addr uint64) error {
	if _, err := c.t.pool.Node().Mem.CAS64(addr+offLock, c.id, 0); err != nil {
		return err
	}
	clk.Advance(c.lockCost())
	return nil
}

// readNode fetches a node image. With optimistic reads the version words
// are validated (equal front/back, even); otherwise the node lock is held
// across the read (lock coupling).
func (c *Client) readNode(clk *sim.Clock, addr uint64) (node, error) {
	if c.t.opt.OptimisticReads {
		for {
			buf := make([]byte, nodeSize)
			if err := c.qp.Read(clk, addr, buf); err != nil {
				return node{}, err
			}
			front := binary.LittleEndian.Uint64(buf[offVersion:])
			back := binary.LittleEndian.Uint64(buf[offVerBack:])
			if front == back && front%2 == 0 {
				return decodeNode(addr, buf), nil
			}
			// Torn: wait, uncharged, until the version words agree.
			if !sim.Wait(clk, func() bool { return c.settled(addr) }) {
				return node{}, ErrDeadlock
			}
		}
	}
	// Lock-coupled read.
	if err := c.lockNode(clk, addr); err != nil {
		return node{}, err
	}
	buf := make([]byte, nodeSize)
	if err := c.qp.Read(clk, addr, buf); err != nil {
		c.unlockNode(clk, addr)
		return node{}, err
	}
	n := decodeNode(addr, buf)
	if err := c.unlockNode(clk, addr); err != nil {
		return node{}, err
	}
	return n, nil
}

// writeNode publishes a locked node update: version is bumped to odd
// before the payload and even after, so optimistic readers either see the
// old or the new image. With batching the three writes go in one doorbell.
func (c *Client) writeNode(clk *sim.Clock, n *node) error {
	n.version += 2
	buf := encodeNode(n)
	if c.t.opt.BatchedWrites {
		return c.qp.WriteBatch(clk, []rdma.WriteOp{{Addr: n.addr, Data: buf}})
	}
	// Unbatched: header, keys, values, back version as separate verbs.
	if err := c.qp.Write(clk, n.addr, buf[:offKeys]); err != nil {
		return err
	}
	if err := c.qp.Write(clk, n.addr+offKeys, buf[offKeys:offVals]); err != nil {
		return err
	}
	if err := c.qp.Write(clk, n.addr+offVals, buf[offVals:offVerBack]); err != nil {
		return err
	}
	return c.qp.Write(clk, n.addr+offVerBack, buf[offVerBack:])
}

// settled reports, from the node's words read without a verb, whether its
// front and back versions agree: the condition a torn reader waits for.
func (c *Client) settled(addr uint64) bool {
	mem := c.t.pool.Node().Mem
	front, err := mem.Load64(addr + offVersion)
	if err != nil {
		return true
	}
	back, err := mem.Load64(addr + offVerBack)
	return err != nil || front == back && front%2 == 0
}

func (t *Tree) rootAddr() uint64 {
	t.rootMu.RLock()
	defer t.rootMu.RUnlock()
	return t.root
}

// waitSMO waits until a structure modification has completed since the
// count seen. A descent that reached a leaf no longer covering its key ran
// into a split in progress; until that split finishes, every descent takes
// the same stale route.
func (c *Client) waitSMO(clk *sim.Clock, seen uint64) error {
	if c.t.smos.Load() == seen && !sim.Wait(clk, func() bool { return c.t.smos.Load() != seen }) {
		return ErrDeadlock
	}
	return nil
}

// Get returns the value stored for key. A leaf that no longer covers the
// key (concurrent split moved it) sends the reader back to the root once
// the split has finished.
func (c *Client) Get(clk *sim.Clock, key uint64) (uint64, bool, error) {
	for {
		smos := c.t.smos.Load()
		n, err := c.descend(clk, key)
		if err != nil {
			return 0, false, err
		}
		if !n.covers(key) {
			if err := c.waitSMO(clk, smos); err != nil {
				return 0, false, err
			}
			continue
		}
		for i := 0; i < n.count; i++ {
			if n.keys[i] == key {
				return n.vals[i], true, nil
			}
		}
		return 0, false, nil
	}
}

// childFor picks the child pointer for key in an inner node: vals[i] leads
// to keys < keys[i]; vals[count-1] is the rightmost subtree. An empty inner
// node is structurally impossible in a healthy tree (it signals lost remote
// memory) and yields 0.
func childFor(n *node, key uint64) (uint64, error) {
	if n.count == 0 {
		return 0, ErrCorrupt
	}
	for i := 0; i < n.count-1; i++ {
		if key < n.keys[i] {
			return n.vals[i], nil
		}
	}
	return n.vals[n.count-1], nil
}

// Put inserts or updates key -> val.
func (c *Client) Put(clk *sim.Clock, key, val uint64) error {
	for {
		smos := c.t.smos.Load()
		leaf, err := c.descend(clk, key)
		if err != nil {
			return err
		}
		leafAddr := leaf.addr
		if err := c.lockNode(clk, leafAddr); err != nil {
			return err
		}
		// Re-read under lock (the optimistic descent may be stale).
		buf := make([]byte, nodeSize)
		if err := c.qp.Read(clk, leafAddr, buf); err != nil {
			c.unlockNode(clk, leafAddr)
			return err
		}
		n := decodeNode(leafAddr, buf)
		if !n.leaf || !n.covers(key) {
			// Node was split/retargeted under us; retry from the root once
			// the split has finished.
			c.unlockNode(clk, leafAddr)
			if err := c.waitSMO(clk, smos); err != nil {
				return err
			}
			continue
		}
		// Update in place?
		for i := 0; i < n.count; i++ {
			if n.keys[i] == key {
				n.vals[i] = val
				err := c.writeNode(clk, &n)
				c.unlockNode(clk, leafAddr)
				return err
			}
		}
		if n.count < Fanout {
			insertSorted(&n, key, val)
			err := c.writeNode(clk, &n)
			c.unlockNode(clk, leafAddr)
			return err
		}
		// Leaf full: release and run a split under the SMO lock.
		c.unlockNode(clk, leafAddr)
		if err := c.splitAndInsert(clk, key, val); err != nil {
			return err
		}
		return nil
	}
}

// descend walks inner nodes to the leaf that should hold key.
func (c *Client) descend(clk *sim.Clock, key uint64) (node, error) {
	addr := c.t.rootAddr()
	for {
		n, err := c.readNode(clk, addr)
		if err != nil {
			return node{}, err
		}
		if n.leaf {
			return n, nil
		}
		addr, err = childFor(&n, key)
		if err != nil {
			return node{}, err
		}
	}
}

func insertSorted(n *node, key, val uint64) {
	i := n.count
	for i > 0 && n.keys[i-1] > key {
		n.keys[i] = n.keys[i-1]
		n.vals[i] = n.vals[i-1]
		i--
	}
	n.keys[i] = key
	n.vals[i] = val
	n.count++
}

// splitAndInsert performs a recursive split from the root under the SMO
// mutex, then inserts the key. Serializing SMOs keeps the remote structure
// consistent; leaf-level inserts stay concurrent.
func (c *Client) splitAndInsert(clk *sim.Clock, key, val uint64) error {
	// Node-lock waits happen under smo, so another splitter waits for it
	// with sim.Wait rather than blocking its goroutine.
	if !c.t.smo.TryLock() && !sim.Wait(clk, c.t.smo.TryLock) {
		return ErrDeadlock
	}
	defer c.t.smo.Unlock()
	defer c.t.smos.Add(1)
	// A leaf can refill between our split and insert (concurrent
	// non-SMO writers); retry the SMO insert a few times.
	var err error
	for i := 0; i < 8; i++ {
		err = c.insertSMO(clk, key, val)
		if err != ErrFull {
			return err
		}
	}
	return err
}

// insertSMO inserts with the SMO lock held, splitting any full node on the
// descent path (preemptive splitting keeps the recursion simple).
func (c *Client) insertSMO(clk *sim.Clock, key, val uint64) error {
	// Preemptively split a full root.
	rootAddr := c.t.rootAddr()
	rn, err := c.readNode(clk, rootAddr)
	if err != nil {
		return err
	}
	if rn.count == Fanout {
		newRootAddr, err := c.splitRoot(clk, &rn)
		if err != nil {
			return err
		}
		c.t.rootMu.Lock()
		c.t.root = newRootAddr
		c.t.rootMu.Unlock()
	}
	// Descend, splitting full children before entering them.
	addr := c.t.rootAddr()
	for {
		n, err := c.readNode(clk, addr)
		if err != nil {
			return err
		}
		if n.leaf {
			if err := c.lockNode(clk, addr); err != nil {
				return err
			}
			buf := make([]byte, nodeSize)
			if err := c.qp.Read(clk, addr, buf); err != nil {
				c.unlockNode(clk, addr)
				return err
			}
			fresh := decodeNode(addr, buf)
			for i := 0; i < fresh.count; i++ {
				if fresh.keys[i] == key {
					fresh.vals[i] = val
					err := c.writeNode(clk, &fresh)
					c.unlockNode(clk, addr)
					return err
				}
			}
			if fresh.count == Fanout {
				c.unlockNode(clk, addr)
				return ErrFull
			}
			insertSorted(&fresh, key, val)
			err = c.writeNode(clk, &fresh)
			c.unlockNode(clk, addr)
			return err
		}
		childAddr, err := childFor(&n, key)
		if err != nil {
			return err
		}
		cn, err := c.readNode(clk, childAddr)
		if err != nil {
			return err
		}
		if cn.count == Fanout {
			if err := c.splitChild(clk, &n, &cn); err != nil {
				return err
			}
			// Re-read the parent to route correctly.
			continue
		}
		addr = childAddr
	}
}

// splitRoot splits a full root, returning the new root address.
func (c *Client) splitRoot(clk *sim.Clock, rn *node) (uint64, error) {
	leftAddr, rightAddr, sepKey, err := c.splitNode(clk, rn)
	if err != nil {
		return 0, err
	}
	newRoot, err := c.allocNode(clk, false)
	if err != nil {
		return 0, err
	}
	nr := node{addr: newRoot, leaf: false, count: 2, low: 0, high: maxKey}
	nr.keys[0] = sepKey
	nr.keys[1] = maxKey
	nr.vals[0] = leftAddr
	nr.vals[1] = rightAddr
	if err := c.lockNode(clk, newRoot); err != nil {
		return 0, err
	}
	err = c.writeNode(clk, &nr)
	c.unlockNode(clk, newRoot)
	return newRoot, err
}

func (c *Client) allocNode(clk *sim.Clock, leaf bool) (uint64, error) {
	return c.t.allocNode(clk, c.qp, leaf)
}

// splitNode splits n into (reused n = left, new right); returns the
// separator key (first key of right).
func (c *Client) splitNode(clk *sim.Clock, n *node) (left, right uint64, sep uint64, err error) {
	rightAddr, err := c.allocNode(clk, n.leaf)
	if err != nil {
		return 0, 0, 0, err
	}
	mid := n.count / 2
	var rn node
	rn.addr = rightAddr
	rn.leaf = n.leaf
	rn.count = n.count - mid
	copy(rn.keys[:], n.keys[mid:n.count])
	copy(rn.vals[:], n.vals[mid:n.count])
	if n.leaf {
		// Leaf entries are real keys: the right sibling starts at its
		// first key.
		sep = n.keys[mid]
	} else {
		// Inner entries are (upperBound -> child): the left half's new
		// upper bound is its last entry's bound.
		sep = n.keys[mid-1]
	}
	rn.low = sep
	rn.high = n.high

	if err := c.lockNode(clk, n.addr); err != nil {
		return 0, 0, 0, err
	}
	ln := *n
	ln.count = mid
	ln.high = sep
	for i := mid; i < Fanout; i++ {
		ln.keys[i], ln.vals[i] = 0, 0
	}
	if err := c.writeNode(clk, &ln); err != nil {
		c.unlockNode(clk, n.addr)
		return 0, 0, 0, err
	}
	c.unlockNode(clk, n.addr)

	if err := c.lockNode(clk, rightAddr); err != nil {
		return 0, 0, 0, err
	}
	if err := c.writeNode(clk, &rn); err != nil {
		c.unlockNode(clk, rightAddr)
		return 0, 0, 0, err
	}
	c.unlockNode(clk, rightAddr)
	return n.addr, rightAddr, sep, nil
}

// splitChild splits full child cn of parent pn and updates the parent's
// routing entries.
func (c *Client) splitChild(clk *sim.Clock, pn *node, cn *node) error {
	leftAddr, rightAddr, sep, err := c.splitNode(clk, cn)
	if err != nil {
		return err
	}
	if err := c.lockNode(clk, pn.addr); err != nil {
		return err
	}
	buf := make([]byte, nodeSize)
	if err := c.qp.Read(clk, pn.addr, buf); err != nil {
		c.unlockNode(clk, pn.addr)
		return err
	}
	fresh := decodeNode(pn.addr, buf)
	// Find the child entry and split it into two routing entries:
	// [.. (sep -> left), (oldKey -> right) ..].
	for i := 0; i < fresh.count; i++ {
		if fresh.vals[i] == leftAddr {
			if fresh.count == Fanout {
				c.unlockNode(clk, pn.addr)
				return ErrFull
			}
			copy(fresh.keys[i+1:], fresh.keys[i:fresh.count])
			copy(fresh.vals[i+1:], fresh.vals[i:fresh.count])
			fresh.keys[i] = sep
			fresh.vals[i] = leftAddr
			fresh.vals[i+1] = rightAddr
			fresh.count++
			err := c.writeNode(clk, &fresh)
			c.unlockNode(clk, pn.addr)
			return err
		}
	}
	c.unlockNode(clk, pn.addr)
	return ErrFull
}
