// Package race implements RACE-style one-sided RDMA-conscious extendible
// hashing (§3.1): the hash structure lives entirely in disaggregated
// memory, and compute-side clients search and update it with one-sided
// verbs only — reads fetch whole buckets, inserts allocate a KV block,
// write it, publish it with a single 8-byte CAS into a bucket slot, and
// re-read the bucket to resolve a racing insert of the same key.
// Memory-node CPUs are never involved on the data path (lock-free).
//
// Extendible growth is modeled with a client-cached directory of subtables;
// a full bucket triggers a subtable split that rehashes entries via
// one-sided reads/writes and publishes the new subtable with a directory
// CAS. Torn bucket reads are tolerated: every slot is word-atomic and
// every match is verified by reading the full KV block and comparing keys.
package race

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"github.com/disagglab/disagg/internal/memnode"
	"github.com/disagglab/disagg/internal/rdma"
	"github.com/disagglab/disagg/internal/sim"
)

// BucketSlots is the number of slots per bucket; a bucket (plus its pair
// bucket) is fetched with one RDMA read.
const BucketSlots = 8

// slot word encoding: [fingerprint:16 | valLen:16 | addr:32].
func packSlot(fp uint16, vlen uint16, addr uint32) uint64 {
	return uint64(fp)<<48 | uint64(vlen)<<32 | uint64(addr)
}

func unpackSlot(w uint64) (fp uint16, vlen uint16, addr uint32) {
	return uint16(w >> 48), uint16(w >> 32), uint32(w)
}

// Package errors.
var (
	ErrValueTooLarge = errors.New("race: value too large")
	ErrTableFull     = errors.New("race: bucket full after split limit")
)

const kvHeader = 8 // key

type subtable struct {
	addr       uint64 // base of bucket array in remote memory
	localDepth uint8
	buckets    uint64 // number of buckets
}

// Hash is the shared state of one RACE hash index: the memory pool that
// hosts it and the client-cached directory. Clients attach with Attach and
// then operate independently; directory mutations (splits) are coordinated
// through the directory mutex, standing in for the directory stored on the
// memory node and updated with CAS.
type Hash struct {
	cfg  *sim.Config
	pool *memnode.Pool

	mu          sync.RWMutex
	globalDepth uint8
	dir         []*subtable // len = 1<<globalDepth

	bucketsPerSub uint64
}

// New creates a RACE hash hosted on the given pool with an initial
// directory of 1<<initialDepth subtables, each holding bucketsPerSub
// buckets of BucketSlots slots.
func New(cfg *sim.Config, pool *memnode.Pool, initialDepth uint8, bucketsPerSub uint64) (*Hash, error) {
	if bucketsPerSub == 0 {
		bucketsPerSub = 64
	}
	h := &Hash{cfg: cfg, pool: pool, globalDepth: initialDepth, bucketsPerSub: bucketsPerSub}
	n := 1 << initialDepth
	for i := 0; i < n; i++ {
		st, err := h.newSubtable(initialDepth)
		if err != nil {
			return nil, err
		}
		h.dir = append(h.dir, st)
	}
	return h, nil
}

func (h *Hash) newSubtable(depth uint8) (*subtable, error) {
	size := h.bucketsPerSub * BucketSlots * 8
	addr, err := h.pool.Alloc(size)
	if err != nil {
		return nil, err
	}
	return &subtable{addr: addr, localDepth: depth, buckets: h.bucketsPerSub}, nil
}

// GlobalDepth reports the current directory depth (test/metrics hook).
func (h *Hash) GlobalDepth() uint8 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.globalDepth
}

func hash64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xFF51AFD7ED558CCD
	k ^= k >> 33
	k *= 0xC4CEB9FE1A85EC53
	k ^= k >> 33
	return k
}

// Client is one compute-side user of the index, with its own queue pair.
type Client struct {
	h  *Hash
	qp *rdma.QP
	id uint64
}

// Attach creates a client. stats may be nil.
func (h *Hash) Attach(id uint64, stats *rdma.Stats) *Client {
	return &Client{h: h, qp: h.pool.Connect(stats), id: id}
}

// lookupSub resolves the subtable and bucket address for a key from the
// cached directory (free: directory is client-cached in RACE).
func (c *Client) lookupSub(key uint64) (*subtable, uint64) {
	hv := hash64(key)
	c.h.mu.RLock()
	st := c.h.dir[hv&((1<<c.h.globalDepth)-1)]
	c.h.mu.RUnlock()
	b := (hv >> 16) % st.buckets
	return st, st.addr + b*BucketSlots*8
}

// readBucket fetches the bucket's slot words with one RDMA read.
func (c *Client) readBucket(clk *sim.Clock, addr uint64) ([BucketSlots]uint64, error) {
	var buf [BucketSlots * 8]byte
	var out [BucketSlots]uint64
	if err := c.qp.Read(clk, addr, buf[:]); err != nil {
		return out, err
	}
	for i := 0; i < BucketSlots; i++ {
		out[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	return out, nil
}

// Get looks up the key: one bucket read plus one KV-block read per
// fingerprint match (false positives are re-checked by key comparison).
func (c *Client) Get(clk *sim.Clock, key uint64) ([]byte, bool, error) {
	hv := hash64(key)
	fp := uint16(hv >> 48)
	if fp == 0 {
		fp = 1
	}
	_, baddr := c.lookupSub(key)
	slots, err := c.readBucket(clk, baddr)
	if err != nil {
		return nil, false, err
	}
	for i := 0; i < BucketSlots; i++ {
		sfp, vlen, kaddr := unpackSlot(slots[i])
		if slots[i] == 0 || sfp != fp {
			continue
		}
		blk := make([]byte, kvHeader+int(vlen))
		if err := c.qp.Read(clk, uint64(kaddr), blk); err != nil {
			return nil, false, err
		}
		if binary.LittleEndian.Uint64(blk) != key {
			continue // fingerprint collision
		}
		return blk[kvHeader:], true, nil
	}
	return nil, false, nil
}

// Put inserts or updates the key. The new KV block is written first, then
// published with one CAS (insert into an empty slot, or swap of the
// existing slot for an update). Lock-free: a lost CAS is retried against
// the fresh bucket image.
func (c *Client) Put(clk *sim.Clock, key uint64, val []byte) error {
	if len(val) > 0xFFFF {
		return ErrValueTooLarge
	}
	hv := hash64(key)
	fp := uint16(hv >> 48)
	if fp == 0 {
		fp = 1
	}
	// Write the KV block out of place.
	blkAddr, err := c.h.pool.Alloc(uint64(kvHeader + len(val)))
	if err != nil {
		return err
	}
	blk := make([]byte, kvHeader+len(val))
	binary.LittleEndian.PutUint64(blk, key)
	copy(blk[kvHeader:], val)
	if err := c.qp.Write(clk, blkAddr, blk); err != nil {
		return err
	}
	newSlot := packSlot(fp, uint16(len(val)), uint32(blkAddr))

	for {
		st, baddr := c.lookupSub(key)
		slots, err := c.readBucket(clk, baddr)
		if err != nil {
			return err
		}
		// Update path: CAS the matching slot.
		found, done, err := c.tryReplace(clk, baddr, slots, key, fp, newSlot)
		if err != nil {
			return err
		}
		if done {
			// The replaced KV block is reclaimed lazily (RACE defers
			// frees with epochs so concurrent readers never chase a
			// reused block; we model that by leaking the block).
			return nil
		}
		// found without done: the key is in the bucket but another writer
		// replaced its slot first. Only re-read; inserting now would
		// publish a second slot for the same key.
		if !found {
			// Insert path: CAS the first empty slot.
			c.h.cfg.Reach(clk, sim.PointInsert)
			full := true
			for i := 0; i < BucketSlots; i++ {
				if slots[i] != 0 {
					continue
				}
				full = false
				ok, err := c.qp.CAS(clk, baddr+uint64(i*8), 0, newSlot)
				if err != nil {
					return err
				}
				if ok {
					done, err := c.settleInsert(clk, baddr, key, fp, i, newSlot)
					if err != nil || done {
						return err
					}
					// Another slot held the key first and this one was
					// withdrawn: publish as an update of that slot.
					break
				}
				break // on CAS failure re-read the bucket
			}
			// Bucket had no empty slot: split the subtable and retry.
			if full {
				if err := c.split(clk, st); err != nil {
					return err
				}
				continue
			}
		}
		// A CAS lost to another writer: the slot it compared against has
		// changed, so the re-read already sees something new — there is
		// nothing to wait for.
	}
}

// settleInsert re-reads the bucket after this client's insert CAS into slot
// mine, as RACE does. Two inserts of one key can both succeed when each read
// the bucket with the key absent — say one before and one after a delete of
// another key freed a lower slot — so the key may now hold two slots. The
// lowest slot holding the key survives. If that is mine, the higher
// duplicates are CASed to zero by their exact word and done reports true;
// otherwise mine is withdrawn the same way and the caller retries its write
// as an update of the survivor. A key no slot holds any more was deleted
// after the insert landed, which is done as well.
func (c *Client) settleInsert(clk *sim.Clock, baddr, key uint64, fp uint16, mine int, newSlot uint64) (done bool, err error) {
	for {
		slots, err := c.readBucket(clk, baddr)
		if err != nil {
			return false, err
		}
		held, err := c.keySlots(clk, slots, key, fp, newSlot)
		if err != nil {
			return false, err
		}
		lowest := -1
		for i := range held {
			if held[i] {
				lowest = i
				break
			}
		}
		if lowest < 0 {
			return true, nil
		}
		if lowest != mine {
			// Withdraw this client's slot, unless it no longer holds the
			// key (the survivor's writer already cleared it).
			if !held[mine] {
				return false, nil
			}
			ok, err := c.qp.CAS(clk, baddr+uint64(mine*8), slots[mine], 0)
			if err != nil || ok {
				return false, err
			}
			continue // the slot changed under the CAS: look again
		}
		clean := true
		for j := mine + 1; j < BucketSlots; j++ {
			if !held[j] {
				continue
			}
			ok, err := c.qp.CAS(clk, baddr+uint64(j*8), slots[j], 0)
			if err != nil {
				return false, err
			}
			clean = clean && ok
		}
		if clean {
			return true, nil
		}
	}
}

// keySlots marks the slots of a bucket image that hold key, verified by
// reading each fingerprint match's KV block header — except a slot holding
// own, the word of a block this client wrote.
func (c *Client) keySlots(clk *sim.Clock, slots [BucketSlots]uint64, key uint64, fp uint16, own uint64) (held [BucketSlots]bool, err error) {
	for i := 0; i < BucketSlots; i++ {
		sfp, _, kaddr := unpackSlot(slots[i])
		if slots[i] == 0 || sfp != fp {
			continue
		}
		if slots[i] == own {
			held[i] = true
			continue
		}
		hdr := make([]byte, kvHeader)
		if err := c.qp.Read(clk, uint64(kaddr), hdr); err != nil {
			return held, err
		}
		held[i] = binary.LittleEndian.Uint64(hdr) == key
	}
	return held, nil
}

// tryReplace CASes the slot holding key (matched by fingerprint + key
// verification) to newSlot. found reports that the bucket image holds the
// key, done that this client's CAS replaced it; found without done means a
// concurrent writer got there first.
func (c *Client) tryReplace(clk *sim.Clock, baddr uint64, slots [BucketSlots]uint64, key uint64, fp uint16, newSlot uint64) (found, done bool, err error) {
	for i := 0; i < BucketSlots; i++ {
		sfp, _, kaddr := unpackSlot(slots[i])
		if slots[i] == 0 || sfp != fp {
			continue
		}
		hdr := make([]byte, kvHeader)
		if err := c.qp.Read(clk, uint64(kaddr), hdr); err != nil {
			return false, false, err
		}
		if binary.LittleEndian.Uint64(hdr) != key {
			continue
		}
		ok, err := c.qp.CAS(clk, baddr+uint64(i*8), slots[i], newSlot)
		return true, ok, err
	}
	return false, false, nil
}

// Delete removes the key by CASing its slot to zero.
func (c *Client) Delete(clk *sim.Clock, key uint64) (bool, error) {
	hv := hash64(key)
	fp := uint16(hv >> 48)
	if fp == 0 {
		fp = 1
	}
	for {
		_, baddr := c.lookupSub(key)
		slots, err := c.readBucket(clk, baddr)
		if err != nil {
			return false, err
		}
		found := false
		for i := 0; i < BucketSlots; i++ {
			sfp, _, kaddr := unpackSlot(slots[i])
			if slots[i] == 0 || sfp != fp {
				continue
			}
			hdr := make([]byte, kvHeader)
			if err := c.qp.Read(clk, uint64(kaddr), hdr); err != nil {
				return false, err
			}
			if binary.LittleEndian.Uint64(hdr) != key {
				continue
			}
			ok, err := c.qp.CAS(clk, baddr+uint64(i*8), slots[i], 0)
			if err != nil {
				return false, err
			}
			if ok {
				// Block reclaimed lazily (epoch-deferred free).
				return true, nil
			}
			found = true // lost race; retry
			break
		}
		if !found {
			return false, nil
		}
	}
}

// split doubles the directory (if needed) and splits st into two
// subtables, rehashing its entries with one-sided reads/writes. The
// directory mutex stands in for the memory-node directory lock.
func (c *Client) split(clk *sim.Clock, st *subtable) error {
	h := c.h
	h.mu.Lock()
	defer h.mu.Unlock()
	// Someone else may have split already: check st is still referenced.
	still := false
	for _, d := range h.dir {
		if d == st {
			still = true
			break
		}
	}
	if !still {
		return nil
	}
	if st.localDepth == h.globalDepth {
		if h.globalDepth >= 24 {
			return ErrTableFull
		}
		// Double the directory (client-side metadata; one directory
		// write on the memory node).
		newDir := make([]*subtable, len(h.dir)*2)
		copy(newDir, h.dir)
		copy(newDir[len(h.dir):], h.dir)
		h.dir = newDir
		h.globalDepth++
		clk.Advance(h.cfg.RDMA.Cost(len(h.dir) * 8))
	}
	// Allocate the sibling subtable.
	sib, err := h.newSubtable(st.localDepth + 1)
	if err != nil {
		return err
	}
	oldDepth := st.localDepth
	st.localDepth++
	// Point the upper half of st's directory slots at the sibling.
	mask := uint64(1<<oldDepth) - 1
	var lowIdx uint64
	for i, d := range h.dir {
		if d == st {
			lowIdx = uint64(i) & mask
			break
		}
	}
	highBit := uint64(1) << oldDepth
	for i := range h.dir {
		if h.dir[i] == st && uint64(i)&highBit != 0 && uint64(i)&mask == lowIdx {
			h.dir[i] = sib
		}
	}
	// Rehash: read every slot of st; move entries whose hash selects the
	// sibling. Entry relocation = read slot block header + write slot to
	// sibling + clear source slot.
	for b := uint64(0); b < st.buckets; b++ {
		baddr := st.addr + b*BucketSlots*8
		slots, err := c.readBucketLocked(clk, baddr)
		if err != nil {
			return err
		}
		for i := 0; i < BucketSlots; i++ {
			if slots[i] == 0 {
				continue
			}
			_, _, kaddr := unpackSlot(slots[i])
			hdr := make([]byte, kvHeader)
			if err := c.qp.Read(clk, uint64(kaddr), hdr); err != nil {
				return err
			}
			key := binary.LittleEndian.Uint64(hdr)
			hv := hash64(key)
			if hv&highBit == 0 || hv&mask != lowIdx {
				continue // stays (or belongs to another alias chain)
			}
			// Move to sibling: same bucket index, first free slot.
			sb := (hv >> 16) % sib.buckets
			sbAddr := sib.addr + sb*BucketSlots*8
			sslots, err := c.readBucketLocked(clk, sbAddr)
			if err != nil {
				return err
			}
			for j := 0; j < BucketSlots; j++ {
				if sslots[j] != 0 {
					continue
				}
				if ok, err := c.qp.CAS(clk, sbAddr+uint64(j*8), 0, slots[i]); err != nil {
					return err
				} else if ok {
					break
				}
			}
			if _, err := c.qp.CAS(clk, baddr+uint64(i*8), slots[i], 0); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *Client) readBucketLocked(clk *sim.Clock, addr uint64) ([BucketSlots]uint64, error) {
	return c.readBucket(clk, addr)
}

// Stats renders a debug summary.
func (h *Hash) Stats() string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	uniq := make(map[*subtable]bool)
	for _, d := range h.dir {
		uniq[d] = true
	}
	return fmt.Sprintf("race: depth=%d dir=%d subtables=%d", h.globalDepth, len(h.dir), len(uniq))
}
