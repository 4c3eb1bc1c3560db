// Package txn provides transaction concurrency control: a striped local
// lock table with exclusive try-locks (two-phase locking: a refused
// acquisition waits with sim.Wait until the holder lets go, landing at the
// holder's virtual time), and a remote lock table living in disaggregated
// memory that is acquired with one-sided RDMA CAS — the mechanism behind
// multi-writer scalability on shared memory (§3.1, §4).
package txn

import (
	"errors"
	"sync"

	"github.com/disagglab/disagg/internal/rdma"
	"github.com/disagglab/disagg/internal/sim"
)

// ErrDeadlock is returned when a lock wait cannot end: every worker of the
// waiter's group is waiting too, and this waiter is the one that gives up.
// Callers abort and (typically) restart the transaction.
var ErrDeadlock = errors.New("txn: lock wait deadlocked")

// ErrAborted marks a transaction aborted by conflict.
var ErrAborted = errors.New("txn: aborted")

// Mode is a lock mode. Reads take no lock (commits validate what they
// read), so every lock is exclusive.
type Mode int

// Exclusive is the one lock mode.
const Exclusive Mode = 1

const lockStripes = 256

type lockShard struct {
	mu sync.Mutex
	// holders maps a key to the tx holding it. It is made by the shard's
	// first TryLock: most tables lock few keys, and a nil map reads and
	// deletes as an empty one.
	holders map[uint64]uint64
}

// LockTable is a striped in-memory lock table with try-lock semantics.
type LockTable struct {
	shards [lockStripes]lockShard
}

// NewLockTable returns an empty lock table.
func NewLockTable() *LockTable { return &LockTable{} }

func (lt *LockTable) shard(key uint64) *lockShard {
	return &lt.shards[((key*0x9E3779B97F4A7C15)>>56)%lockStripes]
}

// TryLock attempts to acquire key for tx. Re-entrant: the holder
// re-acquiring succeeds.
func (lt *LockTable) TryLock(tx uint64, key uint64, _ Mode) bool {
	s := lt.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if h, ok := s.holders[key]; ok {
		return h == tx
	}
	if s.holders == nil {
		s.holders = make(map[uint64]uint64)
	}
	s.holders[key] = tx
	return true
}

// Unlock releases tx's hold on key.
func (lt *LockTable) Unlock(tx uint64, key uint64, _ Mode) {
	s := lt.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.holders[key] == tx {
		delete(s.holders, key)
	}
}

// HeldByOther reports whether a transaction other than tx holds the key.
// Transaction ids start at 1, so tx 0 asks whether any transaction does.
func (lt *LockTable) HeldByOther(tx uint64, key uint64) bool {
	s := lt.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.holders[key]
	return ok && h != tx
}

// AcquireOpts is the acquisition policy. It has no settings left: a wait
// ends when the holder lets go, so there is no retry count or backoff to
// choose.
type AcquireOpts struct{}

// DefaultAcquire is the one policy.
var DefaultAcquire = AcquireOpts{}

// Acquire takes key for tx, waiting while another transaction
// holds it. The wait is a sim.Wait: the caller resumes at the virtual time
// of the worker whose release let it in, or gets ErrDeadlock when its whole
// group is waiting.
func (lt *LockTable) Acquire(c *sim.Clock, tx uint64, key uint64, m Mode, _ AcquireOpts) error {
	if lt.TryLock(tx, key, m) {
		return nil
	}
	// Lock-wait time is critical-path time; bracket it so the profiler
	// attributes it instead of folding it into residual.
	sp := c.StartSpan("backoff")
	ok := sim.Wait(c, func() bool { return lt.TryLock(tx, key, m) })
	c.FinishSpan(sp, 0)
	if !ok {
		return ErrDeadlock
	}
	return nil
}

// RemoteLockTable is a global lock table resident in disaggregated memory,
// acquired with one-sided RDMA CAS(0 -> tx). It is what lets multiple
// writer nodes coordinate without a central lock server.
type RemoteLockTable struct {
	base  uint64
	slots uint64
}

// NewRemoteLockTable lays out `slots` 8-byte lock words at base inside the
// memory node's region. The region must be zeroed (all locks free).
func NewRemoteLockTable(base uint64, slots uint64) *RemoteLockTable {
	if slots == 0 {
		slots = 1
	}
	return &RemoteLockTable{base: base, slots: slots}
}

// SizeBytes reports the registered-memory footprint.
func (r *RemoteLockTable) SizeBytes() uint64 { return r.slots * 8 }

func (r *RemoteLockTable) addrOf(key uint64) uint64 {
	h := key * 0x9E3779B97F4A7C15
	return r.base + (h%r.slots)*8
}

// TryLock attempts CAS(0 -> tx) on the key's lock word over qp.
// Key aliasing (two keys hashing to one slot) yields false conflicts,
// exactly as in RDMA lock-table designs sized by memory budget.
func (r *RemoteLockTable) TryLock(c *sim.Clock, qp *rdma.QP, tx uint64, key uint64) (bool, error) {
	return qp.CAS(c, r.addrOf(key), 0, tx)
}

// Unlock releases the key's lock word if held by tx.
func (r *RemoteLockTable) Unlock(c *sim.Clock, qp *rdma.QP, tx uint64, key uint64) error {
	ok, err := qp.CAS(c, r.addrOf(key), tx, 0)
	if err != nil {
		return err
	}
	if !ok {
		return errors.New("txn: remote unlock of non-held lock")
	}
	return nil
}

// Acquire CASes the key's lock word until it wins. Every attempt costs a
// one-sided CAS on the fabric; between a lost attempt and the next, the
// caller waits, uncharged, until the word reads free.
func (r *RemoteLockTable) Acquire(c *sim.Clock, qp *rdma.QP, tx uint64, key uint64, _ AcquireOpts) error {
	for {
		ok, err := r.TryLock(c, qp, tx, key)
		if err != nil || ok {
			return err
		}
		sp := c.StartSpan("backoff")
		ok = sim.Wait(c, func() bool { return r.free(qp, key) })
		c.FinishSpan(sp, 0)
		if !ok {
			return ErrDeadlock
		}
	}
}

// free peeks at the key's lock word without a verb: it is the condition a
// waiter waits for, not an access the model charges.
func (r *RemoteLockTable) free(qp *rdma.QP, key uint64) bool {
	w, err := qp.Node().Mem.Load64(r.addrOf(key))
	return err != nil || w == 0
}
