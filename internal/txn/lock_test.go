package txn

import (
	"sync"
	"testing"

	"github.com/disagglab/disagg/internal/rdma"
	"github.com/disagglab/disagg/internal/sim"
)

func TestExclusiveBlocksAll(t *testing.T) {
	lt := NewLockTable()
	if !lt.TryLock(1, 5, Exclusive) {
		t.Fatal("first exclusive denied")
	}
	if lt.TryLock(2, 5, Exclusive) {
		t.Fatal("lock granted over exclusive holder")
	}
	// Re-entrant for the holder.
	if !lt.TryLock(1, 5, Exclusive) {
		t.Fatal("holder re-entry denied")
	}
}

func TestUnlockCleansUp(t *testing.T) {
	lt := NewLockTable()
	lt.TryLock(1, 77, Exclusive)
	lt.Unlock(1, 77, Exclusive)
	if lt.HeldByOther(0, 77) {
		t.Fatal("entry not cleaned up")
	}
	// Unlock of a non-held key is a no-op.
	lt.Unlock(2, 12345, Exclusive)
}

// Only the holder releases a key: an Unlock by another transaction leaves
// the lock where it is, and the holder's own Unlock frees it.
func TestUnlockByNonHolderKeepsLock(t *testing.T) {
	lt := NewLockTable()
	lt.TryLock(1, 9, Exclusive)
	lt.Unlock(2, 9, Exclusive)
	if !lt.HeldByOther(0, 9) {
		t.Fatal("non-holder's unlock released the key")
	}
	if lt.TryLock(2, 9, Exclusive) {
		t.Fatal("lock granted after a non-holder's unlock")
	}
	lt.Unlock(1, 9, Exclusive)
	if !lt.TryLock(2, 9, Exclusive) {
		t.Fatal("key not free after its holder's unlock")
	}
}

// HeldByOther sees another transaction's hold, not the asker's own and not
// a released key's.
func TestHeldByOther(t *testing.T) {
	lt := NewLockTable()
	if lt.HeldByOther(1, 3) {
		t.Fatal("a free key reported held")
	}
	lt.TryLock(1, 3, Exclusive)
	if lt.HeldByOther(1, 3) {
		t.Fatal("the holder's own lock reported held by another")
	}
	if !lt.HeldByOther(2, 3) {
		t.Fatal("another transaction's lock not reported")
	}
	lt.Unlock(1, 3, Exclusive)
	if lt.HeldByOther(2, 3) {
		t.Fatal("a released key reported held")
	}
}

func TestLockTableConcurrentMutex(t *testing.T) {
	// N goroutines use TryLock(Exclusive) as a mutex around a counter:
	// mutual exclusion must hold.
	lt := NewLockTable()
	counter := 0
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for !lt.TryLock(id, 1, Exclusive) {
				}
				counter++
				lt.Unlock(id, 1, Exclusive)
			}
		}(uint64(g + 1))
	}
	wg.Wait()
	if counter != 1600 {
		t.Fatalf("counter = %d, want 1600 (mutual exclusion broken)", counter)
	}
}

func TestAcquireDeadlocksThenSucceedsAfterRelease(t *testing.T) {
	lt := NewLockTable()
	lt.TryLock(1, 42, Exclusive)
	alone(func(c *sim.Clock) {
		if err := lt.Acquire(c, 2, 42, Exclusive, DefaultAcquire); err != ErrDeadlock {
			t.Errorf("err = %v, want ErrDeadlock", err)
		}
		lt.Unlock(1, 42, Exclusive)
		if err := lt.Acquire(c, 2, 42, Exclusive, DefaultAcquire); err != nil {
			t.Errorf("acquire after release: %v", err)
		}
	})
}

func TestRemoteLockTable(t *testing.T) {
	cfg := sim.DefaultConfig()
	node := rdma.NewNode(cfg, "mem0", 1<<16)
	rlt := NewRemoteLockTable(0, 1024)
	if rlt.SizeBytes() != 8192 {
		t.Fatalf("size = %d", rlt.SizeBytes())
	}
	qp1 := rdma.Connect(cfg, node, nil)
	qp2 := rdma.Connect(cfg, node, nil)
	c1, c2 := sim.NewClock(), sim.NewClock()

	ok, err := rlt.TryLock(c1, qp1, 1, 500)
	if err != nil || !ok {
		t.Fatalf("first lock: %v %v", ok, err)
	}
	ok, _ = rlt.TryLock(c2, qp2, 2, 500)
	if ok {
		t.Fatal("second writer acquired a held remote lock")
	}
	if err := rlt.Unlock(c1, qp1, 1, 500); err != nil {
		t.Fatal(err)
	}
	ok, _ = rlt.TryLock(c2, qp2, 2, 500)
	if !ok {
		t.Fatal("lock not acquirable after release")
	}
	// Unlock by wrong tx fails.
	if err := rlt.Unlock(c1, qp1, 1, 500); err == nil {
		t.Fatal("foreign unlock accepted")
	}
}

func TestRemoteLockChargesFabric(t *testing.T) {
	cfg := sim.DefaultConfig()
	node := rdma.NewNode(cfg, "mem0", 1<<16)
	var st rdma.Stats
	qp := rdma.Connect(cfg, node, &st)
	rlt := NewRemoteLockTable(0, 64)
	c := sim.NewClock()
	rlt.TryLock(c, qp, 1, 1)
	if c.Now() < cfg.RDMA.Base {
		t.Fatalf("remote CAS charged only %v", c.Now())
	}
	if st.Ops.Load() != 1 {
		t.Fatalf("ops = %d", st.Ops.Load())
	}
}

func TestRemoteAcquireContention(t *testing.T) {
	cfg := sim.DefaultConfig()
	node := rdma.NewNode(cfg, "mem0", 1<<16)
	rlt := NewRemoteLockTable(0, 16)
	// Eight writers hammer one key through real CAS; the critical
	// sections must serialize.
	var mu sync.Mutex
	crit := 0
	maxInCrit := 0
	res := sim.RunGroup(8, func(id int, c *sim.Clock) int {
		qp := rdma.Connect(cfg, node, nil)
		tx := uint64(id + 1)
		done := 0
		for i := 0; i < 50; i++ {
			if err := rlt.Acquire(c, qp, tx, 7, DefaultAcquire); err != nil {
				continue
			}
			mu.Lock()
			crit++
			if crit > maxInCrit {
				maxInCrit = crit
			}
			crit--
			mu.Unlock()
			rlt.Unlock(c, qp, tx, 7)
			done++
		}
		return done
	})
	if maxInCrit > 1 {
		t.Fatalf("mutual exclusion broken: %d concurrent holders", maxInCrit)
	}
	if res.TotalOps != 400 {
		t.Fatalf("completed %d/400 acquisitions", res.TotalOps)
	}
}

// The commit pipeline locks once per written key per transaction: on a
// shard whose map has grown that must cost no allocation.
func TestExclusiveLockUnlockAllocatesNothing(t *testing.T) {
	lt := NewLockTable()
	const key = 42
	lt.TryLock(1, key, Exclusive) // warm the shard
	lt.Unlock(1, key, Exclusive)
	got := testing.AllocsPerRun(1000, func() {
		if !lt.TryLock(7, key, Exclusive) {
			t.Fatal("free key refused")
		}
		lt.Unlock(7, key, Exclusive)
	})
	if got != 0 {
		t.Errorf("%.1f allocations per exclusive lock/unlock pair, want 0", got)
	}
	if lt.HeldByOther(0, key) {
		t.Error("entry left behind")
	}
}
