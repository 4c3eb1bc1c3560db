package txn

import (
	"errors"
	"testing"
	"time"

	"github.com/disagglab/disagg/internal/rdma"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/sim/fault"
)

// Two transactions acquiring the same pair of keys in opposite order must
// not hang: once both wait, the group has no worker that can run, so the
// earliest waiter (ties to the lower id) gets ErrDeadlock, releases its
// first key, and the other finishes. The same run every time.
func TestCrossTransactionDeadlockResolves(t *testing.T) {
	for run := 0; run < 3; run++ {
		lt := NewLockTable()
		errs := make([]error, 2)
		keys := [2][2]uint64{{100, 200}, {200, 100}}
		sim.RunGroup(2, func(id int, c *sim.Clock) int {
			tx, first, second := uint64(id+1), keys[id][0], keys[id][1]
			if errs[id] = lt.Acquire(c, tx, first, Exclusive, DefaultAcquire); errs[id] != nil {
				return 0
			}
			defer lt.Unlock(tx, first, Exclusive)
			// Let the other side take its own first key before crossing.
			c.Advance(time.Microsecond)
			sim.Yield(c)
			if errs[id] = lt.Acquire(c, tx, second, Exclusive, DefaultAcquire); errs[id] != nil {
				return 0
			}
			lt.Unlock(tx, second, Exclusive)
			return 1
		})
		if !errors.Is(errs[0], ErrDeadlock) || errs[1] != nil {
			t.Fatalf("run %d: errs = %v, want ErrDeadlock for worker 0 and nil for worker 1", run, errs)
		}
		if lt.HeldByOther(0, 100) || lt.HeldByOther(0, 200) {
			t.Fatal("locks leaked after deadlock resolution")
		}
	}
}

// A refused Acquire waits, charging nothing, and resumes at the virtual time
// of the worker whose Unlock let it in.
func TestAcquireLandsAtTheReleasersTime(t *testing.T) {
	lt := NewLockTable()
	var waiterAt time.Duration
	sim.RunGroup(2, func(id int, c *sim.Clock) int {
		if id == 0 {
			lt.TryLock(1, 7, Exclusive)
			c.Advance(time.Microsecond)
			sim.Yield(c) // worker 1, earlier, runs and waits
			c.Advance(6 * time.Microsecond)
			lt.Unlock(1, 7, Exclusive)
			return 1
		}
		if err := lt.Acquire(c, 2, 7, Exclusive, DefaultAcquire); err != nil {
			t.Errorf("acquire: %v", err)
		}
		waiterAt = c.Now()
		lt.Unlock(2, 7, Exclusive)
		return 1
	})
	if waiterAt != 7*time.Microsecond {
		t.Fatalf("waiter resumed at %v, want the releaser's 7µs", waiterAt)
	}
}

// alone runs fn as the only worker of a group: a wait that cannot end
// fails instead of polling forever.
func alone(fn func(c *sim.Clock)) {
	sim.RunGroup(1, func(_ int, c *sim.Clock) int { fn(c); return 1 })
}

// The holder re-acquiring its own key with nobody left to run neither
// waits nor deadlocks, and its one Unlock frees the key: an exclusive hold
// is not counted.
func TestAcquireReentrantForHolder(t *testing.T) {
	lt := NewLockTable()
	alone(func(c *sim.Clock) {
		for i := 0; i < 2; i++ {
			if err := lt.Acquire(c, 1, 42, Exclusive, DefaultAcquire); err != nil {
				t.Errorf("acquire %d by the holder: %v", i, err)
			}
		}
		if c.Now() != 0 {
			t.Errorf("holder's re-entry advanced the clock to %v", c.Now())
		}
		if err := lt.Acquire(c, 2, 42, Exclusive, DefaultAcquire); !errors.Is(err, ErrDeadlock) {
			t.Errorf("acquire over the holder: want ErrDeadlock, got %v", err)
		}
		lt.Unlock(1, 42, Exclusive)
		if err := lt.Acquire(c, 2, 42, Exclusive, DefaultAcquire); err != nil {
			t.Errorf("acquire after the holder's one unlock: %v", err)
		}
	})
	lt.Unlock(2, 42, Exclusive)
	if lt.HeldByOther(0, 42) {
		t.Fatal("lock leaked after the re-entry cycle")
	}
}

// A remote Acquire against a lock that never frees, with nobody left to
// run, fails with ErrDeadlock having charged exactly its one failed CAS.
func TestRemoteAcquireTimesOut(t *testing.T) {
	cfg := sim.DefaultConfig()
	node := rdma.NewNode(cfg, "mem0", 1<<16)
	rlt := NewRemoteLockTable(0, 16)
	qp1 := rdma.Connect(cfg, node, nil)
	qp2 := rdma.Connect(cfg, node, nil)
	c := sim.NewClock()
	if ok, err := rlt.TryLock(c, qp1, 1, 5); err != nil || !ok {
		t.Fatalf("setup: %v %v", ok, err)
	}
	cas := c.Now()
	alone(func(c *sim.Clock) {
		if err := rlt.Acquire(c, qp2, 2, 5, DefaultAcquire); !errors.Is(err, ErrDeadlock) {
			t.Errorf("want ErrDeadlock, got %v", err)
		}
		if c.Now() != cas {
			t.Errorf("charged %v, want one CAS (%v)", c.Now(), cas)
		}
	})
}

// Injected fabric faults on the CAS path must surface as errors from
// Acquire (not spin, not succeed).
func TestRemoteAcquireSurfacesInjectedFault(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Fault = fault.New(11, fault.Profile{Name: "cas-drop", Drop: 1.0, Sites: []string{"rdma."}})
	node := rdma.NewNode(cfg, "mem0", 1<<16)
	rlt := NewRemoteLockTable(0, 16)
	qp := rdma.Connect(cfg, node, nil)
	err := rlt.Acquire(sim.NewClock(), qp, 1, 5, DefaultAcquire)
	if err == nil {
		t.Fatal("acquire succeeded across a fully dropped fabric")
	}
	if !errors.Is(err, sim.ErrInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
}
