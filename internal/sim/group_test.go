package sim

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// The baton goes to the runnable worker with the lowest virtual time, ties
// to the lower id.
func TestRunGroupLowestTimeFirstTiesToLowerID(t *testing.T) {
	step := []time.Duration{2 * time.Microsecond, time.Microsecond, time.Microsecond}
	var order []int
	RunGroup(3, func(id int, c *Clock) int {
		for turn := 0; turn < 3; turn++ {
			order = append(order, id)
			c.Advance(step[id])
			Yield(c)
		}
		return 3
	})
	// Clocks before each turn: 0:0 1:0 2:0 | 1:1 2:1 | 0:2 1:2 2:2 | 0:4.
	if want := []int{0, 1, 2, 1, 2, 0, 1, 2, 0}; !slices.Equal(order, want) {
		t.Fatalf("turn order %v, want %v", order, want)
	}
}

// A waiter released by another worker lands at that worker's virtual time.
func TestWaitLandsAtTheReleasersClock(t *testing.T) {
	var flag atomic.Bool
	var woke time.Duration
	RunGroup(2, func(id int, c *Clock) int {
		if id == 0 {
			if !Wait(c, flag.Load) {
				t.Error("Wait failed with a runnable releaser")
			}
			woke = c.Now()
			return 1
		}
		c.Advance(5 * time.Millisecond)
		flag.Store(true)
		Yield(c)
		return 1
	})
	if woke != 5*time.Millisecond {
		t.Fatalf("waiter woke at %v, want the releaser's 5ms", woke)
	}
}

// When every worker waits, a batch leader gives up first (its batch flushes
// on timeout); only then does the earliest plain waiter's Wait fail.
func TestAllWaitingFailsTheLeaderBeforeALockWaiter(t *testing.T) {
	var events []string
	b := NewBatcher(nil, "test", BatchPolicy{MaxItems: 4, Window: 50 * time.Microsecond,
		OnFlush: func(n int, r FlushReason) { events = append(events, "flush "+r.String()) }},
		func(c *Clock, items []int, out []int) error { return nil })
	RunGroup(2, func(id int, c *Clock) int {
		if id == 0 {
			// The earlier waiter: a lock nobody will release.
			if Wait(c, func() bool { return false }) {
				t.Error("Wait on a condition that never holds returned true")
			}
			events = append(events, "waiter fails")
			return 0
		}
		c.Advance(time.Microsecond)
		if _, err := b.Submit(c, 1); err != nil {
			t.Error(err)
		}
		events = append(events, "leader returns")
		return 1
	})
	if want := []string{"flush timeout", "leader returns", "waiter fails"}; !slices.Equal(events, want) {
		t.Fatalf("events %v, want %v", events, want)
	}
}

// Outside a group, Yield does nothing and Wait polls until the condition
// holds, however long another goroutine takes to make it true.
func TestWaitOutsideAGroupPolls(t *testing.T) {
	c := NewClock()
	Yield(c)
	var flag atomic.Bool
	go func() {
		for i := 0; i < 100; i++ {
			runtime.Gosched()
		}
		flag.Store(true)
	}()
	if !Wait(c, flag.Load) || !flag.Load() {
		t.Fatal("Wait returned before its condition held")
	}
	if c.Now() != 0 {
		t.Fatalf("a free-running wait charged %v", c.Now())
	}
}

// Yield and an already-true Wait allocate nothing, in a group or not.
func TestWaitAndYieldAllocateNothingUncontended(t *testing.T) {
	holds := func() bool { return true }
	check := func(where string, c *Clock) {
		if n := testing.AllocsPerRun(100, func() {
			Yield(c)
			Wait(c, holds)
		}); n != 0 {
			t.Errorf("%s: %.1f allocations per Yield+Wait, want 0", where, n)
		}
	}
	check("free-running", NewClock())
	RunGroup(1, func(_ int, c *Clock) int { check("in a group", c); return 0 })
}

// A batch allocates its struct, items, arrivals and results; the leader's
// and the followers' waits add nothing per submission.
func TestBatchWaitsAllocateNothingPerSubmission(t *testing.T) {
	b := NewBatcher(nil, "test", BatchPolicy{MaxItems: 4, Window: time.Microsecond},
		func(c *Clock, items []int, out []int) error { return nil })
	run := func(rounds int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		RunGroup(4, func(_ int, c *Clock) int {
			for i := 0; i < rounds; i++ {
				b.Submit(c, i)
			}
			return rounds
		})
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	run(8) // warm up
	const rounds = 200
	perBatch := float64(run(rounds)-run(0)) / rounds
	t.Logf("%.2f allocations per batch of 4", perBatch)
	if perBatch > 4.5 {
		t.Fatalf("%.2f allocations per batch of 4, want 4 (nothing per submission)", perBatch)
	}
}

// MaxItems workers submitting in lockstep fill every batch.
func TestMaxItemsWorkersFillEveryBatch(t *testing.T) {
	const workers, rounds = 8, 50
	b := NewBatcher(nil, "test", BatchPolicy{MaxItems: workers, Window: 50 * time.Microsecond},
		func(c *Clock, items []int, out []int) error { c.Advance(10 * time.Microsecond); return nil })
	RunGroup(workers, func(id int, c *Clock) int {
		for i := 0; i < rounds; i++ {
			c.Advance(time.Duration(id+1) * time.Microsecond)
			b.Submit(c, i)
			Yield(c)
		}
		return rounds
	})
	s := b.Stats()
	if s.Flushes != rounds || s.SizeFlushes != rounds || s.MeanOccupancy() != workers {
		t.Fatalf("stats %+v, want %d full flushes of %d", s, rounds, workers)
	}
}

// A worker's panic reaches RunGroup's caller once the other workers have
// unwound from their pending Yield and Wait, running their deferred calls;
// no coroutine outlives the group. A worker's Goexit ends the caller's
// goroutine the same way.
func TestRunGroupPanicReachesTheCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	var unwound atomic.Int32
	var got any
	func() {
		defer func() { got = recover() }()
		RunGroup(4, func(id int, c *Clock) int {
			defer unwound.Add(1)
			for turn := 0; ; turn++ {
				if id == 2 && turn == 3 {
					panic("worker 2 fails")
				}
				if id == 3 {
					Wait(c, func() bool { return false })
				}
				c.Advance(time.Microsecond)
				Yield(c)
			}
		})
	}()
	if got != "worker 2 fails" {
		t.Fatalf("RunGroup's caller recovered %v, want the worker's panic value", got)
	}
	if n := unwound.Load(); n != 4 {
		t.Fatalf("%d workers ran their deferred calls, want 4", n)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines after the group, %d before", after, before)
	}

	returned := false
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		RunGroup(2, func(id int, c *Clock) int {
			if id == 1 {
				runtime.Goexit()
			}
			Yield(c)
			return 0
		})
		returned = true
	}()
	<-exited
	if returned {
		t.Fatal("RunGroup returned after a worker called Goexit")
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines after a Goexit, %d before", after, before)
	}
}

// RunGroup allocates a bounded number of objects per worker, nothing per
// turn: iter.Pull's coroutine is 12 objects (its closures and the state
// they share), and the workers, clocks, heap and waiter list are one slice
// each per group.
func TestRunGroupAllocationsPerWorker(t *testing.T) {
	const workers = 64
	run := func(yields int) float64 {
		return testing.AllocsPerRun(20, func() {
			RunGroup(workers, func(_ int, c *Clock) int {
				for range yields {
					c.Advance(time.Microsecond)
					Yield(c)
				}
				return yields
			})
		})
	}
	perWorker := run(0) / workers
	t.Logf("%.2f allocations per worker", perWorker)
	if perWorker > 12.5 {
		t.Fatalf("%.2f allocations per worker, want at most 12.5", perWorker)
	}
	if extra := run(100) - run(0); extra > 0 {
		t.Fatalf("100 turns per worker allocate %.0f more objects per group, want 0", extra)
	}
}

// BenchmarkRunGroupPass hands the baton round the group: 64 workers, 100
// yields each, every yield a pass.
func BenchmarkRunGroupPass(b *testing.B) {
	const workers, yields = 64, 100
	b.ReportAllocs()
	for b.Loop() {
		RunGroup(workers, func(_ int, c *Clock) int {
			for range yields {
				c.Advance(time.Microsecond)
				Yield(c)
			}
			return yields
		})
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*workers*yields), "ns/pass")
}
