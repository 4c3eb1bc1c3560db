package sim

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// countingFlush charges a fixed cost and returns each item doubled.
func countingFlush(cost time.Duration, calls *int, sizes *[]int) FlushFunc[int, int] {
	var mu sync.Mutex
	return func(c *Clock, items []int, out []int) error {
		mu.Lock()
		*calls++
		*sizes = append(*sizes, len(items))
		mu.Unlock()
		c.Advance(cost)
		for i, v := range items {
			out[i] = 2 * v
		}
		return nil
	}
}

func TestBatcherFlushOnSize(t *testing.T) {
	var calls int
	var sizes []int
	b := NewBatcher(nil, "test", BatchPolicy{MaxItems: 4, Window: time.Millisecond},
		countingFlush(10*time.Microsecond, &calls, &sizes))

	// Eight workers at virtual time 0: the first four fill one batch, the
	// next four another, and each batch wakes together after the flush.
	const workers = 8
	ends := make([]time.Duration, workers)
	RunGroup(workers, func(w int, c *Clock) int {
		r, err := b.Submit(c, w)
		if err != nil {
			t.Errorf("worker %d: %v", w, err)
		}
		if r != 2*w {
			t.Errorf("worker %d: result %d, want %d", w, r, 2*w)
		}
		ends[w] = c.Now()
		return 1
	})

	s := b.Stats()
	if s.Items != workers || s.SizeFlushes != 2 || s.TimeoutFlushes != 0 {
		t.Fatalf("stats %+v, want 8 items in 2 size flushes", s)
	}
	if calls != 2 || len(sizes) != 2 || sizes[0] != 4 || sizes[1] != 4 {
		t.Fatalf("flush sizes %v, want [4 4]", sizes)
	}
	for w, e := range ends {
		if e != 10*time.Microsecond {
			t.Fatalf("worker %d ended at %v, want the flush end 10µs", w, e)
		}
	}
}

func TestBatcherFlushOnTimeoutChargesWindow(t *testing.T) {
	var calls int
	var sizes []int
	const window = 50 * time.Microsecond
	b := NewBatcher(nil, "test", BatchPolicy{MaxItems: 8, Window: window},
		countingFlush(10*time.Microsecond, &calls, &sizes))

	// A single submitter outside any group can never fill the batch: the
	// leader flushes at once (no hang) and charges the virtual window.
	c := NewClock()
	r, err := b.Submit(c, 21)
	if err != nil || r != 42 {
		t.Fatalf("Submit = %d, %v", r, err)
	}
	if want := window + 10*time.Microsecond; c.Now() != want {
		t.Fatalf("clock = %v, want window+flush = %v", c.Now(), want)
	}
	s := b.Stats()
	if s.TimeoutFlushes != 1 || s.SizeFlushes != 0 {
		t.Fatalf("flush reasons = %ds/%dt, want 0s/1t", s.SizeFlushes, s.TimeoutFlushes)
	}
}

func TestBatcherSharedError(t *testing.T) {
	boom := errors.New("flush failed")
	b := NewBatcher(nil, "test", BatchPolicy{MaxItems: 4},
		func(c *Clock, items []int, out []int) error { return boom })

	const workers = 4
	errs := make([]error, workers)
	RunGroup(workers, func(w int, c *Clock) int {
		_, errs[w] = b.Submit(c, w)
		return 1
	})
	for w, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("worker %d error = %v, want shared flush error", w, err)
		}
	}
	if s := b.Stats(); s.Flushes != 1 {
		t.Fatalf("%d flushes, want one shared flush", s.Flushes)
	}
}

func TestBatcherOnFlushCallback(t *testing.T) {
	var reasons []FlushReason
	var occs []int
	b := NewBatcher(nil, "test", BatchPolicy{
		MaxItems: 4, Window: time.Microsecond,
		OnFlush: func(n int, r FlushReason) { occs = append(occs, n); reasons = append(reasons, r) },
	}, func(c *Clock, items []int, out []int) error { return nil })

	c := NewClock()
	if _, err := b.Submit(c, 1); err != nil {
		t.Fatal(err)
	}
	if len(reasons) != 1 || reasons[0] != FlushTimeout || occs[0] != 1 {
		t.Fatalf("OnFlush saw %v %v, want one timeout flush of 1", occs, reasons)
	}
}

// TestBatcherDeterministicCounters replays the same single-threaded
// submission sequence twice and requires identical counters and identical
// virtual completion times — the reproducibility property seeded fault
// replays depend on.
func TestBatcherDeterministicCounters(t *testing.T) {
	run := func() (BatcherStats, time.Duration) {
		var calls int
		var sizes []int
		b := NewBatcher(nil, "test", BatchPolicy{MaxItems: 4, Window: 20 * time.Microsecond},
			countingFlush(5*time.Microsecond, &calls, &sizes))
		c := NewClock()
		for i := 0; i < 16; i++ {
			if _, err := b.Submit(c, i); err != nil {
				t.Fatal(err)
			}
			c.Advance(time.Microsecond)
		}
		return b.Stats(), c.Now()
	}
	s1, t1 := run()
	s2, t2 := run()
	if s1 != s2 {
		t.Fatalf("counters differ across replays: %+v vs %+v", s1, s2)
	}
	if t1 != t2 {
		t.Fatalf("virtual end differs across replays: %v vs %v", t1, t2)
	}
}
