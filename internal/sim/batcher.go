package sim

import (
	"sync"
	"sync/atomic"
	"time"
)

// FlushReason says why a batch was flushed.
type FlushReason int

const (
	// FlushSize: the batch reached BatchPolicy.MaxItems.
	FlushSize FlushReason = iota
	// FlushTimeout: the batch could not fill — no other worker of the
	// leader's group could run to join it, or the leader has no group — so
	// the batch is charged the virtual window instead.
	FlushTimeout
)

func (r FlushReason) String() string {
	if r == FlushSize {
		return "size"
	}
	return "timeout"
}

// BatchPolicy configures a Batcher.
type BatchPolicy struct {
	// MaxItems is the size trigger; 1 flushes every Submit as a batch of
	// one at once.
	MaxItems int
	// Window is the virtual-time trigger: when a batch flushes on timeout
	// the group is charged as if the leader had waited Window after its
	// own arrival, modeling a group-commit timer.
	Window time.Duration
	// OnFlush, when non-nil, is called once per flush (after the flush
	// function returns) with the batch occupancy and trigger; engines use
	// it to feed their own counters. Called on the leader's goroutine.
	OnFlush func(n int, reason FlushReason)
}

// FlushFunc performs one combined flush for a sealed batch. It runs on the
// leader's clock, which has already been advanced to the latest arrival in
// the group (plus the window, on timeout); items preserve submission order
// and out[i] must receive item i's result. An error fails every
// participant in the batch.
type FlushFunc[T, R any] func(c *Clock, items []T, out []R) error

// batch is one combining group. Its leader waits until filled (set by the
// submission that takes the last slot), its followers until flushed (set by
// the leader after the flush; they then read end/err/out).
type batch[T, R any] struct {
	items   []T
	out     []R
	arrive  []time.Duration
	sealed  bool
	filled  atomic.Bool
	flushed atomic.Bool
	end     time.Duration
	err     error
}

// batchFilled and batchFlushed are a batch seen as the condition its leader
// and its followers wait for, so a wait builds nothing per submission.
type (
	batchFilled[T, R any]  batch[T, R]
	batchFlushed[T, R any] batch[T, R]
)

func (b *batchFilled[T, R]) holds() bool  { return b.filled.Load() }
func (b *batchFlushed[T, R]) holds() bool { return b.flushed.Load() }

// Batcher combines concurrent submissions into shared flushes — the one
// group-commit/doorbell-batching mechanism used by the log stores, raft,
// the RDMA layer and the memory-node RPC path.
//
// The first submitter of a group becomes its leader. The leader waits (a
// sim.Wait, costing no virtual time) until the batch fills (FlushSize) or no
// other worker of its RunGroup can run to join it (FlushTimeout), then runs
// the flush once for everyone. Sealing on "full or the group is idle" rather
// than on a virtual deadline keeps groups whole however far apart the
// members' clocks are. A leader outside any group flushes at once. In
// virtual time the whole group pays max(arrival times) (+ Window on timeout)
// before the flush cost, and every participant — leader and followers alike
// — wakes at the same virtual completion time with the same error, which is
// what makes "all commits in a group share one durable LSN" fall out
// naturally.
//
// Determinism: items flush in submission order, and each flush is a single
// substrate operation, so a seeded fault injector sees one op per flush.
// Under RunGroup the submission order, and so every flush's contents, is a
// function of the workers' virtual clocks.
type Batcher[T, R any] struct {
	pol   BatchPolicy
	flush FlushFunc[T, R]

	mu  sync.Mutex
	cur *batch[T, R]

	flushes        atomic.Int64
	items          atomic.Int64
	sizeFlushes    atomic.Int64
	timeoutFlushes atomic.Int64
	maxOccupancy   atomic.Int64
}

// BatcherStats is a snapshot of a batcher's counters.
type BatcherStats struct {
	Flushes        int64
	Items          int64
	SizeFlushes    int64
	TimeoutFlushes int64
	MaxOccupancy   int64
}

// MeanOccupancy reports items per flush.
func (s BatcherStats) MeanOccupancy() float64 {
	if s.Flushes == 0 {
		return 0
	}
	return float64(s.Items) / float64(s.Flushes)
}

// NewBatcher builds a batcher over flush and registers its counters with
// cfg's stats registry (if any) under site. cfg may be nil.
func NewBatcher[T, R any](cfg *Config, site string, pol BatchPolicy, flush FlushFunc[T, R]) *Batcher[T, R] {
	b := &Batcher[T, R]{pol: pol, flush: flush}
	if cfg != nil {
		cfg.Register(site, b.Stats)
	}
	return b
}

// Stats snapshots the batcher's counters.
func (b *Batcher[T, R]) Stats() BatcherStats {
	return BatcherStats{
		Flushes:        b.flushes.Load(),
		Items:          b.items.Load(),
		SizeFlushes:    b.sizeFlushes.Load(),
		TimeoutFlushes: b.timeoutFlushes.Load(),
		MaxOccupancy:   b.maxOccupancy.Load(),
	}
}

func (b *Batcher[T, R]) note(n int, reason FlushReason) {
	b.flushes.Add(1)
	b.items.Add(int64(n))
	if reason == FlushSize {
		b.sizeFlushes.Add(1)
	} else {
		b.timeoutFlushes.Add(1)
	}
	for {
		cur := b.maxOccupancy.Load()
		if int64(n) <= cur || b.maxOccupancy.CompareAndSwap(cur, int64(n)) {
			break
		}
	}
	if b.pol.OnFlush != nil {
		b.pol.OnFlush(n, reason)
	}
}

// Submit adds item to the current batch and blocks until the batch
// containing it has flushed. It returns the item's result and the flush error
// shared by the whole group; the caller's clock lands at the group's virtual
// completion time.
func (b *Batcher[T, R]) Submit(c *Clock, item T) (R, error) {
	b.mu.Lock()
	my := b.cur
	if my == nil || my.sealed || len(my.items) >= b.pol.MaxItems {
		my = &batch[T, R]{
			items:  make([]T, 0, b.pol.MaxItems),
			arrive: make([]time.Duration, 0, b.pol.MaxItems),
		}
		b.cur = my
	}
	idx := len(my.items)
	my.items = append(my.items, item)
	my.arrive = append(my.arrive, c.Now())
	if len(my.items) == b.pol.MaxItems {
		my.filled.Store(true)
	}
	b.mu.Unlock()
	if idx > 0 {
		// Follower: the leader flushes for us and releases us at the
		// group's virtual completion time. A follower never gives up — its
		// item is in the flush.
		for !wait(c, (*batchFlushed[T, R])(my), false) {
		}
		c.AdvanceTo(my.end)
		return my.out[idx], my.err
	}

	// Leader: wait, at no virtual cost, until the batch fills or nobody
	// else in the group can run to join it.
	wait(c, (*batchFilled[T, R])(my), true)
	b.mu.Lock()
	my.sealed = true
	if b.cur == my {
		b.cur = nil
	}
	n := len(my.items)
	b.mu.Unlock()
	reason := FlushTimeout
	if n >= b.pol.MaxItems {
		reason = FlushSize
	}

	// The group completes no earlier than its latest arrival; a timeout
	// flush additionally waits out the virtual window from the leader's
	// arrival, whichever is later.
	start := my.arrive[0]
	for _, a := range my.arrive[1:] {
		if a > start {
			start = a
		}
	}
	if reason == FlushTimeout && b.pol.Window > 0 {
		if w := my.arrive[0] + b.pol.Window; w > start {
			start = w
		}
	}
	c.AdvanceTo(start)
	my.out = make([]R, n)
	my.err = b.flush(c, my.items, my.out)
	my.end = c.Now()
	b.note(n, reason)
	my.flushed.Store(true)
	notify(c)
	return my.out[0], my.err
}
