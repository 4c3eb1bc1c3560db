package sim

import (
	"runtime"
	"sync"
	"time"
)

// Worker is the body of one simulated client. It receives the worker id, the
// worker's private clock, and its private RNG seed-derived stream, and
// returns the number of completed operations.
type Worker func(id int, c *Clock) (ops int)

// GroupResult aggregates a parallel run: throughput is computed against the
// *slowest* worker's virtual time, matching how a real fixed-duration
// benchmark would observe the system.
type GroupResult struct {
	Workers   int
	TotalOps  int
	MakeSpan  time.Duration // max over workers' virtual clocks
	SumTime   time.Duration // sum over workers' virtual clocks
	PerWorker []time.Duration
}

// Throughput reports aggregate operations per virtual second.
func (g GroupResult) Throughput() float64 {
	if g.MakeSpan <= 0 {
		return 0
	}
	return float64(g.TotalOps) / g.MakeSpan.Seconds()
}

// MeanLatency reports the mean per-operation virtual latency across workers.
func (g GroupResult) MeanLatency() time.Duration {
	if g.TotalOps == 0 {
		return 0
	}
	return g.SumTime / time.Duration(g.TotalOps)
}

// RunGroup executes n workers, each with a fresh clock, and aggregates their
// virtual-time results. The workers are goroutines, so their code stays
// straight-line, but they take turns: exactly one holds the baton, and it
// changes hands only at Yield and Wait, going to the runnable worker with the
// lowest virtual time (ties to the lower id). A run is therefore a function
// of its inputs alone, the same at any GOMAXPROCS.
func RunGroup(n int, w Worker) GroupResult {
	res := GroupResult{Workers: n, PerWorker: make([]time.Duration, n)}
	if n <= 0 {
		return res
	}
	ops := make([]int, n)
	g := &group{ws: make([]*worker, n)}
	for i := range g.ws {
		wk := &worker{g: g, id: i, wake: make(chan struct{}, 1)}
		wk.c = &Clock{w: wk}
		g.ws[i] = wk
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for _, wk := range g.ws {
		go func() {
			defer func() {
				// Also on a panic or Goexit (t.FailNow), so the others run on.
				res.PerWorker[wk.id] = wk.c.Now()
				wk.state = done
				g.pass(wk)
				wg.Done()
			}()
			<-wk.wake
			ops[wk.id] = w(wk.id, wk.c)
		}()
	}
	g.ws[0].wake <- struct{}{}
	wg.Wait()
	for i := 0; i < n; i++ {
		res.TotalOps += ops[i]
		res.SumTime += res.PerWorker[i]
		if res.PerWorker[i] > res.MakeSpan {
			res.MakeSpan = res.PerWorker[i]
		}
	}
	return res
}

// group is RunGroup's scheduler state. Only the baton holder touches it; the
// channel hand-off orders one holder's writes before the next one's reads.
type group struct {
	ws []*worker
}

type workerState uint8

const (
	runnable workerState = iota
	waiting
	done
)

// worker is one group member: its clock, its place in the turn order, and
// while it waits, what it waits for.
type worker struct {
	g     *group
	id    int
	c     *Clock
	wake  chan struct{}
	state workerState
	cond  condition
	leads bool // a batch leader's wait: the first to give up
	ok    bool // what the last Wait returns
	hold  int  // Hold depth: Yield keeps the baton while > 0
}

// condition is what a waiter waits for. The batcher implements it on its
// batch type, so its waits build nothing per submission.
type condition interface{ holds() bool }

type condFunc func() bool

func (f condFunc) holds() bool { return f() }

// release frees every waiter other than from whose condition now holds, at
// from's virtual time: that is when the change it waited for happened.
func (g *group) release(from *worker) {
	for _, w := range g.ws {
		if w != from && w.state == waiting && w.cond.holds() {
			w.state, w.cond, w.ok = runnable, nil, true
			w.c.AdvanceTo(from.c.now)
		}
	}
}

// pass releases what from's turn made ready and hands the baton to the
// runnable worker with the lowest virtual time, ties to the lower id. When
// none can run, a batch leader gives up first (its batch flushes on timeout);
// otherwise the earliest waiter's Wait fails. Either way the group moves on.
func (g *group) pass(from *worker) {
	g.release(from)
	var next, victim *worker
	for _, w := range g.ws {
		switch w.state {
		case runnable:
			if next == nil || w.c.now < next.c.now {
				next = w
			}
		case waiting:
			if victim == nil || w.leads && !victim.leads ||
				w.leads == victim.leads && w.c.now < victim.c.now {
				victim = w
			}
		}
	}
	if next == nil {
		if victim == nil {
			return // from was the last worker
		}
		victim.state, victim.cond, victim.ok = runnable, nil, false
		next = victim
	}
	if next == from {
		return
	}
	// Read from's state before the hand-off: from then on it is next's.
	park := from.state != done
	next.wake <- struct{}{}
	if park {
		<-from.wake
	}
}

// Yield is a turn boundary: the baton passes to whichever worker of c's group
// is now earliest in virtual time, which may be the caller. Outside a group,
// or under Hold, it does nothing.
func Yield(c *Clock) {
	if w := c.w; w != nil && w.hold == 0 {
		w.g.pass(w)
	}
}

// Wait blocks c's worker until cond holds and reports whether it did. A
// waiter released by another worker lands at that worker's virtual time; it
// never re-tests cond until someone else has run. Wait returns false only
// when no worker of the group can run and this one is the earliest waiter:
// the caller gives up (a lock wait reports a deadlock). Outside a group, Wait
// polls cond between runtime.Gosched calls and always returns true.
//
// cond is called by whichever worker holds the baton, so it must be safe to
// call from any goroutine; it may act when it holds (a lock try-acquire).
// Callers test their condition once before building a closure for Wait, so
// the uncontended path allocates nothing.
func Wait(c *Clock, cond func() bool) bool {
	return wait(c, condFunc(cond), false)
}

func wait(c *Clock, cond condition, leads bool) bool {
	if cond.holds() {
		return true
	}
	w := c.w
	if w == nil {
		if leads {
			return false // no group to go idle: a lone leader flushes now
		}
		for !cond.holds() {
			runtime.Gosched()
		}
		return true
	}
	w.state, w.cond, w.leads = waiting, cond, leads
	w.g.pass(w)
	return w.ok
}

// notify releases, without passing the baton, the waiters of c's group whose
// condition the caller just made true, at the caller's virtual time.
func notify(c *Clock) {
	if w := c.w; w != nil {
		w.g.release(w)
	}
}

// Hold keeps the baton with c's worker across Yield until the matching
// Unhold (Wait still passes it). A worker that holds a sync lock another
// worker may need must not yield it away: cluster.Fleet holds its membership
// read lock across engine.Run, and so suppresses the yield at its entry.
func Hold(c *Clock) {
	if w := c.w; w != nil {
		w.hold++
	}
}

// Unhold ends one Hold.
func Unhold(c *Clock) {
	if w := c.w; w != nil {
		w.hold--
	}
}
