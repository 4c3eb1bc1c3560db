package sim

import (
	"errors"
	"iter"
	"runtime"
	"slices"
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
// virtual-time results. The workers are coroutines (iter.Pull), so their code
// stays straight-line, but they take turns: exactly one holds the baton, and
// it changes hands only at Yield and Wait, going to the runnable worker
// earliest in virtual time (before). RunGroup's own goroutine drives them:
// a worker that passes the baton yields to it, and it resumes the next. A
// run is therefore a function of its inputs alone, the same at any
// GOMAXPROCS.
//
// A worker's panic or runtime.Goexit (t.FailNow) reaches RunGroup's caller
// once the other workers are stopped: each unwinds from its pending Yield or
// Wait, running its deferred calls.
func RunGroup(n int, w Worker) GroupResult {
	res := GroupResult{Workers: n, PerWorker: make([]time.Duration, n)}
	if n <= 0 {
		return res
	}
	g := &group{
		body:    w,
		ws:      make([]worker, n),
		heap:    make([]*worker, 0, n),
		waiters: make([]*worker, 0, n),
	}
	clocks := make([]Clock, n)
	for i := range g.ws {
		wk := &g.ws[i]
		wk.g, wk.id, wk.c = g, i, &clocks[i]
		clocks[i].w = wk
		wk.resume, wk.stop = iter.Pull(wk.run)
		if i > 0 {
			g.heap = append(g.heap, wk) // all at time 0, by id: a heap already
		}
	}
	// Once every worker is done this stops nothing; after a worker's panic
	// or Goexit it unwinds the others before that reaches the caller.
	defer g.stopAll()
	for g.cur = &g.ws[0]; g.cur != nil; {
		g.cur.resume()
	}
	for i := range g.ws {
		wk := &g.ws[i]
		res.PerWorker[i] = wk.c.now
		res.TotalOps += wk.ops
		res.SumTime += wk.c.now
		res.MakeSpan = max(res.MakeSpan, wk.c.now)
	}
	return res
}

// group is RunGroup's scheduler state. Only the baton holder or the driver
// loop touches it, and the coroutine switch between them orders their
// accesses.
type group struct {
	body Worker
	ws   []worker
	cur  *worker // the worker the driver resumes next; nil once all are done
	// heap holds the runnable workers other than the baton holder, ordered
	// by before. Their clocks do not move while they sit there.
	heap []*worker
	// waiters holds the waiting workers, by id.
	waiters  []*worker
	stopping bool // stopAll is unwinding the workers
}

type workerState uint8

const (
	runnable workerState = iota
	waiting
	done
)

// worker is one group member: its clock, its coroutine, its place in the
// turn order, and while it waits, what it waits for.
type worker struct {
	g      *group
	id     int
	c      *Clock
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	ops    int
	state  workerState
	cond   condition
	leads  bool // a batch leader's wait: the first to give up
	ok     bool // what the last Wait returns
	hold   int  // Hold depth: Yield keeps the baton while > 0
}

// errStopped unwinds a worker that stopAll resumed.
var errStopped = errors.New("sim: group stopped")

// run is the worker's coroutine body.
func (wk *worker) run(yield func(struct{}) bool) {
	wk.yield = yield
	defer func() {
		if wk.g.stopping {
			if p := recover(); p != nil && p != errStopped {
				panic(p)
			}
		}
	}()
	wk.ops = wk.g.body(wk.id, wk.c)
	wk.state = done
	wk.g.pass(wk)
}

// stopAll ends every worker's coroutine: a suspended worker's pending yield
// returns false and it unwinds through errStopped.
func (g *group) stopAll() {
	g.stopping = true
	for i := range g.ws {
		g.ws[i].stop()
	}
}

// before is the turn order: a runnable worker runs before another when its
// virtual time is lower, ties to the lower id.
func before(a, b *worker) bool {
	return a.c.now < b.c.now || a.c.now == b.c.now && a.id < b.id
}

// condition is what a waiter waits for. The batcher implements it on its
// batch type, so its waits build nothing per submission.
type condition interface{ holds() bool }

type condFunc func() bool

func (f condFunc) holds() bool { return f() }

// release frees every waiter other than from whose condition now holds, at
// from's virtual time: that is when the change it waited for happened. It
// tests them in id order, since a condition may act (a try-lock).
func (g *group) release(from *worker) {
	kept := g.waiters[:0]
	for _, w := range g.waiters {
		if w != from && w.cond.holds() {
			w.state, w.cond, w.ok = runnable, nil, true
			w.c.AdvanceTo(from.c.now)
			g.push(w)
		} else {
			kept = append(kept, w)
		}
	}
	clear(g.waiters[len(kept):])
	g.waiters = kept
}

// pass releases what from's turn made ready and hands the baton to the
// earliest runnable worker. When none can run, a batch leader gives up
// first (its batch flushes on timeout); otherwise the earliest waiter's Wait
// fails. Either way the group moves on.
func (g *group) pass(from *worker) {
	if g.stopping {
		panic(errStopped) // a stopped worker's deferred calls hand nothing on
	}
	g.release(from)
	next := g.pick(from)
	if next == from {
		return
	}
	g.cur = next
	if from.state != done && !from.yield(struct{}{}) {
		panic(errStopped)
	}
}

// pick returns the worker to hold the baton after from, moving from into
// the heap when it stays runnable but loses the baton.
func (g *group) pick(from *worker) *worker {
	if from.state == runnable {
		if len(g.heap) == 0 || before(from, g.heap[0]) {
			return from
		}
		next := g.heap[0]
		g.heap[0] = from
		g.down(0)
		return next
	}
	if len(g.heap) > 0 {
		next := g.heap[0]
		last := len(g.heap) - 1
		g.heap[0] = g.heap[last]
		g.heap[last] = nil
		g.heap = g.heap[:last]
		g.down(0)
		return next
	}
	var victim *worker
	vi := 0
	for i, w := range g.waiters {
		if victim == nil || w.leads && !victim.leads || w.leads == victim.leads && before(w, victim) {
			victim, vi = w, i
		}
	}
	if victim == nil {
		return nil // from was the last worker
	}
	g.waiters = slices.Delete(g.waiters, vi, vi+1)
	victim.state, victim.cond, victim.ok = runnable, nil, false
	return victim
}

func (g *group) push(w *worker) {
	g.heap = append(g.heap, w)
	for i := len(g.heap) - 1; i > 0; {
		p := (i - 1) / 2
		if !before(g.heap[i], g.heap[p]) {
			break
		}
		g.heap[i], g.heap[p] = g.heap[p], g.heap[i]
		i = p
	}
}

func (g *group) down(i int) {
	h := g.heap
	for {
		m := i
		if l := 2*i + 1; l < len(h) && before(h[l], h[m]) {
			m = l
		}
		if r := 2*i + 2; r < len(h) && before(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
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
// cond is called by whichever worker holds the baton; it may act when it
// holds (a lock try-acquire). Callers test their condition once before
// building a closure for Wait, so the uncontended path allocates nothing.
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
	g := w.g
	g.waiters = append(g.waiters, w)
	for i := len(g.waiters) - 1; i > 0 && g.waiters[i-1].id > w.id; i-- {
		g.waiters[i], g.waiters[i-1] = g.waiters[i-1], g.waiters[i]
	}
	g.pass(w)
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
