package sim

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// The baton's documented rule, as a linear scan over goroutines that hand a
// channel token on: release tests every waiting worker in id order; the
// runnable worker with the lowest virtual time runs next, ties to the lower
// id; when none can run, a batch leader gives up first, then the earliest
// waiter. The differential test below runs random scripts under RunGroup and
// under this model and wants the same steps, in the same order, at the same
// clocks.

type modelGroup struct{ ws []*modelWorker }

type modelWorker struct {
	g     *modelGroup
	id    int
	now   time.Duration
	wake  chan struct{}
	state workerState
	cond  func() bool
	leads bool
	ok    bool
}

// runModel runs n model workers and returns their final clocks.
func runModel(n int, body func(w *modelWorker)) []time.Duration {
	g := &modelGroup{}
	for i := range n {
		g.ws = append(g.ws, &modelWorker{g: g, id: i, wake: make(chan struct{}, 1)})
	}
	finished := make(chan struct{}, n)
	for _, w := range g.ws {
		go func() {
			<-w.wake
			body(w)
			w.state = done
			g.pass(w)
			finished <- struct{}{}
		}()
	}
	g.ws[0].wake <- struct{}{}
	clocks := make([]time.Duration, n)
	for range n {
		<-finished
	}
	for i, w := range g.ws {
		clocks[i] = w.now
	}
	return clocks
}

func (g *modelGroup) release(from *modelWorker) {
	for _, w := range g.ws {
		if w != from && w.state == waiting && w.cond() {
			w.state, w.cond, w.ok = runnable, nil, true
			w.now = max(w.now, from.now)
		}
	}
}

func (g *modelGroup) pass(from *modelWorker) {
	g.release(from)
	var next, victim *modelWorker
	for _, w := range g.ws {
		switch w.state {
		case runnable:
			if next == nil || w.now < next.now {
				next = w
			}
		case waiting:
			if victim == nil || w.leads && !victim.leads || w.leads == victim.leads && w.now < victim.now {
				victim = w
			}
		}
	}
	if next == nil {
		if victim == nil {
			return
		}
		victim.state, victim.cond, victim.ok = runnable, nil, false
		next = victim
	}
	if next == from {
		return
	}
	park := from.state != done
	next.wake <- struct{}{}
	if park {
		<-from.wake
	}
}

func (w *modelWorker) wait(cond func() bool, leads bool) bool {
	if cond() {
		return true
	}
	w.state, w.cond, w.leads = waiting, cond, leads
	w.g.pass(w)
	return w.ok
}

// modelBatcher is sim.Batcher's protocol over the model: the first
// submitter leads and waits, as a leader, until the batch fills; the others
// wait until it flushes and land at its end.
type modelBatcher struct {
	max           int
	window, flush time.Duration
	cur           *modelBatch
}

type modelBatch struct {
	arrive                  []time.Duration
	filled, sealed, flushed bool
	end                     time.Duration
}

func (b *modelBatcher) submit(w *modelWorker) {
	my := b.cur
	if my == nil || my.sealed || len(my.arrive) >= b.max {
		my = &modelBatch{}
		b.cur = my
	}
	idx := len(my.arrive)
	my.arrive = append(my.arrive, w.now)
	my.filled = len(my.arrive) == b.max
	if idx > 0 {
		for !w.wait(func() bool { return my.flushed }, false) {
		}
		w.now = max(w.now, my.end)
		return
	}
	w.wait(func() bool { return my.filled }, true)
	my.sealed = true
	if b.cur == my {
		b.cur = nil
	}
	start := slices.Max(my.arrive)
	if len(my.arrive) < b.max && b.window > 0 {
		start = max(start, my.arrive[0]+b.window)
	}
	w.now = max(w.now, start) + b.flush
	my.end, my.flushed = w.now, true
	w.g.release(w)
}

// A script is what one worker does, step by step.
type scriptStep struct {
	kind int // one of the step constants
	k    int // the flag or lock
	d    time.Duration
}

const (
	stepAdvance = iota
	stepYield
	stepSet
	stepWaitFlag
	stepLock
	stepUnlock
	stepSubmit
)

// turnTaker is one worker's view of a scheduler: RunGroup's or the model's.
type turnTaker interface {
	now() time.Duration
	advance(d time.Duration)
	yield()
	wait(cond func() bool) bool
	submit()
}

// logEntry is one executed step: who ran it, at what clock, and what a wait
// returned.
type logEntry struct {
	id, pc int
	at     time.Duration
	ok     bool
}

// scripts holds the flags and locks every worker's steps share.
type scripts struct {
	steps [][]scriptStep
	flags [3]bool
	locks [2]int // holder id+1; 0 is free
	log   []logEntry
}

func (s *scripts) play(id int, t turnTaker) {
	held := [len(s.locks)]bool{}
	for pc, st := range s.steps[id] {
		e := logEntry{id: id, pc: pc, at: t.now()}
		switch st.kind {
		case stepAdvance:
			t.advance(st.d)
		case stepYield:
			t.yield()
		case stepSet:
			s.flags[st.k] = true
		case stepWaitFlag:
			e.ok = t.wait(func() bool { return s.flags[st.k] })
		case stepLock:
			if !held[st.k] {
				try := func() bool {
					if s.locks[st.k] != 0 {
						return false
					}
					s.locks[st.k] = id + 1
					return true
				}
				e.ok = t.wait(try)
				held[st.k] = e.ok
			}
		case stepUnlock:
			if held[st.k] {
				s.locks[st.k], held[st.k] = 0, false
			}
		case stepSubmit:
			t.submit()
		}
		s.log = append(s.log, e)
	}
}

func newScripts(rng *rand.Rand, workers int) *scripts {
	s := &scripts{steps: make([][]scriptStep, workers)}
	for id := range s.steps {
		for range 10 + rng.IntN(20) {
			st := scriptStep{k: rng.IntN(len(s.flags))}
			switch r := rng.IntN(100); {
			case r < 30:
				st.kind, st.d = stepAdvance, time.Duration(rng.IntN(4))*time.Microsecond
			case r < 48:
				st.kind = stepYield
			case r < 56:
				st.kind = stepSet
			case r < 64:
				st.kind = stepWaitFlag
			case r < 78:
				st.kind, st.k = stepLock, rng.IntN(len(s.locks))
			case r < 88:
				st.kind, st.k = stepUnlock, rng.IntN(len(s.locks))
			default:
				st.kind = stepSubmit
			}
			s.steps[id] = append(s.steps[id], st)
		}
	}
	return s
}

type groupTurns struct {
	c *Clock
	b *Batcher[int, int]
}

func (t groupTurns) now() time.Duration         { return t.c.Now() }
func (t groupTurns) advance(d time.Duration)    { t.c.Advance(d) }
func (t groupTurns) yield()                     { Yield(t.c) }
func (t groupTurns) wait(cond func() bool) bool { return Wait(t.c, cond) }
func (t groupTurns) submit()                    { t.b.Submit(t.c, 0) }

type modelTurns struct {
	w *modelWorker
	b *modelBatcher
}

func (t modelTurns) now() time.Duration         { return t.w.now }
func (t modelTurns) advance(d time.Duration)    { t.w.now += d }
func (t modelTurns) yield()                     { t.w.g.pass(t.w) }
func (t modelTurns) wait(cond func() bool) bool { return t.w.wait(cond, false) }
func (t modelTurns) submit()                    { t.b.submit(t.w) }

// Random yields, advances, flag waits, lock waits and batcher submits take
// their turns under RunGroup exactly as under the linear-scan model.
func TestRunGroupMatchesLinearScanModel(t *testing.T) {
	for seed := range uint64(200) {
		rng := rand.New(rand.NewPCG(seed, 52))
		workers := 2 + rng.IntN(5)
		maxItems := 2 + rng.IntN(2)
		window := time.Duration(rng.IntN(3)) * time.Microsecond
		const flush = 3 * time.Microsecond

		got := newScripts(rand.New(rand.NewPCG(seed, 1)), workers)
		b := NewBatcher(nil, "model", BatchPolicy{MaxItems: maxItems, Window: window},
			func(c *Clock, items []int, out []int) error { c.Advance(flush); return nil })
		res := RunGroup(workers, func(id int, c *Clock) int {
			got.play(id, groupTurns{c, b})
			return 0
		})

		want := newScripts(rand.New(rand.NewPCG(seed, 1)), workers)
		mb := &modelBatcher{max: maxItems, window: window, flush: flush}
		clocks := runModel(workers, func(w *modelWorker) {
			want.play(w.id, modelTurns{w, mb})
		})

		if i := firstDiff(got.log, want.log); i >= 0 {
			t.Fatalf("seed %d (%d workers, batches of %d): step %d ran as %+v, the model ran %+v",
				seed, workers, maxItems, i, at(got.log, i), at(want.log, i))
		}
		if !slices.Equal(res.PerWorker, clocks) {
			t.Fatalf("seed %d: final clocks %v, the model's %v", seed, res.PerWorker, clocks)
		}
	}
}

func firstDiff(a, b []logEntry) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

func at(log []logEntry, i int) any {
	if i < len(log) {
		return log[i]
	}
	return "nothing"
}
