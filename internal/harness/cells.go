package harness

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/disagglab/disagg/internal/sim"
)

// cells runs fn(i, cfg) for every i in [0, n) on at most
// runtime.GOMAXPROCS(0) goroutines and returns once every cell has stopped.
//
// A cell is one independent entry of an experiment's sweep: it reads cfg,
// builds and owns what it measures (engines, clocks, injectors, gates) and
// writes its result into a slot the caller indexes by i. The caller renders
// rows, checks and notes from the slots afterwards, in cell order, so the
// output does not depend on the number of cores. When cfg.Stats is set,
// cell i records into a registry of its own (its cfg is a clone of cfg with
// a fresh Stats), and cells folds those registries into cfg.Stats in cell
// order once they have all stopped, so the telemetry table does not depend
// on which cell finished first either. Without Stats every cell gets cfg.
//
// The calling goroutine is one of the workers, so with one P the cells run
// in index order on it. A panic in a cell stops further cells from
// starting; once the running ones have stopped, the first panic's value is
// raised again on the caller's goroutine.
func cells(cfg *sim.Config, n int, fn func(i int, cfg *sim.Config)) {
	cfgs := make([]*sim.Config, n)
	for i := range cfgs {
		cfgs[i] = cfg
		if cfg.Stats != nil {
			cfgs[i] = cfg.Clone()
			cfgs[i].Stats = sim.NewRegistry()
		}
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		once     sync.Once
		panicked any
		wg       sync.WaitGroup
	)
	work := func() {
		defer func() {
			if p := recover(); p != nil {
				stop.Store(true)
				once.Do(func() { panicked = p })
			}
		}()
		for !stop.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			fn(i, cfgs[i])
		}
	}
	for range min(n, runtime.GOMAXPROCS(0)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	for _, c := range cfgs {
		if c != cfg {
			cfg.Stats.Fold(c.Stats)
		}
	}
}
