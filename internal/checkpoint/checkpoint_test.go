package checkpoint

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/wal"
)

func TestRoundOrderingCaptureBeforeFlush(t *testing.T) {
	co := New(sim.DefaultConfig(), "ckpt.test")
	durable := wal.LSN(10)
	var flushedAt wal.LSN
	var truncatedAt wal.LSN
	err := co.Checkpoint(sim.NewClock(), Round{
		Durable: func() wal.LSN { return durable },
		Flush: func(c *sim.Clock, h wal.LSN) error {
			// A commit acked mid-flush: the captured horizon must not
			// chase it, or truncation would discard its records.
			durable = 14
			flushedAt = h
			return nil
		},
		Truncate: func(c *sim.Clock, h wal.LSN) error {
			truncatedAt = h
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if flushedAt != 10 || truncatedAt != 10 {
		t.Fatalf("flush/truncate saw horizons %d/%d, want the pre-flush capture 10", flushedAt, truncatedAt)
	}
	if h := co.Horizon(); h != 10 {
		t.Fatalf("published horizon %d chased the mid-flush commit, want 10", h)
	}
}

func TestFlushErrorAbortsWithHorizonUnchanged(t *testing.T) {
	co := New(sim.DefaultConfig(), "ckpt.test")
	boom := errors.New("quorum lost")
	truncated := false
	err := co.Checkpoint(sim.NewClock(), Round{
		Durable:  func() wal.LSN { return 7 },
		Flush:    func(c *sim.Clock, h wal.LSN) error { return boom },
		Truncate: func(c *sim.Clock, h wal.LSN) error { truncated = true; return nil },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the flush error", err)
	}
	if truncated {
		t.Fatal("truncation ran after a failed flush: unflushed commits would be discarded")
	}
	if h := co.Horizon(); h != 0 {
		t.Fatalf("horizon %d published despite failed flush", h)
	}
	if n := co.Rounds.Load(); n != 0 {
		t.Fatalf("failed round counted as complete (%d)", n)
	}
}

// TestRoundReachesFlushedOnce: a round reaches sim.PointFlushed once, after
// its flush and before its horizon publishes; a round whose flush fails and
// a no-op round reach none.
func TestRoundReachesFlushedOnce(t *testing.T) {
	cfg := sim.DefaultConfig()
	co := New(cfg, "ckpt.test")
	var seen []wal.LSN // the published horizon at each point a round reaches
	cfg.At = func(*sim.Clock, sim.Point) { seen = append(seen, co.Horizon()) }
	boom := errors.New("quorum lost")
	for _, flushErr := range []error{boom, nil, nil} { // the second nil is a no-op round
		err := co.Checkpoint(sim.NewClock(), Round{
			Durable:  func() wal.LSN { return 5 },
			Flush:    func(*sim.Clock, wal.LSN) error { return flushErr },
			Truncate: func(*sim.Clock, wal.LSN) error { return nil },
		})
		if !errors.Is(err, flushErr) {
			t.Fatalf("err = %v, want %v", err, flushErr)
		}
	}
	if !slices.Equal(seen, []wal.LSN{0}) {
		t.Fatalf("PointFlushed reached at published horizons %v, want [0]: once, before horizon 5 publishes", seen)
	}
}

func TestTruncateErrorSurfacesAfterPublish(t *testing.T) {
	co := New(sim.DefaultConfig(), "ckpt.test")
	boom := errors.New("truncate RPC dropped")
	durable := wal.LSN(5)
	round := func(terr error) Round {
		return Round{
			Durable:  func() wal.LSN { return durable },
			Flush:    func(c *sim.Clock, h wal.LSN) error { return nil },
			Truncate: func(c *sim.Clock, h wal.LSN) error { return terr },
		}
	}
	if err := co.Checkpoint(sim.NewClock(), round(boom)); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the truncate error", err)
	}
	// The horizon published anyway: recovery is bounded, only log space
	// is still owed.
	if h := co.Horizon(); h != 5 {
		t.Fatalf("horizon = %d after torn truncation, want 5", h)
	}
	if n := co.TruncateErrs.Load(); n != 1 {
		t.Fatalf("TruncateErrs = %d, want 1", n)
	}
	// The next round retires the debt.
	durable = 9
	if err := co.Checkpoint(sim.NewClock(), round(nil)); err != nil {
		t.Fatal(err)
	}
	if h := co.Horizon(); h != 9 {
		t.Fatalf("horizon = %d after healed round, want 9", h)
	}
}

func TestStaleTargetIsNoOp(t *testing.T) {
	co := New(sim.DefaultConfig(), "ckpt.test")
	durable := wal.LSN(8)
	flushes := 0
	r := Round{
		Durable:  func() wal.LSN { return durable },
		Flush:    func(c *sim.Clock, h wal.LSN) error { flushes++; return nil },
		Truncate: func(c *sim.Clock, h wal.LSN) error { return nil },
	}
	if err := co.Checkpoint(sim.NewClock(), r); err != nil {
		t.Fatal(err)
	}
	// No new commits: the second round must not flush again.
	if err := co.Checkpoint(sim.NewClock(), r); err != nil {
		t.Fatal(err)
	}
	if flushes != 1 {
		t.Fatalf("stale round flushed (%d flushes)", flushes)
	}
	if n := co.Rounds.Load(); n != 1 {
		t.Fatalf("Rounds = %d, want 1", n)
	}
}

func TestConcurrentRoundsSerializeAndStayMonotonic(t *testing.T) {
	co := New(sim.DefaultConfig(), "ckpt.test")
	var mu sync.Mutex
	durable := wal.LSN(0)
	inFlush := false
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			durable += 3
			mu.Unlock()
			_ = co.Checkpoint(sim.NewClock(), Round{
				Durable: func() wal.LSN { mu.Lock(); defer mu.Unlock(); return durable },
				Flush: func(c *sim.Clock, h wal.LSN) error {
					mu.Lock()
					if inFlush {
						t.Error("two flush→truncate windows overlapped")
					}
					inFlush = true
					mu.Unlock()
					return nil
				},
				Truncate: func(c *sim.Clock, h wal.LSN) error {
					mu.Lock()
					inFlush = false
					mu.Unlock()
					return nil
				},
			})
		}()
	}
	wg.Wait()
	if h := co.Horizon(); h != 24 {
		t.Fatalf("horizon = %d after 8 rounds of +3, want 24", h)
	}
}
