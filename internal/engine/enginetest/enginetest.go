// Package enginetest provides the conformance suite run against every
// OLTP engine: transactional semantics (read-your-writes, atomic
// multi-key commits), conflict behavior, concurrent correctness, and —
// for engines implementing engine.Recoverer — durability across crashes.
package enginetest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"
	"time"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/drill"
	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/sim"
)

// Layout is the table layout every conformance engine must be built with:
// the drill's.
func Layout(t *testing.T) heap.Layout { return drill.Layout() }

func val(layout heap.Layout, tag uint64) []byte {
	v := make([]byte, layout.ValSize)
	binary.LittleEndian.PutUint64(v, tag)
	return v
}

// readKey reads key in one transaction run with opts.
func readKey(e engine.Engine, c *sim.Clock, opts engine.RunOpts, key uint64) ([]byte, error) {
	var got []byte
	err := engine.Run(e, c, opts, func(tx engine.Tx) error {
		v, err := tx.Read(key)
		got = v
		return err
	})
	return got, err
}

// writeKey writes v to key in one transaction run with opts.
func writeKey(e engine.Engine, c *sim.Clock, opts engine.RunOpts, key uint64, v []byte) error {
	return engine.Run(e, c, opts, func(tx engine.Tx) error { return tx.Write(key, v) })
}

// crashRecover crashes e and recovers it on a fresh clock when e is a
// Recoverer; a failed recovery fails t.
func crashRecover(t *testing.T, e engine.Engine) {
	t.Helper()
	if r := engine.Caps(e).Recoverer; r != nil {
		r.Crash()
		if _, err := r.Recover(sim.NewClock()); err != nil {
			t.Fatalf("recovery: %v", err)
		}
	}
}

func tag(v []byte) uint64 {
	if len(v) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}

// Run executes the conformance suite. factory must return a fresh engine
// built on Layout(t).
func Run(t *testing.T, factory func(t *testing.T) engine.Engine) {
	layout := Layout(t)

	t.Run("ReadYourWrites", func(t *testing.T) {
		e := factory(t)
		c := sim.NewClock()
		err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
			if err := tx.Write(10, val(layout, 111)); err != nil {
				return err
			}
			v, err := tx.Read(10)
			if err != nil {
				return err
			}
			if tag(v) != 111 {
				t.Errorf("read-your-writes: got %d", tag(v))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})

	t.Run("CommittedVisible", func(t *testing.T) {
		e := factory(t)
		c := sim.NewClock()
		if err := writeKey(e, c, engine.RunOpts{}, 5, val(layout, 55)); err != nil {
			t.Fatal(err)
		}
		if v, err := readKey(e, c, engine.RunOpts{}, 5); err != nil || tag(v) != 55 {
			t.Fatalf("committed write invisible: %d (err %v)", tag(v), err)
		}
	})

	// Reads run on the cache frame itself; what a transaction gets back must
	// be its own copy, not a window into the frame the next commit rewrites.
	t.Run("ReadsAreOwned", func(t *testing.T) {
		e := factory(t)
		c := sim.NewClock()
		if err := writeKey(e, c, engine.RunOpts{}, 9, val(layout, 91)); err != nil {
			t.Fatal(err)
		}
		var held [][]byte
		// Once straight after the commit and once from the warmed cache.
		for i := 0; i < 2; i++ {
			v, err := readKey(e, c, engine.RunOpts{}, 9)
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, v)
		}
		if err := writeKey(e, c, engine.RunOpts{}, 9, val(layout, 92)); err != nil {
			t.Fatal(err)
		}
		for i, v := range held {
			if tag(v) != 91 {
				t.Errorf("read %d changed under a later commit: tag %d, want 91", i, tag(v))
			}
		}
	})

	t.Run("AbortDiscardsWrites", func(t *testing.T) {
		e := factory(t)
		c := sim.NewClock()
		boom := bytesErr("boom")
		err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
			tx.Write(7, val(layout, 77))
			return boom
		})
		if err != boom {
			t.Fatalf("err = %v", err)
		}
		if v, _ := readKey(e, c, engine.RunOpts{}, 7); tag(v) != 0 {
			t.Errorf("aborted write visible: %d", tag(v))
		}
	})

	// A value's length is one rule on every engine: what is stored and read
	// back has the layout's value size, a longer value truncated and a
	// shorter one padded with zeros (heap.Layout.Fit), before and after
	// recovery alike.
	t.Run("ValueLength", func(t *testing.T) {
		e := factory(t)
		c := sim.NewClock()
		long := make([]byte, 200)
		for i := range long {
			long[i] = byte(i + 1)
		}
		writes := []struct {
			key uint64
			v   []byte
		}{{21, long}, {22, long[:40]}}
		for _, w := range writes {
			if err := writeKey(e, c, engine.RunOpts{}, w.key, w.v); err != nil {
				t.Fatal(err)
			}
		}
		check := func(when string) {
			for _, w := range writes {
				got, err := readKey(e, c, engine.RunOpts{}, w.key)
				if want := layout.Fit(w.v); err != nil || !bytes.Equal(got, want) {
					t.Errorf("%s: a %d-byte write at value size %d reads back %d bytes %x (err %v), want %x",
						when, len(w.v), layout.ValSize, len(got), got, err, want)
				}
			}
		}
		check("before recovery")
		crashRecover(t, e)
		check("after recovery")
	})

	t.Run("MultiKeyAtomic", func(t *testing.T) {
		e := factory(t)
		c := sim.NewClock()
		for i := 0; i < 10; i++ {
			n := uint64(i + 1)
			if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
				tx.Write(100, val(layout, n))
				tx.Write(200, val(layout, n))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
			a, _ := tx.Read(100)
			b, _ := tx.Read(200)
			if !bytes.Equal(a, b) {
				t.Errorf("atomicity broken: %d vs %d", tag(a), tag(b))
			}
			if tag(a) != 10 {
				t.Errorf("final value %d", tag(a))
			}
			return nil
		})
	})

	t.Run("ConcurrentCounters", func(t *testing.T) {
		e := factory(t)
		const workers, perWorker = 4, 50
		res := sim.RunGroup(workers, func(id int, c *sim.Clock) int {
			key := uint64(1000 + id) // disjoint keys: no conflicts
			done := 0
			for i := 0; i < perWorker; i++ {
				err := engine.Run(e, c, engine.RunOpts{Retries: 10}, func(tx engine.Tx) error {
					v, err := tx.Read(key)
					if err != nil {
						return err
					}
					return tx.Write(key, val(layout, tag(v)+1))
				})
				if err == nil {
					done++
				}
			}
			return done
		})
		if res.TotalOps != workers*perWorker {
			t.Fatalf("committed %d/%d", res.TotalOps, workers*perWorker)
		}
		c := sim.NewClock()
		for id := 0; id < workers; id++ {
			key := uint64(1000 + id)
			if v, _ := readKey(e, c, engine.RunOpts{}, key); tag(v) != perWorker {
				t.Errorf("key %d = %d, want %d", key, tag(v), perWorker)
			}
		}
	})

	t.Run("ContendedCounter", func(t *testing.T) {
		e := factory(t)
		const workers, perWorker = 4, 25
		res := sim.RunGroup(workers, func(id int, c *sim.Clock) int {
			done := 0
			for i := 0; i < perWorker; i++ {
				err := engine.Run(e, c, engine.RunOpts{Retries: 50}, func(tx engine.Tx) error {
					v, err := tx.Read(999)
					if err != nil {
						return err
					}
					// Let the other workers' increments land between this
					// read and this write.
					sim.Yield(c)
					return tx.Write(999, val(layout, tag(v)+1))
				})
				if err == nil {
					done++
				}
			}
			return done
		})
		// Commit validation fails a read-modify-write whose read went
		// stale before its lock, so every committed increment lands.
		v, _ := readKey(e, sim.NewClock(), engine.RunOpts{}, 999)
		if got := tag(v); got != uint64(res.TotalOps) {
			t.Errorf("counter %d after %d commits: lost updates", got, res.TotalOps)
		}
	})

	// A lone client's commit latency must not drift: every leg an engine
	// runs beside the client forks the client's clock, so no meter divides
	// the client's own demand by a younger clock's elapsed time.
	t.Run("LoneClientSteadyLatency", func(t *testing.T) {
		e, c := factory(t), sim.NewClock()
		// Two pages, and two shared-nothing partitions: a two-leg commit.
		keys := [2]uint64{1, 1 + uint64(layout.PerPage)}
		lat := make([]time.Duration, 400)
		for i := range lat {
			before := c.Now()
			if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
				for _, k := range keys {
					v, err := tx.Read(k)
					if err == nil {
						err = tx.Write(k, val(layout, tag(v)+1))
					}
					if err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatalf("commit %d: %v", i, err)
			}
			lat[i] = c.Now() - before
		}
		early := slices.Sorted(slices.Values(lat[10:110]))[50]
		late := slices.Sorted(slices.Values(lat[300:400]))[50]
		if d := late - early; d > early/100 || -d > early/100 {
			t.Errorf("commit latency drifts: median %v over commits 10-109, %v over 300-399", early, late)
		}
	})

	t.Run("CrashRecovery", func(t *testing.T) {
		e := factory(t)
		r := engine.Caps(e).Recoverer
		if r == nil {
			t.Skip("engine does not implement Recoverer")
		}
		c := sim.NewClock()
		for i := uint64(1); i <= 20; i++ {
			if err := writeKey(e, c, engine.RunOpts{}, i, val(layout, i*100)); err != nil {
				t.Fatal(err)
			}
		}
		r.Crash()
		if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return nil }); !errors.Is(err, engine.ErrUnavailable) {
			t.Fatalf("crashed engine accepted work: %v", err)
		}
		rc := sim.NewClock()
		d, err := r.Recover(rc)
		if err != nil {
			t.Fatal(err)
		}
		if d < 0 {
			t.Fatal("negative recovery time")
		}
		for key := uint64(1); key <= 20; key++ {
			v, err := readKey(e, c, engine.RunOpts{}, key)
			if err != nil {
				t.Fatal(err)
			}
			if tag(v) != key*100 {
				t.Errorf("key %d lost: %d", key, tag(v))
			}
		}
	})
}

type bytesErr string

func (e bytesErr) Error() string { return string(e) }
