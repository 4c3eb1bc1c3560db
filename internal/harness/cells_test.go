package harness

import (
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/disagglab/disagg/internal/sim"
)

func TestCellsRunEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100} {
		runs := make([]atomic.Int64, n)
		cfg := sim.DefaultConfig()
		cells(cfg, n, func(i int, c *sim.Config) {
			if c != cfg {
				t.Errorf("cell %d got a config of its own without Stats set", i)
			}
			runs[i].Add(1)
		})
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Fatalf("n=%d: cell %d ran %d times", n, i, got)
			}
		}
	}
}

// TestCellsMatchSerial: each cell runs a baton group whose result depends
// on its index; run through cells or one by one, the slots are equal at
// every GOMAXPROCS (the Stress job runs this at -cpu 1,2,8).
func TestCellsMatchSerial(t *testing.T) {
	const n = 16
	cell := func(i int) time.Duration {
		return sim.RunGroup(4, func(id int, c *sim.Clock) int {
			for k := 0; k <= i; k++ {
				c.Advance(time.Duration(id*7+k) * time.Microsecond)
				sim.Yield(c)
			}
			return 1
		}).MakeSpan
	}
	want := make([]time.Duration, n)
	for i := range want {
		want[i] = cell(i)
	}
	got := make([]time.Duration, n)
	cells(sim.DefaultConfig(), n, func(i int, _ *sim.Config) { got[i] = cell(i) })
	if !slices.Equal(got, want) {
		t.Fatalf("GOMAXPROCS %d: cells %v, serial %v", runtime.GOMAXPROCS(0), got, want)
	}
}

// TestCellsPanicReachesCallerAfterOthersStop: the panic's own value reaches
// the caller, every cell that started has finished by then, no cell starts
// after it, and no goroutine is left behind.
func TestCellsPanicReachesCallerAfterOthersStop(t *testing.T) {
	type boom struct{ cell int }
	before := runtime.NumGoroutine()
	var started, finished atomic.Int64
	func() {
		defer func() {
			if p := recover(); p != (boom{3}) {
				t.Fatalf("recovered %v, want boom{3}", p)
			}
		}()
		cells(sim.DefaultConfig(), 64, func(i int, _ *sim.Config) {
			started.Add(1)
			if i == 3 {
				panic(boom{i})
			}
			time.Sleep(time.Millisecond)
			finished.Add(1)
		})
		t.Fatal("cells returned normally")
	}()
	if s, f := started.Load(), finished.Load(); s != f+1 || s >= 64 {
		t.Fatalf("%d cells started, %d finished: want every other started cell finished and later cells skipped", s, f)
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after cells, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCellsFoldTelemetryInCellOrder: cell 1 registers its source and
// observes before cell 0 does, yet the folded table lists cell 0's row
// first, and the shared site counts both cells' observations.
func TestCellsFoldTelemetryInCellOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := sim.DefaultConfig()
	cfg.Stats = sim.NewRegistry()
	cellOneDone := make(chan struct{})
	cells(cfg, 2, func(i int, c *sim.Config) {
		if i == 0 {
			<-cellOneDone
		}
		c.Register([]string{"cell0", "cell1"}[i], func() sim.GateStats { return sim.GateStats{Admitted: 1} })
		clk := sim.NewClock()
		op := c.Begin(clk, "shared")
		clk.Advance(time.Duration(i+1) * time.Microsecond)
		op.End(10)
		if i == 1 {
			close(cellOneDone)
		}
	})
	var rows []string
	for _, line := range strings.Split(cfg.Stats.Table("t").String(), "\n")[3:] {
		if f := strings.Fields(line); len(f) > 0 {
			rows = append(rows, f[0])
		}
	}
	if want := []string{"shared", "cell0", "cell1"}; !slices.Equal(rows, want) {
		t.Fatalf("table rows %v, want %v", rows, want)
	}
	if s := cfg.Stats.Site("shared"); s.Hist.Count() != 2 || s.Bytes() != 20 {
		t.Fatalf("shared site holds %d ops / %d bytes, want 2 / 20", s.Hist.Count(), s.Bytes())
	}
	if cfg.Stats.Elapsed() != 2*time.Microsecond {
		t.Fatalf("elapsed %v, want 2µs", cfg.Stats.Elapsed())
	}
}

// E27 runs its cells serially, each on a registry of its own; with
// cfg.Stats set, every cell's coherence counters still reach it.
func TestE27RegistersItsCellsCoherenceSites(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Stats = sim.NewRegistry()
	runE27(cfg, Quick)
	for _, eng := range e27Engines() {
		if sim.Snapshot[sim.CoherenceStats](cfg.Stats, eng.site).Publishes == 0 {
			t.Errorf("%s: no coherence counters under %s in the experiment's registry", eng.name, eng.site)
		}
	}
}
