package snowflake

import (
	"testing"

	"github.com/disagglab/disagg/internal/query"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/workload"
)

func newLoaded(t *testing.T, rows int) (*Service, *workload.Data) {
	t.Helper()
	cfg := sim.DefaultConfig()
	svc := NewService(cfg)
	d := workload.TPCH{ScaleRows: rows, Clustered: true, Seed: 1}.Generate()
	svc.LoadTable("lineitem", d.Lineitem)
	svc.LoadTable("orders", d.Orders)
	return svc, d
}

func TestWarehouseRunsQ6(t *testing.T) {
	cfg := sim.DefaultConfig()
	svc, d := newLoaded(t, 30_000)
	wh := svc.AddWarehouse(sim.NewClock(), 1024)
	c := sim.NewClock()
	out, err := wh.Run(c, func(src func(string) (query.Source, error)) (query.Operator, error) {
		li, err := src("lineitem")
		if err != nil {
			return nil, err
		}
		return workload.Q6(cfg, li, 100, 465, 2, 5, true)
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("Q6 rows = %d", out.Len())
	}
	if out.Cols[1][0] == 0 {
		t.Fatal("Q6 matched nothing")
	}
	_ = d
}

func TestUnknownTable(t *testing.T) {
	svc, _ := newLoaded(t, 5000)
	wh := svc.AddWarehouse(sim.NewClock(), 16)
	if _, err := wh.Source("nope"); err != ErrNoTable {
		t.Fatalf("err = %v", err)
	}
}

func TestLocalCacheSpeedsUpRepeatQueries(t *testing.T) {
	cfg := sim.DefaultConfig()
	svc, _ := newLoaded(t, 40_000)
	wh := svc.AddWarehouse(sim.NewClock(), 4096)
	run := func() *sim.Clock {
		c := sim.NewClock()
		_, err := wh.Run(c, func(src func(string) (query.Source, error)) (query.Operator, error) {
			li, err := src("lineitem")
			if err != nil {
				return nil, err
			}
			return workload.Q1(cfg, li, 2556)
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	cold := run()
	warm := run()
	if !(warm.Now() < cold.Now()/5) {
		t.Fatalf("warm query (%v) should be ≫ faster than cold (%v)", warm.Now(), cold.Now())
	}
	if wh.CacheHitRatio("lineitem") == 0 {
		t.Fatal("cache never hit")
	}
}

func TestElasticScaleOutNoDataMovement(t *testing.T) {
	cfg := sim.DefaultConfig()
	svc, _ := newLoaded(t, 20_000)
	objectsBefore := svc.Store.Len()
	// Spin up 4 more warehouses: storage is untouched and each serves
	// queries immediately.
	for i := 0; i < 4; i++ {
		rc := sim.NewClock()
		wh := svc.AddWarehouse(rc, 256)
		if rc.Now() > 10_000_000 {
			t.Fatalf("provisioning took %v", rc.Now())
		}
		_, err := wh.Run(sim.NewClock(), func(src func(string) (query.Source, error)) (query.Operator, error) {
			li, err := src("lineitem")
			if err != nil {
				return nil, err
			}
			return workload.Q6(cfg, li, 0, 2556, 0, 11, true)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if svc.Store.Len() != objectsBefore {
		t.Fatal("scale-out changed the storage tier")
	}
}

func TestPruningReducesQ6Cost(t *testing.T) {
	cfg := sim.DefaultConfig()
	svc, _ := newLoaded(t, 60_000)
	whP := svc.AddWarehouse(sim.NewClock(), 0) // no cache: isolate pruning
	whU := svc.AddWarehouse(sim.NewClock(), 0)
	pruned := sim.NewClock()
	whP.Run(pruned, func(src func(string) (query.Source, error)) (query.Operator, error) {
		li, _ := src("lineitem")
		return workload.Q6(cfg, li, 100, 200, 0, 11, true)
	})
	unpruned := sim.NewClock()
	whU.Run(unpruned, func(src func(string) (query.Source, error)) (query.Operator, error) {
		li, _ := src("lineitem")
		return workload.Q6(cfg, li, 100, 200, 0, 11, false)
	})
	if !(pruned.Now() < unpruned.Now()/2) {
		t.Fatalf("pruned %v vs unpruned %v on clustered data", pruned.Now(), unpruned.Now())
	}
}

// A plan that fails to build fails the run with the builder's error.
func TestWarehouseRunReturnsPlanError(t *testing.T) {
	svc, _ := newLoaded(t, 5000)
	wh := svc.AddWarehouse(sim.NewClock(), 16)
	c := sim.NewClock()
	out, err := wh.Run(c, func(src func(string) (query.Source, error)) (query.Operator, error) {
		_, err := src("nope")
		return nil, err
	})
	if err != ErrNoTable || out != nil {
		t.Fatalf("Run = %v, %v; want nil, ErrNoTable", out, err)
	}
}

// A warehouse keeps one cached view per table: repeated lookups share its
// cache, and a table never read reports no hits.
func TestWarehouseSourceIsOneViewPerTable(t *testing.T) {
	svc, _ := newLoaded(t, 5000)
	wh := svc.AddWarehouse(sim.NewClock(), 16)
	a, err := wh.Source("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := wh.Source("lineitem")
	o, _ := wh.Source("orders")
	if a != b || a == o {
		t.Fatal("a table's lookups do not share one view, or two tables share it")
	}
	if r := wh.CacheHitRatio("orders"); r != 0 {
		t.Fatalf("unread table's hit ratio = %v, want 0", r)
	}
	if r := wh.CacheHitRatio("nope"); r != 0 {
		t.Fatalf("unknown table's hit ratio = %v, want 0", r)
	}
}
