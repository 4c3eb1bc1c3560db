package workload

import (
	"testing"

	"github.com/disagglab/disagg/internal/query"
	"github.com/disagglab/disagg/internal/sim"
)

func TestYCSBMixRatio(t *testing.T) {
	g := YCSBB(1000).NewGenerator(1, 0)
	reads := 0
	for i := 0; i < 10_000; i++ {
		if g.Next().Read {
			reads++
		}
	}
	if reads < 9300 || reads > 9700 {
		t.Fatalf("read fraction = %d/10000, want ~9500", reads)
	}
}

func TestYCSBDeterministicPerWorker(t *testing.T) {
	a := YCSB{Keys: 1000, ReadFrac: 0.5, Theta: 1.1, ValueSize: 100}.NewGenerator(7, 3)
	b := YCSB{Keys: 1000, ReadFrac: 0.5, Theta: 1.1, ValueSize: 100}.NewGenerator(7, 3)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("generators diverge for same (seed,worker)")
		}
	}
}

func TestYCSBKeysInRange(t *testing.T) {
	g := YCSB{Keys: 64, ReadFrac: 0.5, Theta: 1.1, ValueSize: 100}.NewGenerator(2, 1)
	for i := 0; i < 1000; i++ {
		if op := g.Next(); op.Key >= 64 {
			t.Fatalf("key %d out of range", op.Key)
		}
	}
	if len(g.Value(5)) != 100 {
		t.Fatal("value size wrong")
	}
}

func TestTPCCSpecShapes(t *testing.T) {
	w := DefaultTPCC()
	g := w.NewGenerator(1, 0)
	payments, neworders := 0, 0
	for i := 0; i < 5000; i++ {
		spec := g.Next()
		switch spec.Kind {
		case TxPayment:
			payments++
			if len(spec.Writes) != 2 || len(spec.Reads) != 0 {
				t.Fatalf("payment shape: %+v", spec)
			}
			if spec.Writes[0] >= w.Warehouses {
				t.Fatal("payment hot key out of warehouse range")
			}
		case TxNewOrder:
			neworders++
			if len(spec.Reads) < 6 || len(spec.Writes) < 5 {
				t.Fatalf("neworder shape: %+v", spec)
			}
		}
		for _, k := range append(spec.Reads, spec.Writes...) {
			if k >= w.TotalKeys() {
				t.Fatalf("key %d out of keyspace", k)
			}
		}
	}
	frac := float64(payments) / float64(payments+neworders)
	if frac < 0.40 || frac > 0.50 {
		t.Fatalf("payment fraction = %.2f", frac)
	}
}

func TestTPCHGenerateShape(t *testing.T) {
	d := TPCH{ScaleRows: 10_000, Seed: 1}.Generate()
	if d.Lineitem.NumRows() != 10_000 {
		t.Fatalf("lineitem rows = %d", d.Lineitem.NumRows())
	}
	if d.Orders.NumRows() != 2501 || d.Customer.NumRows() != 251 {
		t.Fatalf("orders=%d customers=%d", d.Orders.NumRows(), d.Customer.NumRows())
	}
	// Every lineitem orderkey must exist in orders.
	ok, _ := d.Lineitem.Schema.ColIndex(LOrderKey)
	for _, v := range d.Lineitem.Cols[ok] {
		if v < 0 || v >= int64(d.Orders.NumRows()) {
			t.Fatalf("dangling orderkey %d", v)
		}
	}
}

func TestTPCHClusteredSortsShipdate(t *testing.T) {
	d := TPCH{ScaleRows: 5000, Clustered: true, Seed: 2}.Generate()
	ci, _ := d.Lineitem.Schema.ColIndex(LShipDate)
	col := d.Lineitem.Cols[ci]
	for i := 1; i < len(col); i++ {
		if col[i] < col[i-1] {
			t.Fatal("clustered lineitem not sorted by shipdate")
		}
	}
}

func TestQ6MatchesNaiveEvaluation(t *testing.T) {
	cfg := sim.DefaultConfig()
	d := TPCH{ScaleRows: 20_000, Seed: 3}.Generate()
	src := query.NewLocalSource(cfg, d.Lineitem)
	op, err := Q6(cfg, src, 100, 465, 2, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	out, err := query.Collect(sim.NewClock(), op)
	if err != nil {
		t.Fatal(err)
	}
	// Naive evaluation over the raw table.
	di, _ := d.Lineitem.Schema.ColIndex(LShipDate)
	pi, _ := d.Lineitem.Schema.ColIndex(LPrice)
	ci, _ := d.Lineitem.Schema.ColIndex(LDiscount)
	var sum, count int64
	for r := 0; r < d.Lineitem.NumRows(); r++ {
		date, disc := d.Lineitem.Cols[di][r], d.Lineitem.Cols[ci][r]
		if date >= 100 && date < 465 && disc >= 2 && disc < 5 {
			sum += d.Lineitem.Cols[pi][r]
			count++
		}
	}
	if out.Cols[0][0] != sum || out.Cols[1][0] != count {
		t.Fatalf("Q6 = (%d,%d), naive = (%d,%d)", out.Cols[0][0], out.Cols[1][0], sum, count)
	}
	if count == 0 {
		t.Fatal("degenerate test: no qualifying rows")
	}
}

func TestQ1Groups(t *testing.T) {
	cfg := sim.DefaultConfig()
	d := TPCH{ScaleRows: 10_000, Seed: 4}.Generate()
	src := query.NewLocalSource(cfg, d.Lineitem)
	op, err := Q1(cfg, src, 2000)
	if err != nil {
		t.Fatal(err)
	}
	out, err := query.Collect(sim.NewClock(), op)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 { // three return flags
		t.Fatalf("groups = %d", out.Len())
	}
	var total int64
	for i := 0; i < out.Len(); i++ {
		total += out.Cols[3][i] // count column
	}
	// All rows with shipdate < 2000 are covered.
	di, _ := d.Lineitem.Schema.ColIndex(LShipDate)
	var want int64
	for _, v := range d.Lineitem.Cols[di] {
		if v < 2000 {
			want++
		}
	}
	if total != want {
		t.Fatalf("count = %d, want %d", total, want)
	}
}

func TestQ3JoinMatchesNaive(t *testing.T) {
	cfg := sim.DefaultConfig()
	d := TPCH{ScaleRows: 8000, Seed: 5}.Generate()
	li := query.NewLocalSource(cfg, d.Lineitem)
	ord := query.NewLocalSource(cfg, d.Orders)
	op, err := Q3(cfg, li, ord, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := query.Collect(sim.NewClock(), op)
	if err != nil {
		t.Fatal(err)
	}
	// Naive: sum revenue over lineitems whose order has date < 1000.
	oDate := make(map[int64]int64)
	oi, _ := d.Orders.Schema.ColIndex(OOrderKey)
	odi, _ := d.Orders.Schema.ColIndex(OOrderDate)
	for r := 0; r < d.Orders.NumRows(); r++ {
		oDate[d.Orders.Cols[oi][r]] = d.Orders.Cols[odi][r]
	}
	lo, _ := d.Lineitem.Schema.ColIndex(LOrderKey)
	lp, _ := d.Lineitem.Schema.ColIndex(LPrice)
	var want int64
	for r := 0; r < d.Lineitem.NumRows(); r++ {
		if oDate[d.Lineitem.Cols[lo][r]] < 1000 {
			want += d.Lineitem.Cols[lp][r]
		}
	}
	var got int64
	for i := 0; i < out.Len(); i++ {
		got += out.Cols[1][i]
	}
	if got != want {
		t.Fatalf("Q3 revenue = %d, naive = %d", got, want)
	}
}

func TestRunOnEngineStub(t *testing.T) {
	// Exercise RunOn against a trivial in-memory engine.
	e := &stubEngine{data: map[uint64][]byte{}}
	g := YCSB{Keys: 100, ReadFrac: 0.5, Theta: 1.1, ValueSize: 100}.NewGenerator(1, 0)
	c := sim.NewClock()
	if n := g.RunOn(e, c, 500); n != 500 {
		t.Fatalf("committed %d/500", n)
	}
	tg := DefaultTPCC().NewGenerator(1, 0)
	if n := tg.RunOn(e, c, 200); n != 200 {
		t.Fatalf("tpcc committed %d/200", n)
	}
	if e.commits != 700 {
		t.Fatalf("engine saw %d commits", e.commits)
	}
}

// Each query plan resolves its columns when it is built: a source without
// them fails the build instead of the run.
func TestQueriesRejectSourcesWithoutTheirColumns(t *testing.T) {
	cfg := sim.DefaultConfig()
	d := TPCH{ScaleRows: 1000, Seed: 5}.Generate()
	li := query.NewLocalSource(cfg, d.Lineitem)
	ord := query.NewLocalSource(cfg, d.Orders)
	wrong := query.NewLocalSource(cfg, query.NewTable("x"))
	plans := map[string]func() (query.Operator, error){
		"q6":          func() (query.Operator, error) { return Q6(cfg, wrong, 0, 10, 0, 10, true) },
		"q1":          func() (query.Operator, error) { return Q1(cfg, wrong, 10) },
		"q3-orders":   func() (query.Operator, error) { return Q3(cfg, li, wrong, 10, nil) },
		"q3-lineitem": func() (query.Operator, error) { return Q3(cfg, wrong, ord, 10, nil) },
	}
	for name, build := range plans {
		t.Run(name, func(t *testing.T) {
			if op, err := build(); err == nil {
				t.Fatalf("built %T over a source without the query's columns", op)
			}
		})
	}
}

func TestTPCCLiteString(t *testing.T) {
	if got := DefaultTPCC().String(); got != "tpcc-lite(w=16,c=100000)" {
		t.Fatalf("DefaultTPCC() = %q", got)
	}
}
