package query

import (
	"testing"
	"testing/quick"

	"github.com/disagglab/disagg/internal/cxl"
	"github.com/disagglab/disagg/internal/device"
	"github.com/disagglab/disagg/internal/memnode"
	"github.com/disagglab/disagg/internal/sim"
)

// testTable builds rows (i, i%10, i*2) for i in [0, n).
func testTable(n int) *Table {
	t := NewTable("id", "mod", "dbl")
	for i := 0; i < n; i++ {
		t.AppendRow(int64(i), int64(i%10), int64(i*2))
	}
	return t
}

func TestTableBasics(t *testing.T) {
	tb := testTable(10)
	if tb.NumRows() != 10 || tb.NumBlocks() != 1 {
		t.Fatalf("rows=%d blocks=%d", tb.NumRows(), tb.NumBlocks())
	}
	if err := tb.AppendRow(1); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := tb.Schema.ColIndex("nope"); err == nil {
		t.Fatal("unknown column resolved")
	}
}

func TestZoneMapSoundness(t *testing.T) {
	tb := testTable(3 * BlockRows)
	zm := tb.BuildZoneMap(0)
	if len(zm.Min) != 3 {
		t.Fatalf("zones = %d", len(zm.Min))
	}
	// Property: every value in a block is within [min, max].
	f := func(rawBlock, rawRow uint16) bool {
		b := int(rawBlock) % 3
		r := int(rawRow) % BlockRows
		v := tb.Cols[0][b*BlockRows+r]
		return v >= zm.Min[b] && v <= zm.Max[b]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPredicate(t *testing.T) {
	p := Predicate{Col: "x", Lo: 10, Hi: 20}
	if p.Matches(9) || !p.Matches(10) || !p.Matches(19) || p.Matches(20) {
		t.Fatal("predicate range wrong")
	}
	if !p.PrunesBlock(0, 9) || !p.PrunesBlock(20, 30) || p.PrunesBlock(5, 15) {
		t.Fatal("prune logic wrong")
	}
}

func TestScanFilterLocal(t *testing.T) {
	cfg := sim.DefaultConfig()
	src := NewLocalSource(cfg, testTable(10_000))
	scan, err := NewScan(cfg, src, []string{"id"}, []Predicate{{Col: "mod", Lo: 3, Hi: 4}}, false)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(sim.NewClock(), scan)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1000 {
		t.Fatalf("selected %d rows, want 1000", out.Len())
	}
	for _, v := range out.Cols[0] {
		if v%10 != 3 {
			t.Fatalf("row %d fails predicate", v)
		}
	}
}

func TestScanPruningSkipsBlocks(t *testing.T) {
	// id column is sorted, so a narrow range prunes most blocks.
	cfg := sim.DefaultConfig()
	tb := testTable(10 * BlockRows)
	src := NewLocalSource(cfg, tb)
	pred := []Predicate{{Col: "id", Lo: 0, Hi: 100}}

	pruned, _ := NewScan(cfg, src, []string{"id"}, pred, true)
	outP, err := Collect(sim.NewClock(), pruned)
	if err != nil {
		t.Fatal(err)
	}
	unpruned, _ := NewScan(cfg, src, []string{"id"}, pred, false)
	outU, _ := Collect(sim.NewClock(), unpruned)

	if outP.Len() != 100 || outU.Len() != 100 {
		t.Fatalf("result rows %d/%d", outP.Len(), outU.Len())
	}
	if pruned.BlocksSkipped != 9 || pruned.BlocksRead != 1 {
		t.Fatalf("pruned scan read %d skipped %d", pruned.BlocksRead, pruned.BlocksSkipped)
	}
	if unpruned.BlocksSkipped != 0 {
		t.Fatal("unpruned scan skipped blocks")
	}
}

func TestHashAggGrouped(t *testing.T) {
	cfg := sim.DefaultConfig()
	src := NewLocalSource(cfg, testTable(1000))
	scan, _ := NewScan(cfg, src, []string{"mod", "id"}, nil, false)
	agg := NewHashAgg(cfg, scan, "mod", AggSpec{Col: "id"}, AggSpec{})
	out, err := Collect(sim.NewClock(), agg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 10 {
		t.Fatalf("groups = %d", out.Len())
	}
	// Each group has 100 rows.
	for i := 0; i < out.Len(); i++ {
		if out.Cols[2][i] != 100 {
			t.Fatalf("group %d count = %d", out.Cols[0][i], out.Cols[2][i])
		}
	}
}

func TestHashAggGlobalEmptyInput(t *testing.T) {
	cfg := sim.DefaultConfig()
	src := NewLocalSource(cfg, testTable(100))
	scan, _ := NewScan(cfg, src, []string{"id"}, []Predicate{{Col: "id", Lo: -5, Hi: -1}}, false)
	agg := NewHashAgg(cfg, scan, "", AggSpec{Col: "id"}, AggSpec{})
	out, _ := Collect(sim.NewClock(), agg)
	if out.Len() != 1 || out.Cols[0][0] != 0 || out.Cols[1][0] != 0 {
		t.Fatalf("empty-input global agg = %+v", out)
	}
}

func TestHashJoinCorrectness(t *testing.T) {
	cfg := sim.DefaultConfig()
	// build: (k, k*10) for k<100; probe: (k%100, k) for k<1000.
	build := NewTable("bk", "bv")
	for k := 0; k < 100; k++ {
		build.AppendRow(int64(k), int64(k*10))
	}
	probe := NewTable("pk", "pv")
	for k := 0; k < 1000; k++ {
		probe.AppendRow(int64(k%100), int64(k))
	}
	bScan, _ := NewScan(cfg, NewLocalSource(cfg, build), []string{"bk", "bv"}, nil, false)
	pScan, _ := NewScan(cfg, NewLocalSource(cfg, probe), []string{"pk", "pv"}, nil, false)
	join := NewHashJoin(cfg, bScan, pScan, "bk", "pk", nil)
	out, err := Collect(sim.NewClock(), join)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1000 {
		t.Fatalf("join rows = %d, want 1000", out.Len())
	}
	// Schema: pk pv b_bk b_bv; check b_bv == pk*10 on every row.
	kIdx, _ := join.Schema().ColIndex("pk")
	vIdx, _ := join.Schema().ColIndex("b_bv")
	for r := 0; r < out.Len(); r++ {
		if out.Cols[vIdx][r] != out.Cols[kIdx][r]*10 {
			t.Fatalf("row %d: joined value mismatch", r)
		}
	}
}

func TestHashJoinSpillCostOrdering(t *testing.T) {
	// E12 shape: none < remote-spill < ssd-spill in time; results equal.
	cfg := sim.DefaultConfig()
	build := NewTable("bk", "bv")
	for k := 0; k < 20_000; k++ {
		build.AppendRow(int64(k), int64(k))
	}
	probe := NewTable("pk")
	for k := 0; k < 40_000; k++ {
		probe.AppendRow(int64(k % 20_000))
	}
	run := func(target SpillTarget, budgetBytes int) (int, sim.Clock, int64) {
		bScan, _ := NewScan(cfg, NewLocalSource(cfg, build), []string{"bk", "bv"}, nil, false)
		pScan, _ := NewScan(cfg, NewLocalSource(cfg, probe), []string{"pk"}, nil, false)
		budget := NewMemoryBudget(cfg, budgetBytes, target)
		join := NewHashJoin(cfg, bScan, pScan, "bk", "pk", budget)
		clk := sim.NewClock()
		out, err := Collect(clk, join)
		if err != nil {
			t.Fatal(err)
		}
		return out.Len(), *clk, budget.SpilledBytes
	}
	rowsNone, cNone, spillNone := run(SpillNone, 0)
	rowsRemote, cRemote, spillRemote := run(SpillRemote, 64<<10)
	rowsSSD, cSSD, spillSSD := run(SpillSSD, 64<<10)
	if rowsNone != 40_000 || rowsRemote != rowsNone || rowsSSD != rowsNone {
		t.Fatalf("row counts diverge: %d/%d/%d", rowsNone, rowsRemote, rowsSSD)
	}
	if spillNone != 0 || spillRemote == 0 || spillSSD == 0 {
		t.Fatalf("spill bytes: %d/%d/%d", spillNone, spillRemote, spillSSD)
	}
	if !(cNone.Now() < cRemote.Now() && cRemote.Now() < cSSD.Now()) {
		t.Fatalf("cost ordering violated: none %v remote %v ssd %v", cNone.Now(), cRemote.Now(), cSSD.Now())
	}
}

func TestRemoteSourceCostsMoreThanLocal(t *testing.T) {
	cfg := sim.DefaultConfig()
	tb := testTable(4 * BlockRows)
	local := NewLocalSource(cfg, tb)
	pool := memnode.New(cfg, "m0", 64<<20)
	remote, err := NewRemoteSource(cfg, pool, tb, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	runScan := func(src Source) sim.Clock {
		scan, _ := NewScan(cfg, src, []string{"id"}, nil, false)
		clk := sim.NewClock()
		if _, err := Collect(clk, scan); err != nil {
			t.Fatal(err)
		}
		return *clk
	}
	lc := runScan(local)
	rc := runScan(remote)
	if !(lc.Now() < rc.Now()) {
		t.Fatalf("local scan %v should beat remote %v", lc.Now(), rc.Now())
	}
}

func TestRemoteSourceCacheReducesTraffic(t *testing.T) {
	cfg := sim.DefaultConfig()
	tb := testTable(4 * BlockRows)
	pool := memnode.New(cfg, "m0", 64<<20)
	src, err := NewRemoteSource(cfg, pool, tb, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	scan := func() {
		s, _ := NewScan(cfg, src, []string{"id"}, nil, false)
		Collect(sim.NewClock(), s)
	}
	scan()
	h1, m1 := src.CacheStats()
	scan()
	h2, m2 := src.CacheStats()
	if h1 != 0 || m1 != 4 {
		t.Fatalf("cold pass: %d/%d", h1, m1)
	}
	if h2 != 4 || m2 != 4 {
		t.Fatalf("warm pass: %d hits, %d misses", h2, m2)
	}
}

func TestCXLSourceScan(t *testing.T) {
	cfg := sim.DefaultConfig()
	tb := testTable(2 * BlockRows)
	dev := cxl.NewDevice(cfg, 1<<22)
	src, err := NewCXLSource(cfg, dev, tb)
	if err != nil {
		t.Fatal(err)
	}
	scan, _ := NewScan(cfg, src, []string{"id", "dbl"}, nil, false)
	out, err := Collect(sim.NewClock(), scan)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2*BlockRows {
		t.Fatalf("rows = %d", out.Len())
	}
	if out.Cols[1][5] != 10 {
		t.Fatalf("dbl[5] = %d", out.Cols[1][5])
	}
	// Sequential scan cheaper than random access mode.
	seqClk := sim.NewClock()
	s1, _ := NewScan(cfg, src, []string{"id"}, nil, false)
	Collect(seqClk, s1)
	src.Sequential = false
	randClk := sim.NewClock()
	s2, _ := NewScan(cfg, src, []string{"id"}, nil, false)
	Collect(randClk, s2)
	if !(seqClk.Now() < randClk.Now()) {
		t.Fatalf("seq %v should beat random %v", seqClk.Now(), randClk.Now())
	}
}

func TestObjectSourceScanAndPruning(t *testing.T) {
	cfg := sim.DefaultConfig()
	tb := testTable(8 * BlockRows)
	store := device.NewObjectStore(cfg)
	src := NewObjectSource(cfg, store, tb, "t1")
	// Pruned scan reads far fewer objects (charged less time).
	pred := []Predicate{{Col: "id", Lo: 0, Hi: 10}}
	p, _ := NewScan(cfg, src, []string{"id"}, pred, true)
	pc := sim.NewClock()
	outP, err := Collect(pc, p)
	if err != nil {
		t.Fatal(err)
	}
	u, _ := NewScan(cfg, src, []string{"id"}, pred, false)
	uc := sim.NewClock()
	Collect(uc, u)
	if outP.Len() != 10 {
		t.Fatalf("rows = %d", outP.Len())
	}
	if !(pc.Now() < uc.Now()/4) {
		t.Fatalf("pruned %v should be ≫ cheaper than unpruned %v", pc.Now(), uc.Now())
	}
}
