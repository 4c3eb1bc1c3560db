package query

import (
	"reflect"
	"slices"
	"testing"

	"github.com/disagglab/disagg/internal/cxl"
	"github.com/disagglab/disagg/internal/device"
	"github.com/disagglab/disagg/internal/memnode"
	"github.com/disagglab/disagg/internal/sim"
)

// countingSource records every (column, block) its ReadBlock serves.
type countingSource struct {
	Source
	reads [][2]int
}

func (s *countingSource) ReadBlock(c *sim.Clock, block int, cols []int) ([][]int64, error) {
	for _, col := range cols {
		s.reads = append(s.reads, [2]int{col, block})
	}
	return s.Source.ReadBlock(c, block, cols)
}

func newCounting(cfg *sim.Config, rows int) *countingSource {
	return &countingSource{Source: NewLocalSource(cfg, testTable(rows))}
}

func readBlock(t *testing.T, src Source, c *sim.Clock, block int, cols ...int) [][]int64 {
	t.Helper()
	out, err := src.ReadBlock(c, block, cols)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// A repeated read is served from the cache: the inner source sees it once,
// the values are the inner source's, and the clock pays a DRAM touch
// instead of the inner read.
func TestCachedSourceServesRepeatsFromCache(t *testing.T) {
	cfg := sim.DefaultConfig()
	inner := newCounting(cfg, 2*BlockRows)
	cs := NewCachedSource(cfg, inner, 8)
	if cs.HitRatio() != 0 {
		t.Fatalf("cold hit ratio = %v, want 0", cs.HitRatio())
	}
	cold, warm := sim.NewClock(), sim.NewClock()
	first := readBlock(t, cs, cold, 1, 0, 2)
	second := readBlock(t, cs, warm, 1, 0, 2)
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached read differs from the inner read")
	}
	want := readBlock(t, inner.Source, sim.NewClock(), 1, 0, 2)
	if !reflect.DeepEqual(second, want) {
		t.Fatal("cached values differ from the table's")
	}
	if !slices.Equal(inner.reads, [][2]int{{0, 1}, {2, 1}}) {
		t.Fatalf("inner reads = %v, want each column of block 1 once", inner.reads)
	}
	if cs.HitRatio() != 0.5 {
		t.Fatalf("hit ratio = %v, want 0.5 (2 hits, 2 misses)", cs.HitRatio())
	}
	if want := 2 * cfg.DRAM.Cost(BlockRows*8); warm.Now() != want {
		t.Fatalf("warm read charged %v, want two DRAM touches of a block (%v)", warm.Now(), want)
	}
}

// A read mixing cached and uncached columns fetches only the missing ones
// and returns every column in the order asked for.
func TestCachedSourceFetchesOnlyMissingColumns(t *testing.T) {
	cfg := sim.DefaultConfig()
	inner := newCounting(cfg, BlockRows)
	cs := NewCachedSource(cfg, inner, 8)
	readBlock(t, cs, sim.NewClock(), 0, 1)
	inner.reads = nil
	got := readBlock(t, cs, sim.NewClock(), 0, 2, 1, 0)
	if !slices.Equal(inner.reads, [][2]int{{2, 0}, {0, 0}}) {
		t.Fatalf("inner reads = %v, want columns 2 and 0 only", inner.reads)
	}
	want := readBlock(t, inner.Source, sim.NewClock(), 0, 2, 1, 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("mixed read returned columns out of order")
	}
}

// At capacity the least recently used column-block is evicted: touching
// an entry protects it.
func TestCachedSourceEvictsLeastRecentlyUsed(t *testing.T) {
	cfg := sim.DefaultConfig()
	inner := newCounting(cfg, BlockRows)
	cs := NewCachedSource(cfg, inner, 2)
	c := sim.NewClock()
	readBlock(t, cs, c, 0, 0)
	readBlock(t, cs, c, 0, 1)
	readBlock(t, cs, c, 0, 0) // column 1 is now the coldest
	readBlock(t, cs, c, 0, 2) // evicts column 1
	inner.reads = nil
	readBlock(t, cs, c, 0, 0)
	readBlock(t, cs, c, 0, 2)
	if len(inner.reads) != 0 {
		t.Fatalf("resident columns re-read: %v", inner.reads)
	}
	readBlock(t, cs, c, 0, 1)
	if !slices.Equal(inner.reads, [][2]int{{1, 0}}) {
		t.Fatalf("inner reads = %v, want the evicted column 1", inner.reads)
	}
}

// A cache of no blocks passes every read through.
func TestCachedSourceZeroCapacityCachesNothing(t *testing.T) {
	cfg := sim.DefaultConfig()
	inner := newCounting(cfg, BlockRows)
	cs := NewCachedSource(cfg, inner, 0)
	for i := 0; i < 3; i++ {
		readBlock(t, cs, sim.NewClock(), 0, 0)
	}
	if len(inner.reads) != 3 || cs.HitRatio() != 0 {
		t.Fatalf("%d inner reads, hit ratio %v; want 3 and 0", len(inner.reads), cs.HitRatio())
	}
}

// Schema, row count and zone maps are the inner source's.
func TestCachedSourceDescribesItsInner(t *testing.T) {
	cfg := sim.DefaultConfig()
	inner := NewLocalSource(cfg, testTable(3*BlockRows))
	cs := NewCachedSource(cfg, inner, 4)
	if !reflect.DeepEqual(cs.Schema(), inner.Schema()) {
		t.Fatalf("schema = %v, want %v", cs.Schema(), inner.Schema())
	}
	if cs.NumRows() != 3*BlockRows {
		t.Fatalf("rows = %d, want %d", cs.NumRows(), 3*BlockRows)
	}
	if cs.Zones(0) != inner.Zones(0) {
		t.Fatal("zone map is not the inner source's")
	}
}

// A failed inner read reaches the caller and caches nothing.
func TestCachedSourceReturnsInnerError(t *testing.T) {
	cfg := sim.DefaultConfig()
	pool := memnode.New(cfg, "m0", 64<<20)
	inner, err := NewRemoteSource(cfg, pool, testTable(BlockRows), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	cs := NewCachedSource(cfg, inner, 4)
	if _, err := cs.ReadBlock(sim.NewClock(), 5, []int{0}); err == nil {
		t.Fatal("read of a block past the table succeeded")
	}
	readBlock(t, cs, sim.NewClock(), 0, 0)
	if cs.HitRatio() != 0 {
		t.Fatalf("hit ratio after the failed read = %v, want 0", cs.HitRatio())
	}
}

// Every source serves the zone maps of the table it was built from, so
// pruning decides the same on any of them.
func TestSourcesServeTheirTablesZoneMaps(t *testing.T) {
	cfg := sim.DefaultConfig()
	tb := testTable(3*BlockRows + 7)
	sources := map[string]func() (Source, error){
		"local": func() (Source, error) { return NewLocalSource(cfg, tb), nil },
		"remote": func() (Source, error) {
			return NewRemoteSource(cfg, memnode.New(cfg, "m0", 64<<20), tb, nil, 0)
		},
		"cxl":    func() (Source, error) { return NewCXLSource(cfg, cxl.NewDevice(cfg, 1<<22), tb) },
		"object": func() (Source, error) { return NewObjectSource(cfg, device.NewObjectStore(cfg), tb, "t"), nil },
	}
	for name, build := range sources {
		t.Run(name, func(t *testing.T) {
			src, err := build()
			if err != nil {
				t.Fatal(err)
			}
			if src.NumRows() != tb.NumRows() || !reflect.DeepEqual(src.Schema(), tb.Schema) {
				t.Fatalf("rows %d, schema %v; want %d, %v", src.NumRows(), src.Schema(), tb.NumRows(), tb.Schema)
			}
			for col := range tb.Cols {
				if want := tb.BuildZoneMap(col); !reflect.DeepEqual(*src.Zones(col), want) {
					t.Fatalf("column %d zones = %+v, want %+v", col, *src.Zones(col), want)
				}
			}
		})
	}
}

// A table or batch without columns has no rows.
func TestEmptyTableAndBatch(t *testing.T) {
	if n := (&Table{}).NumRows(); n != 0 {
		t.Fatalf("table without columns: %d rows", n)
	}
	if n := NewTable("a").NumBlocks(); n != 0 {
		t.Fatalf("empty table: %d blocks", n)
	}
	var nilBatch *Batch
	if nilBatch.Len() != 0 || (&Batch{}).Len() != 0 {
		t.Fatal("empty batch has rows")
	}
}

func TestSpillTargetString(t *testing.T) {
	for target, want := range map[SpillTarget]string{SpillNone: "none", SpillSSD: "ssd", SpillRemote: "remote-mem"} {
		if got := target.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", target, got, want)
		}
	}
}

// HashAgg's output schema is the group column, then one column per
// aggregate: "sum_<col>" for a sum, "count_<i>" for the i-th aggregate when
// it is a count.
func TestHashAggSchema(t *testing.T) {
	cfg := sim.DefaultConfig()
	scan, err := NewScan(cfg, NewLocalSource(cfg, testTable(10)), []string{"mod", "id"}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	grouped := NewHashAgg(cfg, scan, "mod", AggSpec{Col: "id"}, AggSpec{}).Schema()
	global := NewHashAgg(cfg, scan, "", AggSpec{}).Schema()
	if !slices.Equal(grouped.Cols, []string{"mod", "sum_id", "count_1"}) || !slices.Equal(global.Cols, []string{"count_0"}) {
		t.Fatalf("grouped schema %v, global schema %v", grouped.Cols, global.Cols)
	}
}
