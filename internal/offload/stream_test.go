package offload

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"github.com/disagglab/disagg/internal/memnode"
	"github.com/disagglab/disagg/internal/query"
	"github.com/disagglab/disagg/internal/rdma"
	"github.com/disagglab/disagg/internal/sim"
)

// oddRows is not a multiple of the 512 values a paging granule holds, so
// every scan ends on a partial granule.
const oddRows = 10_007

// model is the naive evaluator the pushdown and pull paths are checked
// against: the uploaded columns with the compute side's writes applied.
type model map[string][]int64

func (m model) write(t *testing.T, rc *RemoteColumns, col string, row int, v int64) {
	t.Helper()
	if err := rc.LocalWrite(col, row, v); err != nil {
		t.Fatal(err)
	}
	m[col][row] = v
}

func (m model) filter(predCol string, lo, hi int64, valCol string) (rows []int64, sum, count int64) {
	for i, pv := range m[predCol] {
		if pv >= lo && pv < hi {
			rows = append(rows, m[valCol][i])
			sum += m[valCol][i]
			count++
		}
	}
	return rows, sum, count
}

func (m model) stack(stages []Stage) map[int64]int64 {
	var groupCol, aggCol string
	for _, s := range stages {
		switch s.Kind {
		case StageGroupBy:
			groupCol = s.Col
		case StageAgg:
			aggCol = s.Col
		}
	}
	out := make(map[int64]int64)
rows:
	for i := range oddRows {
		for _, s := range stages {
			if s.Kind == StageSelect && (m[s.Col][i] < s.Lo || m[s.Col][i] >= s.Hi) {
				continue rows
			}
		}
		var g, v int64 = 0, 1
		if groupCol != "" {
			g = m[groupCol][i]
		}
		if aggCol != "" {
			v = m[aggCol][i]
		}
		out[g] += v
	}
	return out
}

// differential uploads a = i%100, b = i, g = i%7 over oddRows rows and
// returns the model of the same table; with dirty set, it also stages
// compute-side writes to rows in the first and the last (partial) granule.
func differential(t *testing.T, dirty bool) (*RemoteColumns, *rdma.QP, model) {
	t.Helper()
	cfg := sim.DefaultConfig()
	pool := memnode.New(cfg, "m0", 64<<20)
	tbl := query.NewSizedTable(oddRows, "a", "b", "g")
	m := model{}
	for i := 0; i < oddRows; i++ {
		tbl.AppendRow(int64(i%100), int64(i), int64(i%7))
	}
	for i, col := range tbl.Schema.Cols {
		m[col] = slices.Clone(tbl.Cols[i])
	}
	rc, err := Upload(cfg, pool, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if dirty {
		m.write(t, rc, "a", 1, 3)            // into [0,5)
		m.write(t, rc, "a", 2, 50)           // out of [0,5)
		m.write(t, rc, "a", oddRows-1, 4)    // last row, into [0,5)
		m.write(t, rc, "b", 0, 777)          // a selected row's value
		m.write(t, rc, "b", oddRows-1, -123) // the last row's value
		m.write(t, rc, "g", 100, 99)         // a selected row's group
	}
	return rc, pool.Connect(nil), m
}

func TestPullFilterRowsSeesLocalWrites(t *testing.T) {
	_, rc, qp := setup(t, 1000)
	if err := rc.LocalWrite("b", 0, 777); err != nil {
		t.Fatal(err)
	}
	pulled, err := rc.PullFilterRows(sim.NewClock(), qp, "a", 0, 1, "b")
	if err != nil {
		t.Fatal(err)
	}
	pushed, err := rc.PushFilterRows(sim.NewClock(), qp, "a", 0, 1, "b")
	if err != nil {
		t.Fatal(err)
	}
	if len(pulled) == 0 || len(pushed) == 0 {
		t.Fatalf("pull %d rows, push %d rows, want row 0 in both", len(pulled), len(pushed))
	}
	if pulled[0] != 777 || pushed[0] != 777 {
		t.Fatalf("row 0 after LocalWrite(b, 0, 777): pull %d, push %d, want 777 from both", pulled[0], pushed[0])
	}
}

func TestPullPushAndModelAgree(t *testing.T) {
	for _, dirty := range []bool{false, true} {
		t.Run(fmt.Sprintf("dirty=%v", dirty), func(t *testing.T) {
			// Pull first: a pushdown syncs the dirty values away.
			rc, qp, m := differential(t, dirty)
			wantRows, wantSum, wantCount := m.filter("a", 0, 5, "b")
			pullRows, err := rc.PullFilterRows(sim.NewClock(), qp, "a", 0, 5, "b")
			if err != nil {
				t.Fatal(err)
			}
			pullSum, pullCount, err := rc.PullFilterSum(sim.NewClock(), qp, "a", 0, 5, "b")
			if err != nil {
				t.Fatal(err)
			}
			pushRows, err := rc.PushFilterRows(sim.NewClock(), qp, "a", 0, 5, "b")
			if err != nil {
				t.Fatal(err)
			}
			pushSum, pushCount, err := rc.PushFilterSum(sim.NewClock(), qp, "a", 0, 5, "b")
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(pullRows, wantRows) || !slices.Equal(pushRows, wantRows) {
				t.Errorf("FilterRows: pull %d rows, push %d rows, model %d rows; they differ", len(pullRows), len(pushRows), len(wantRows))
			}
			if pullSum != wantSum || pullCount != wantCount || pushSum != wantSum || pushCount != wantCount {
				t.Errorf("FilterSum: pull (%d,%d), push (%d,%d), model (%d,%d)", pullSum, pullCount, pushSum, pushCount, wantSum, wantCount)
			}
			if n, err := rc.PullFilterRows(sim.NewClock(), qp, "a", 1000, 2000, "b"); err != nil || len(n) != 0 {
				t.Errorf("empty FilterRows: %v, %v", n, err)
			}
		})
	}
}

func TestRunStackMatchesModel(t *testing.T) {
	stacks := map[string][]Stage{
		"select-group-agg": {
			{Kind: StageSelect, Col: "a", Lo: 0, Hi: 30},
			{Kind: StageProject, Col: "b"},
			{Kind: StageGroupBy, Col: "g"},
			{Kind: StageAgg, Col: "b"},
		},
		"two-selects-count": {
			{Kind: StageSelect, Col: "a", Lo: 0, Hi: 50},
			{Kind: StageSelect, Col: "g", Lo: 2, Hi: 5},
			{Kind: StageGroupBy, Col: "a"},
		},
		"global-agg": {
			{Kind: StageSelect, Col: "b", Lo: 100, Hi: oddRows},
			{Kind: StageAgg, Col: "a"},
		},
	}
	for name, stages := range stacks {
		for _, dirty := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/dirty=%v", name, dirty), func(t *testing.T) {
				rc, qp, m := differential(t, dirty)
				want := m.stack(stages)
				for _, pipelined := range []bool{true, false} {
					got, err := rc.RunStack(sim.NewClock(), qp, stages, pipelined)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("pipelined=%v: %d groups, model %d", pipelined, len(got), len(want))
					}
					for g, v := range want {
						if got[g] != v {
							t.Fatalf("pipelined=%v: group %d = %d, model %d", pipelined, g, got[g], v)
						}
					}
				}
			})
		}
	}
}

// Both pull paths page each column in one qp.Read per 4 KiB granule, in
// address order, the last one partial: 2·⌈rows·8/4096⌉ reads, and the same
// clock as issuing those reads by hand and charging the local evaluation.
func TestPullPathsPageEachGranuleOnce(t *testing.T) {
	cfg := sim.DefaultConfig()
	upload := func(stats *rdma.Stats) (*RemoteColumns, *rdma.QP) {
		pool := memnode.New(cfg, "m0", 64<<20)
		tbl := query.NewSizedTable(oddRows, "a", "b")
		for i := 0; i < oddRows; i++ {
			tbl.AppendRow(int64(i%100), int64(i))
		}
		rc, err := Upload(cfg, pool, tbl)
		if err != nil {
			t.Fatal(err)
		}
		return rc, pool.Connect(stats)
	}
	// The reference: the same reads, on an identical pool, by hand.
	rc, qp := upload(nil)
	ref := sim.NewClock()
	for _, col := range []string{"a", "b"} {
		addr, _ := rc.addrOf(col)
		for off := 0; off < oddRows*8; off += pagingGranule {
			if err := qp.Read(ref, addr+uint64(off), make([]byte, min(pagingGranule, oddRows*8-off))); err != nil {
				t.Fatal(err)
			}
		}
	}
	ref.Advance(cfg.CPU.Cost(oddRows * 16))

	granules := int64((oddRows*8 + pagingGranule - 1) / pagingGranule)
	pulls := map[string]func(*RemoteColumns, *sim.Clock, *rdma.QP) error{
		"PullFilterSum": func(rc *RemoteColumns, c *sim.Clock, qp *rdma.QP) error {
			_, _, err := rc.PullFilterSum(c, qp, "a", 0, 5, "b")
			return err
		},
		"PullFilterRows": func(rc *RemoteColumns, c *sim.Clock, qp *rdma.QP) error {
			_, err := rc.PullFilterRows(c, qp, "a", 0, 5, "b")
			return err
		},
	}
	for name, pull := range pulls {
		var stats rdma.Stats
		rc, qp := upload(&stats)
		c := sim.NewClock()
		if err := pull(rc, c, qp); err != nil {
			t.Fatal(err)
		}
		if got := stats.Ops.Load(); got != 2*granules {
			t.Errorf("%s: %d reads, want %d", name, got, 2*granules)
		}
		if got := stats.BytesIn.Load(); got != 2*oddRows*8 {
			t.Errorf("%s: %d bytes read, want both columns, %d", name, got, 2*oddRows*8)
		}
		if c.Now() != ref.Now() {
			t.Errorf("%s: %v, want the hand-issued reads' %v", name, c.Now(), ref.Now())
		}
	}
}

// minAlloc reports the fewest bytes any of rounds calls of f allocated:
// TotalAlloc is process-wide, so a single round can catch an allocation
// made meanwhile by another goroutine.
func minAlloc(rounds int, f func()) uint64 {
	var least uint64
	for i := 0; i < rounds; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; i == 0 || got < least {
			least = got
		}
	}
	return least
}

// The memory node scans its columns in place: a handler over 100k rows
// allocates its selection (one bit a row) and its response, far less than
// one column's rows*8 bytes.
func TestNodeFiltersAllocateFarLessThanAColumn(t *testing.T) {
	const rows = 100_000
	_, rc, _ := setup(t, rows)
	req := encodeFilterSumReq("a", 0, 1, "b")
	stack := encodeStackReq([]Stage{
		{Kind: StageSelect, Col: "a", Lo: 0, Hi: 50},
		{Kind: StageGroupBy, Col: "a"},
		{Kind: StageAgg, Col: "b"},
	}, true)
	handlers := map[string]func(){
		"filtersum":  func() { rc.handleFilterSum(sim.NewClock(), req) },
		"filterrows": func() { rc.handleFilterRows(sim.NewClock(), req) },
		"stack":      func() { rc.handleStack(sim.NewClock(), stack) },
	}
	for name, h := range handlers {
		got := minAlloc(5, h)
		if got >= rows*8/16 {
			t.Errorf("%s over %d rows allocated %d B, want < 1/16 of a %d B column", name, rows, got, rows*8)
		}
		t.Logf("%s over %d rows: %d B", name, rows, got)
	}
}
