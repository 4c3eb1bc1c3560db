package harness

import (
	"fmt"
	"time"

	"github.com/disagglab/disagg/internal/memnode"
	"github.com/disagglab/disagg/internal/metrics"
	"github.com/disagglab/disagg/internal/offload"
	"github.com/disagglab/disagg/internal/query"
	"github.com/disagglab/disagg/internal/remotecache"
	"github.com/disagglab/disagg/internal/shuffle"
	"github.com/disagglab/disagg/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "E13",
		Title: "TELEPORT compute pushdown",
		Claim: `§3.2: TELEPORT offloads "light-weight but memory-intensive operators" to the memory pool, eliminating data movement; it "only synchronizes data on applications' demands".`,
		Run:   runE13,
	})
	register(Experiment{
		ID:    "E14",
		Title: "Farview operator-stack offloading with pipelining",
		Claim: `§3.2: Farview implements database operators in the memory node and "supports pipelining in the operator stack" so complex sub-queries run near data.`,
		Run:   runE14,
	})
	register(Experiment{
		ID:    "E15",
		Title: "Redy remote cache and CompuCache stored procedures",
		Claim: `§3.2: stranded-memory caches offer "a lower-latency alternative to SSDs", migrate when memory is reclaimed, and CompuCache's stored procedures do server-side pointer chasing in a single round trip.`,
		Run:   runE15,
	})
	register(Experiment{
		ID:    "E16",
		Title: "Dremel disaggregated shuffle",
		Claim: `§3.2: "shuffles scale quadratically with the number of producers and consumers"; the disaggregated shuffle tier "improves the performance and scalability of joins by an order of magnitude".`,
		Run:   runE16,
	})
}

func runE13(cfg *sim.Config, s Scale) *Result {
	r := &Result{ID: "E13", Title: "Compute pushdown"}
	rows := pick(s, 100_000, 1_000_000)
	pool := memnode.New(cfg, "mem0", 1<<30)
	defer pool.Close()
	tbl := query.NewSizedTable(rows, "pred", "val")
	rng := sim.NewRand(21, 0)
	for i := 0; i < rows; i++ {
		tbl.AppendRow(int64(rng.Intn(1000)), int64(i))
	}
	rc, err := offload.Upload(cfg, pool, tbl)
	if err != nil {
		panic(err)
	}
	qp := pool.Connect(nil)

	// (a) Selectivity sweep with a row-returning filter: the pushdown
	// advantage shrinks as output approaches input.
	t := r.table("E13a: filter returning rows, selectivity sweep",
		"selectivity", "pull (paged)", "pushdown", "speedup")
	var speedups []float64
	for _, selPerMille := range []int64{10, 100, 500, 900} {
		pc := sim.NewClock()
		pulled, err := rc.PullFilterRows(pc, qp, "pred", 0, selPerMille, "val")
		if err != nil {
			panic(err)
		}
		sc := sim.NewClock()
		pushed, err := rc.PushFilterRows(sc, qp, "pred", 0, selPerMille, "val")
		if err != nil {
			panic(err)
		}
		if len(pulled) != len(pushed) {
			r.check("pull/push agree", false, "row counts %d vs %d", len(pulled), len(pushed))
			return r
		}
		sp := ratio(pc.Now(), sc.Now())
		speedups = append(speedups, sp)
		t.Row(fmt.Sprintf("%.1f%%", float64(selPerMille)/10), pc.Now(), sc.Now(), sp)
	}
	r.check("pushdown wins at low selectivity", speedups[0] > 3,
		"%.1fx at 1%% selectivity", speedups[0])
	r.check("advantage shrinks as selectivity grows",
		speedups[len(speedups)-1] < speedups[0],
		"%.1fx at 1%% vs %.1fx at 90%%", speedups[0], speedups[len(speedups)-1])

	// (b) Aggregating pushdown: output is constant-size, so the win is
	// large regardless of selectivity.
	pc := sim.NewClock()
	rc.PullFilterSum(pc, qp, "pred", 0, 500, "val")
	sc := sim.NewClock()
	rc.PushFilterSum(sc, qp, "pred", 0, 500, "val")
	t2 := r.table("E13b: filter+aggregate", "path", "time")
	t2.Row("pull (paged) + local agg", pc.Now())
	t2.Row("pushdown agg", sc.Now())
	r.check("aggregate pushdown ≫ pull", sc.Now() < pc.Now()/2,
		"%.1fx", ratio(pc.Now(), sc.Now()))

	// (c) Synchronization: dirty compute-side data adds a visible sync
	// cost to pushdown, but results stay coherent.
	for i := 0; i < 1000; i++ {
		rc.LocalWrite("val", i, int64(-i))
	}
	dc := sim.NewClock()
	rc.PushFilterSum(dc, qp, "pred", 0, 500, "val")
	r.check("pushdown after dirty writes synchronizes on demand",
		rc.DirtyCount() == 0 && dc.Now() > sc.Now(),
		"sync of 1000 dirty words added %v", dc.Now()-sc.Now())
	r.traceOp(cfg, "offload.pushsum", func(c *sim.Clock) {
		if _, _, err := rc.PushFilterSum(c, qp, "pred", 0, 500, "val"); err != nil {
			panic(err)
		}
	})
	return r
}

func runE14(cfg *sim.Config, s Scale) *Result {
	r := &Result{ID: "E14", Title: "Operator-stack offloading"}
	rows := pick(s, 100_000, 1_000_000)
	pool := memnode.New(cfg, "fv0", 1<<30)
	defer pool.Close()
	tbl := query.NewSizedTable(rows, "grp", "val", "flt")
	rng := sim.NewRand(23, 0)
	for i := 0; i < rows; i++ {
		tbl.AppendRow(int64(rng.Intn(16)), int64(i), int64(rng.Intn(100)))
	}
	rc, err := offload.Upload(cfg, pool, tbl)
	if err != nil {
		panic(err)
	}
	qp := pool.Connect(nil)
	stack := []offload.Stage{
		{Kind: offload.StageSelect, Col: "flt", Lo: 0, Hi: 50},
		{Kind: offload.StageProject, Col: "val"},
		{Kind: offload.StageGroupBy, Col: "grp"},
		{Kind: offload.StageAgg, Col: "val"},
	}
	pipe := sim.NewClock()
	outP, err := rc.RunStack(pipe, qp, stack, true)
	if err != nil {
		panic(err)
	}
	mat := sim.NewClock()
	outM, err := rc.RunStack(mat, qp, stack, false)
	if err != nil {
		panic(err)
	}
	// Pull-based comparator: fetch all three columns, compute locally.
	pull := sim.NewClock()
	vals, err := rc.PullFilterRows(pull, qp, "flt", 0, 50, "val")
	if err != nil {
		panic(err)
	}
	t := r.table("E14: select->project->groupby->agg over "+fmt.Sprint(rows)+" rows",
		"execution", "time", "groups")
	t.Row("farview pipelined stack", pipe.Now(), len(outP))
	t.Row("farview stage-at-a-time", mat.Now(), len(outM))
	t.Row("pull-based (client computes)", pull.Now(), "-")
	r.check("results agree across modes", len(outP) == len(outM) && sameTotals(outP, outM),
		"%d groups", len(outP))
	r.check("pipelining beats materialization", pipe.Now() < mat.Now(),
		"%v vs %v", pipe.Now(), mat.Now())
	r.check("offloaded stack beats pulling data", pipe.Now() < pull.Now()/2,
		"%.1fx over pull (which moved %d rows)", ratio(pull.Now(), pipe.Now()), len(vals))
	r.traceOp(cfg, "offload.stack", func(c *sim.Clock) {
		if _, err := rc.RunStack(c, qp, stack, true); err != nil {
			panic(err)
		}
	})
	return r
}

func sameTotals(a, b map[int64]int64) bool {
	var ta, tb int64
	for _, v := range a {
		ta += v
	}
	for _, v := range b {
		tb += v
	}
	return ta == tb
}

func runE15(cfg *sim.Config, s Scale) *Result {
	r := &Result{ID: "E15", Title: "Remote caching on stranded memory"}
	items := pick(s, 500, 5000)
	cache, err := remotecache.New(cfg, remotecache.DefaultSLO(), 2, 64<<20, 256)
	if err != nil {
		panic(err)
	}
	defer cache.Close()
	qp := cache.Connect(nil)
	c := sim.NewClock()
	val := make([]byte, 256)
	for k := uint64(0); k < uint64(items); k++ {
		if err := cache.Set(c, qp, k, val); err != nil {
			panic(err)
		}
	}
	gc := sim.NewClock()
	for k := uint64(0); k < uint64(items); k++ {
		cache.Get(gc, qp, k)
	}
	remoteLat := gc.Now() / time.Duration(items)
	ssdLat := cache.SSDGetCost()
	t := r.table("E15a: 256B cache GET", "tier", "latency")
	t.Row("stranded-memory cache (RDMA)", remoteLat)
	t.Row("local SSD cache", ssdLat)
	r.check("remote cache ≫ faster than SSD", remoteLat < ssdLat/10,
		"%v vs %v (%.0fx)", remoteLat, ssdLat, ratio(ssdLat, remoteLat))

	// Reclamation: migrate and keep serving.
	mc := sim.NewClock()
	moved, err := cache.Reclaim(mc)
	if err != nil {
		panic(err)
	}
	qp2 := cache.Connect(nil)
	post := sim.NewClock()
	miss := 0
	for k := uint64(0); k < uint64(items); k++ {
		if _, err := cache.Get(post, qp2, k); err != nil {
			miss++
		}
	}
	t2 := r.table("E15b: stranded-memory reclamation", "metric", "value")
	t2.Row("bytes migrated", metrics.FormatBytes(moved))
	t2.Row("migration time", mc.Now())
	t2.Row("misses after migration", miss)
	r.check("cache survives reclamation", miss == 0, "migrated %s in %v", metrics.FormatBytes(moved), mc.Now())

	// CompuCache pointer chase.
	hops := 8
	// Build a chain over the first `hops+1` keys.
	// (Chase requires values whose first 8 bytes point at the next key's
	// address; reuse the cache's own test pattern by setting via chase
	// helper in remotecache tests — here we measure cost ratio on a
	// fresh small cache.)
	ch, _ := remotecache.New(cfg, remotecache.DefaultSLO(), 1, 1<<20, 64)
	defer ch.Close()
	cqp := ch.Connect(nil)
	chainVal := make([]byte, 64)
	cclk := sim.NewClock()
	for k := uint64(0); k <= uint64(hops); k++ {
		ch.Set(cclk, cqp, k, chainVal)
	}
	// Link the chain (value of key i -> addr of key i+1) by re-setting.
	if err := ch.Link(cclk, cqp, hops); err != nil {
		panic(err)
	}
	direct := sim.NewClock()
	ch.Chase(direct, cqp, 0, hops, false)
	offl := sim.NewClock()
	ch.Chase(offl, cqp, 0, hops, true)
	t3 := r.table("E15c: "+fmt.Sprint(hops)+"-hop pointer chase", "mode", "time", "round trips")
	t3.Row("client-driven", direct.Now(), hops)
	t3.Row("stored procedure (CompuCache)", offl.Now(), 1)
	r.check("stored procedure collapses k RTTs to 1", offl.Now() < direct.Now()/3,
		"%v vs %v", offl.Now(), direct.Now())
	r.traceOp(cfg, "cache.chase", func(c *sim.Clock) {
		if _, err := ch.Chase(c, cqp, 0, hops, true); err != nil {
			panic(err)
		}
	})
	return r
}

func runE16(cfg *sim.Config, s Scale) *Result {
	r := &Result{ID: "E16", Title: "Disaggregated shuffle"}
	rowsPer := pick(s, 2000, 20_000)
	t := r.table("E16: shuffle makespan, P=C=n", "n", "direct", "disagg layer", "speedup", "direct conns")
	var gaps []float64
	sizes := []int{2, 4, 8, 16, 32}
	for _, n := range sizes {
		d := shuffle.NewDirect(cfg, n)
		directRes := sim.RunGroup(n, func(id int, c *sim.Clock) int {
			d.Produce(c, id, rowsFor(int64(id), rowsPer))
			d.Consume(c, id)
			return 1
		})
		pool := memnode.New(cfg, "shuf", 2<<30)
		l := shuffle.NewLayer(cfg, pool, n)
		layerRes := sim.RunGroup(n, func(id int, c *sim.Clock) int {
			qp := pool.Connect(nil)
			if err := l.Produce(c, qp, rowsFor(int64(id), rowsPer)); err != nil {
				panic(err)
			}
			if _, err := l.Consume(c, qp, id); err != nil {
				panic(err)
			}
			return 1
		})
		gap := ratio(directRes.MakeSpan, layerRes.MakeSpan)
		gaps = append(gaps, gap)
		t.Row(n, directRes.MakeSpan, layerRes.MakeSpan, gap, d.Connections())
		pool.Close()
	}
	r.check("direct shuffle degrades with scale; layer stays flat",
		gaps[len(gaps)-1] > gaps[0]*2,
		"advantage grows %.1fx -> %.1fx from n=2 to n=32", gaps[0], gaps[len(gaps)-1])
	r.check("order-of-magnitude improvement at scale", gaps[len(gaps)-1] >= 8,
		"%.1fx at n=32", gaps[len(gaps)-1])
	r.traceOp(cfg, "shuffle.direct-pair", func(c *sim.Clock) {
		d := shuffle.NewDirect(cfg, 1)
		d.Produce(c, 0, rowsFor(1, 64))
		d.Consume(c, 0)
	})
	return r
}

func rowsFor(seed int64, n int) []uint64 {
	rng := sim.NewRand(seed, 0)
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(rng.Int63())
	}
	return out
}
