package harness

import (
	"fmt"
	"time"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/aurora"
	"github.com/disagglab/disagg/internal/engine/monolithic"
	"github.com/disagglab/disagg/internal/engine/pilotdb"
	"github.com/disagglab/disagg/internal/engine/polardb"
	"github.com/disagglab/disagg/internal/engine/sharednothing"
	"github.com/disagglab/disagg/internal/engine/snowflake"
	"github.com/disagglab/disagg/internal/engine/socrates"
	"github.com/disagglab/disagg/internal/engine/taurus"
	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/metrics"
	"github.com/disagglab/disagg/internal/query"
	"github.com/disagglab/disagg/internal/rdma"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/workload"
)

func oltpLayout() heap.Layout {
	l, err := heap.NewLayout(8192, 96)
	if err != nil {
		panic(err)
	}
	return l
}

// runOLTP drives a TPC-C-lite workload with `workers` clients and reports
// the group result plus per-transaction latency stats.
func runOLTP(e engine.Engine, workers, txns int) (sim.GroupResult, metrics.Summary) {
	return runOLTPBeside(e, workers, txns, nil)
}

// runOLTPBeside is runOLTP with bg, when non-nil, as one more member of the
// clients' group, left out of the result.
func runOLTPBeside(e engine.Engine, workers, txns int, bg func(c *sim.Clock)) (sim.GroupResult, metrics.Summary) {
	var hist []time.Duration
	histCh := make(chan time.Duration, workers*txns)
	w := workload.DefaultTPCC()
	members := workers
	if bg != nil {
		members++
	}
	all := sim.RunGroup(members, func(id int, c *sim.Clock) int {
		if id == workers {
			bg(c)
			return 0
		}
		g := w.NewGenerator(42, id)
		done := 0
		for i := 0; i < txns; i++ {
			before := c.Now()
			if g.RunOn(e, c, 1) == 1 {
				done++
				histCh <- c.Now() - before
			}
		}
		return done
	})
	close(histCh)
	for d := range histCh {
		hist = append(hist, d)
	}
	res := sim.GroupResult{Workers: workers, TotalOps: all.TotalOps, PerWorker: all.PerWorker[:workers]}
	for _, d := range res.PerWorker {
		res.SumTime += d
		res.MakeSpan = max(res.MakeSpan, d)
	}
	return res, metrics.Summarize(hist)
}

func init() {
	register(Experiment{
		ID:    "E1",
		Title: "Log-as-the-database vs page shipping (network cost per transaction)",
		Claim: `§2.1: "To reduce the expensive network I/O cost, Aurora only sends logs rather than the actual data pages over the network"; PolarDB "sends both data pages and logs".`,
		Run:   runE1,
	})
	register(Experiment{
		ID:    "E2",
		Title: "Aurora 6-replica/3-AZ quorum: availability and recovery",
		Claim: `§2.1: "each data segment is six-way replicated over three AZs" with a 4/6 write and 3/6 read quorum; compute recovery does not replay log.`,
		Run:   runE2,
	})
	register(Experiment{
		ID:    "E3",
		Title: "Durability/availability separation: Aurora vs Socrates vs Taurus",
		Claim: `§2.1: Socrates separates durability (XLOG) from availability (page servers); Taurus sends pages to one store and gossips, staying frugal at bounded staleness.`,
		Run:   runE3,
	})
	register(Experiment{
		ID:    "E4",
		Title: "Elasticity: shared-storage scale-out vs shared-nothing rebalancing",
		Claim: `§2.2/§1: shared-storage compute is stateless, so scaling moves no data; shared-nothing must repartition.`,
		Run:   runE4,
	})
	register(Experiment{
		ID:    "E5",
		Title: "Min-max (zone map) pruning on clustered vs shuffled data",
		Claim: `§2.2: Snowflake keeps light-weight min-max indexes over immutable files; pruning works when data is clustered on the predicate column.`,
		Run:   runE5,
	})
}

func runE1(cfg *sim.Config, s Scale) *Result {
	r := &Result{ID: "E1", Title: "Log shipping vs page shipping"}
	workers := pick(s, 4, 8)
	txns := pick(s, 60, 400)
	layout := oltpLayout()

	type row struct {
		name      string
		res       sim.GroupResult
		sum       metrics.Summary
		st        *engine.Stats
		pageBytes int64
	}
	var rows []row
	auE := aurora.New(cfg, layout, 1024, 0) // traced below, retired last
	run := func(name string, e engine.Engine) {
		res, sum := runOLTP(e, workers, txns)
		rows = append(rows, row{name, res, sum, e.Stats(), e.Stats().PageBytes.Load()})
		if e != auE {
			retire(e)
		}
	}
	run("monolithic", monolithic.New(cfg, layout, 1024))
	run("aurora", auE)
	run("polardb", polardb.New(cfg, layout, 1024))
	run("socrates", socrates.New(cfg, layout, 1024, 2))
	// PilotDB ships its log over one-sided RDMA, so its row also exercises
	// the fabric substrate (rdma.* telemetry sites) under this workload.
	run("pilotdb", pilotdb.New(cfg, layout, 1024, pilotdb.Pilot()))

	t := r.table("E1: TPC-C-lite, "+fmt.Sprint(workers)+" clients",
		"engine", "tput(txn/s)", "p50", "p99", "net B/txn", "log B/txn", "page B/txn")
	byName := map[string]row{}
	for _, rw := range rows {
		byName[rw.name] = rw
		commits := rw.st.Commits.Load()
		if commits == 0 {
			commits = 1
		}
		t.Row(rw.name, rw.res.Throughput(), rw.sum.P50, rw.sum.P99,
			rw.st.BytesPerCommit(),
			float64(rw.st.LogBytes.Load())/float64(commits),
			float64(rw.st.PageBytes.Load())/float64(commits))
	}
	au, po, mo := byName["aurora"], byName["polardb"], byName["monolithic"]
	r.check("aurora ships no pages", au.pageBytes == 0, "aurora page bytes = %d", au.pageBytes)
	// Write-path network volume (the claim is specifically about what the
	// writer ships): 6 log copies for aurora vs 3 log copies + 3 page
	// copies for polardb.
	auWrite := 6 * float64(au.st.LogBytes.Load()) / float64(au.st.Commits.Load())
	poWrite := 3 * float64(po.st.LogBytes.Load()+po.st.PageBytes.Load()) / float64(po.st.Commits.Load())
	r.check("aurora write-path bytes/txn ≪ polardb",
		auWrite < poWrite/3,
		"aurora %.0f B/txn vs polardb %.0f B/txn (%.1fx)", auWrite, poWrite, poWrite/auWrite)
	r.check("monolithic uses no network", mo.st.NetBytes.Load() == 0,
		"monolithic net bytes = %d", mo.st.NetBytes.Load())
	r.check("polardb ships pages too", po.pageBytes > 0, "polardb page bytes = %d", po.pageBytes)
	// Fabric reference point: what one transaction's log batch costs to
	// persist on remote PM with the one-sided recipe (§2.3) — the floor
	// that log-as-the-database engines are chasing.
	pm := rdma.NewPMNode(cfg, "logpm", 1<<20)
	fc := sim.NewClock()
	rdma.Connect(cfg, pm, nil).WritePersist(fc, 0, make([]byte, 768))
	r.note("fabric floor: one-sided persist of a 768B log batch on remote PM costs %v", fc.Now())
	r.traceOp(cfg, "txn.write", func(c *sim.Clock) {
		engine.Run(auE, c, engine.RunOpts{}, func(tx engine.Tx) error {
			return tx.Write(1, make([]byte, layout.ValSize))
		})
	})
	retire(auE)
	return r
}

func runE2(cfg *sim.Config, s Scale) *Result {
	r := &Result{ID: "E2", Title: "Quorum availability and recovery"}
	layout := oltpLayout()
	e := aurora.New(cfg, layout, 1024, 0)
	txns := pick(s, 150, 1000)
	res, _ := runOLTP(e, 2, txns/2)
	r.note("baseline: %d commits at %.0f txn/s", res.TotalOps, res.Throughput())

	t := r.table("E2: failure drill (6 replicas / 3 AZs, W=4 R=3)",
		"scenario", "alive", "writes", "reads")
	c := sim.NewClock()
	c.AdvanceTo(res.MakeSpan)
	probe := func(scenario string) {
		werr := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(1, make([]byte, layout.ValSize)) })
		e.Pool().InvalidateAll()
		rerr := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { _, err := tx.Read(1); return err })
		status := func(err error) string {
			if err == nil {
				return "ok"
			}
			return "UNAVAILABLE"
		}
		t.Row(scenario, e.Volume.Alive(), status(werr), status(rerr))
	}
	probe("healthy")
	e.Volume.FailAZ(0)
	probe("one AZ down")
	wOK := e.Volume.WriteAvailable()
	e.Volume.Replicas[2].Fail()
	probe("AZ + 1 node down")
	r.check("writes survive AZ loss", wOK, "write quorum with 4/6 alive")
	r.check("reads survive AZ+1", e.Volume.ReadAvailable() && !e.Volume.WriteAvailable(),
		"3/6 alive: reads ok, writes blocked")

	// Crash recovery: aurora (quorum poll) vs monolithic (ARIES redo).
	mono := monolithic.New(cfg, layout, 1024)
	monoRes, _ := runOLTP(mono, 2, txns/2)
	mono.Crash()
	mc := sim.NewClock()
	mc.AdvanceTo(monoRes.MakeSpan)
	monoTime, err := mono.Recover(mc)
	if err != nil {
		r.check("monolithic recovers", false, "%v", err)
		return r
	}
	e.Crash()
	auroraTime, err := e.Recover(c)
	if err != nil {
		r.check("aurora recovers", false, "%v", err)
		return r
	}
	retire(mono, e)
	t2 := r.table("E2b: compute crash recovery", "engine", "recovery time")
	t2.Row("monolithic (ARIES redo)", monoTime)
	t2.Row("aurora (quorum LSN poll)", auroraTime)
	r.check("aurora recovery ≪ monolithic", auroraTime < monoTime/10,
		"aurora %v vs monolithic %v (%.0fx)", auroraTime, monoTime, ratio(monoTime, auroraTime))

	// Replica repair: fail a replica, commit past it, bring it back.
	e2 := aurora.New(cfg, layout, 1024, 0)
	e2.Volume.Replicas[5].Fail()
	c3 := sim.NewClock()
	for i := uint64(0); i < 20; i++ {
		engine.Run(e2, c3, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(i, make([]byte, layout.ValSize)) })
	}
	before := c3.Now()
	n, err := e2.Volume.RepairReplica(c3, 5, e2.Log())
	r.check("failed replica repairs from peers", err == nil && n > 0 &&
		e2.Volume.Replicas[5].PrefixLSN() == e2.DurableLSN(),
		"shipped %d records in %v", n, c3.Now()-before)
	r.traceOp(cfg, "txn.write-quorum", func(c *sim.Clock) {
		engine.Run(e2, c, engine.RunOpts{}, func(tx engine.Tx) error {
			return tx.Write(99, make([]byte, layout.ValSize))
		})
	})
	retire(e2)
	return r
}

func runE3(cfg *sim.Config, s Scale) *Result {
	r := &Result{ID: "E3", Title: "Aurora vs Socrates vs Taurus tiering"}
	layout := oltpLayout()
	workers := pick(s, 4, 8)
	txns := pick(s, 60, 400)

	au := aurora.New(cfg, layout, 1024, 0)
	so := socrates.New(cfg, layout, 1024, 2)
	ta := taurus.New(cfg, layout, 1024, 3)

	type row struct {
		name   string
		sum    metrics.Summary
		st     *engine.Stats
		copies string
	}
	var rows []row
	run := func(name string, e engine.Engine, copies string) sim.GroupResult {
		res, sum := runOLTP(e, workers, txns)
		rows = append(rows, row{name, sum, e.Stats(), copies})
		return res
	}
	run("aurora", au, "6x log+pages")
	run("socrates", so, "1x XLOG + 2 page servers + XStore")
	taRes := run("taurus", ta, "3x log stores + 3 page stores (async)")

	t := r.table("E3: commit path and replication cost",
		"engine", "commit p50", "commit p99", "net B/txn", "durable copies")
	for _, rw := range rows {
		t.Row(rw.name, rw.sum.P50, rw.sum.P99, rw.st.BytesPerCommit(), rw.copies)
	}
	retire(au, so)
	// Taurus staleness is bounded and converges by gossip.
	lagBefore := ta.MaxPageLag()
	bg := sim.NewClock()
	bg.AdvanceTo(taRes.MakeSpan)
	for i := 0; i < 6 && ta.MaxPageLag() > 0; i++ {
		ta.PageStores.GossipRound(bg)
	}
	r.check("taurus page stores converge via gossip", ta.MaxPageLag() == 0,
		"lag %d -> %d LSNs after gossip", lagBefore, ta.MaxPageLag())
	// Taurus's frugal write fan-out: 3 log copies + 1 page-store copy
	// per batch vs Aurora's 6 full copies.
	auRep := 6 * float64(au.Stats().LogBytes.Load()) / float64(au.Stats().Commits.Load())
	taRep := 4 * float64(ta.Stats().LogBytes.Load()) / float64(ta.Stats().Commits.Load())
	r.check("taurus writer fan-out cheaper than aurora 6-way", taRep < auRep,
		"taurus replicates %.0f B/txn vs aurora %.0f B/txn", taRep, auRep)
	// Socrates: commit latency tracks the XLOG tier only (it does not
	// grow with page-server count). Measured single-worker so scheduling
	// noise cannot skew the comparison.
	so2 := socrates.New(cfg, layout, 1024, 2)
	_, sum2 := runOLTP(so2, 1, txns)
	retire(so2)
	so6 := socrates.New(cfg, layout, 1024, 6)
	_, sum6 := runOLTP(so6, 1, txns)
	retire(so6)
	r.check("socrates commit independent of page-server count",
		sum6.P50 < sum2.P50*3/2,
		"p50 with 2 page servers %v vs 6 page servers %v", sum2.P50, sum6.P50)
	r.traceOp(cfg, "txn.write-taurus", func(c *sim.Clock) {
		engine.Run(ta, c, engine.RunOpts{}, func(tx engine.Tx) error {
			return tx.Write(1, make([]byte, layout.ValSize))
		})
	})
	retire(ta)
	return r
}

func runE4(cfg *sim.Config, s Scale) *Result {
	r := &Result{ID: "E4", Title: "Elastic scale-out: shared-storage vs shared-nothing"}
	layout := oltpLayout()

	// Shared-nothing: load data, then rebalance 4 -> 8.
	sn := sharednothing.New(cfg, layout, 4)
	keys := pick(s, 50_000, 500_000)
	c := sim.NewClock()
	// One value buffer and one closure for every load transaction: Write
	// stages a copy.
	var key uint64
	val := make([]byte, layout.ValSize)
	load := func(tx engine.Tx) error { return tx.Write(key, val) }
	for ; key < uint64(keys); key++ {
		engine.Run(sn, c, engine.RunOpts{}, load)
	}
	rc := sim.NewClock()
	moved := sn.Rebalance(rc, 8)
	snTime := rc.Now()

	// Shared-storage OLAP: provision 7 new warehouses (pure control
	// plane), then check each is immediately useful.
	svc := snowflake.NewService(cfg)
	d := workload.TPCH{ScaleRows: pick(s, 20_000, 200_000), Clustered: true, Seed: 1}.Generate()
	svc.LoadTable("lineitem", d.Lineitem)
	wc := sim.NewClock()
	var whs []*snowflake.Warehouse
	for i := 0; i < 7; i++ {
		whs = append(whs, svc.AddWarehouse(wc, 1024))
	}
	whTime := wc.Now()
	qc := sim.NewClock()
	for _, wh := range whs {
		if _, err := wh.Run(qc, func(src func(string) (query.Source, error)) (query.Operator, error) {
			li, err := src("lineitem")
			if err != nil {
				return nil, err
			}
			return workload.Q6(cfg, li, 0, 100, 0, 11, true)
		}); err != nil {
			r.check("warehouse usable", false, "%v", err)
			return r
		}
	}

	t := r.table("E4: doubling compute", "architecture", "data moved", "rescale cost")
	t.Row("shared-nothing 4->8", metrics.FormatBytes(moved), snTime)
	t.Row("shared-storage +7 warehouses", metrics.FormatBytes(0), whTime)
	r.note("time to first query across all 7 new warehouses: %v (reads shared storage, no transfer of ownership)", qc.Now())
	r.check("shared-nothing moves data", moved > 0, "moved %s", metrics.FormatBytes(moved))
	r.check("shared-storage provisioning ≪ rebalancing", whTime < snTime/5,
		"%v vs %v", whTime, snTime)
	r.traceOp(cfg, "olap.q6-warehouse", func(c *sim.Clock) {
		if _, err := whs[0].Run(c, func(src func(string) (query.Source, error)) (query.Operator, error) {
			li, err := src("lineitem")
			if err != nil {
				return nil, err
			}
			return workload.Q6(cfg, li, 0, 100, 0, 11, true)
		}); err != nil {
			panic(err)
		}
	})
	return r
}

func runE5(cfg *sim.Config, s Scale) *Result {
	r := &Result{ID: "E5", Title: "Zone-map pruning"}
	rows := pick(s, 60_000, 600_000)
	t := r.table("E5: TPC-H-lite Q6, selectivity sweep",
		"layout", "sel date range", "pruned", "unpruned", "blocks read/skipped")

	type outcome struct{ pruned, unpruned time.Duration }
	results := map[string]outcome{}
	for _, clustered := range []bool{true, false} {
		d := workload.TPCH{ScaleRows: rows, Clustered: clustered, Seed: 3}.Generate()
		src := query.NewLocalSource(cfg, d.Lineitem)
		layoutName := "clustered"
		if !clustered {
			layoutName = "shuffled"
		}
		for _, window := range []int64{50, 500} {
			runQ := func(prune bool) (time.Duration, string) {
				op, err := workload.Q6(cfg, src, 1000, 1000+window, 0, 11, prune)
				if err != nil {
					panic(err)
				}
				c := sim.NewClock()
				if _, err := query.Collect(c, op); err != nil {
					panic(err)
				}
				// The scan is the first op in the chain; dig stats
				// out via a fresh scan run for block accounting.
				scan, _ := query.NewScan(cfg, src, []string{workload.LPrice},
					[]query.Predicate{{Col: workload.LShipDate, Lo: 1000, Hi: 1000 + window}}, prune)
				query.Collect(sim.NewClock(), scan)
				return c.Now(), fmt.Sprintf("%d/%d", scan.BlocksRead, scan.BlocksSkipped)
			}
			pt, blocks := runQ(true)
			ut, _ := runQ(false)
			t.Row(layoutName, window, pt, ut, blocks)
			if window == 50 {
				results[layoutName] = outcome{pt, ut}
			}
		}
	}
	cl, sh := results["clustered"], results["shuffled"]
	r.check("pruning wins on clustered data", cl.pruned < cl.unpruned/3,
		"%v vs %v (%.1fx)", cl.pruned, cl.unpruned, ratio(cl.unpruned, cl.pruned))
	r.check("pruning is a no-op on shuffled data", sh.pruned > sh.unpruned/2,
		"%v vs %v", sh.pruned, sh.unpruned)
	r.traceOp(cfg, "olap.q6-pruned", func(c *sim.Clock) {
		d := workload.TPCH{ScaleRows: 10_000, Clustered: true, Seed: 3}.Generate()
		op, err := workload.Q6(cfg, query.NewLocalSource(cfg, d.Lineitem), 1000, 1050, 0, 11, true)
		if err != nil {
			panic(err)
		}
		if _, err := query.Collect(c, op); err != nil {
			panic(err)
		}
	})
	return r
}
