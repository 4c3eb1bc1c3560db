package harness

import (
	"fmt"
	"time"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/aurora"
	"github.com/disagglab/disagg/internal/engine/legobase"
	"github.com/disagglab/disagg/internal/engine/serverless"
	"github.com/disagglab/disagg/internal/index/bptree"
	"github.com/disagglab/disagg/internal/index/lsm"
	"github.com/disagglab/disagg/internal/index/race"
	"github.com/disagglab/disagg/internal/memnode"
	"github.com/disagglab/disagg/internal/metrics"
	"github.com/disagglab/disagg/internal/query"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/txn"
	"github.com/disagglab/disagg/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E9",
		Title: "LegoBase: two-tier LRU caching and two-tier ARIES recovery",
		Claim: `§3.1: LegoBase "adopts two LRU lists … to maximize the cache hit ratios" and "allow[s] compute nodes to recover from remote memory for fast recovery".`,
		Run:   runE9,
	})
	register(Experiment{
		ID:    "E10",
		Title: "PolarDB Serverless: shared memory pool benefits",
		Claim: `§3.1: with a shared remote buffer pool, "secondary nodes have the up-to-date view of the data without replaying logs, (re)sizing becomes easy, and pause/resume and failure recovery are made faster".`,
		Run:   runE10,
	})
	register(Experiment{
		ID:    "E11",
		Title: "Disaggregated indexes: RACE hashing, Sherman B+tree, dLSM",
		Claim: `§3.1: RACE is lock-free via one-sided CAS; Sherman batches writes and exploits cheap locks; dLSM shards and offloads compaction.`,
		Run:   runE11,
	})
	register(Experiment{
		ID:    "E12",
		Title: "TPC-H under memory disaggregation (VLDB'20 study)",
		Claim: `§3.2: remote memory accesses are expensive for large queries, but "a large disaggregated memory pool can prevent the processing of memory-intensive queries from being spilled to secondary storage"; application-managed memory (MonetDB) beats OS-paged (PostgreSQL).`,
		Run:   runE12,
	})
}

func runE9(cfg *sim.Config, s Scale) *Result {
	r := &Result{ID: "E9", Title: "LegoBase two-tier designs"}
	layout := oltpLayout()
	ops := pick(s, 2000, 20_000)

	// (a) Hit ratios: local-only small cache vs two-tier.
	build := func(localPages, remotePages int) *legobase.Engine {
		return legobase.New(cfg, layout, localPages, remotePages)
	}
	drive := func(e *legobase.Engine) {
		c := sim.NewClock()
		// Uniform access over a working set far beyond the local tier:
		// only a second cache level can absorb it.
		w := workload.YCSB{Keys: uint64(200 * layout.PerPage), ReadFrac: 0.95, Theta: 0, ValueSize: layout.ValSize}
		g := w.NewGenerator(7, 0)
		g.RunOn(e, c, ops)
	}
	twoTier := build(16, 512)
	drive(twoTier)
	smallOnly := build(16, 1) // remote tier effectively disabled
	drive(smallOnly)

	l1, r1, s1 := twoTier.Tiers.TierStats()
	l2, r2, s2 := smallOnly.Tiers.TierStats()
	t := r.table("E9a: YCSB-B over a 200-page working set, 16-page local cache",
		"variant", "local hits", "remote hits", "storage fetches", "hit ratio")
	t.Row("two-tier (16 local + 512 remote)", l1, r1, s1, twoTier.Tiers.CombinedHitRatio())
	t.Row("local only (16 local + 1 remote)", l2, r2, s2, smallOnly.Tiers.CombinedHitRatio())
	r.check("two-tier absorbs the working set",
		twoTier.Tiers.CombinedHitRatio() > smallOnly.Tiers.CombinedHitRatio()+0.2,
		"hit ratio %.2f vs %.2f", twoTier.Tiers.CombinedHitRatio(), smallOnly.Tiers.CombinedHitRatio())
	retire(smallOnly)

	// (b) Recovery: remote-memory checkpoints vs storage ARIES.
	crashAndMeasure := func(path func(*legobase.Engine, *sim.Clock) (time.Duration, error)) time.Duration {
		e := build(16, 512)
		e.CheckpointRemoteEvery = 32
		e.CheckpointStorageEvery = 100_000 // storage checkpoint far behind
		c := sim.NewClock()
		g := workload.TPCCLite{Warehouses: 8, Customers: 5000, ValueSize: layout.ValSize}.NewGenerator(1, 0)
		g.RunOn(e, c, pick(s, 300, 2000))
		e.Crash()
		d, err := path(e, c)
		if err != nil {
			panic(err)
		}
		retire(e)
		return d
	}
	fast := crashAndMeasure((*legobase.Engine).Recover)
	slow := crashAndMeasure((*legobase.Engine).RecoverFromStorageOnly)
	t2 := r.table("E9b: crash recovery", "path", "time")
	t2.Row("two-tier ARIES (from remote memory)", fast)
	t2.Row("classic ARIES (from storage)", slow)
	r.check("remote-memory recovery ≫ faster", fast < slow/2,
		"%v vs %v (%.0fx)", fast, slow, ratio(slow, fast))
	r.traceOp(cfg, "txn.read-twotier", func(c *sim.Clock) {
		engine.Run(twoTier, c, engine.RunOpts{}, func(tx engine.Tx) error {
			_, err := tx.Read(1)
			return err
		})
	})
	retire(twoTier)
	return r
}

func runE10(cfg *sim.Config, s Scale) *Result {
	r := &Result{ID: "E10", Title: "Shared remote buffer pool"}
	layout := oltpLayout()
	txns := pick(s, 200, 1500)

	sv := serverless.New(cfg, layout, 2, 32, 2048)
	au := aurora.New(cfg, layout, 2048, 1)
	g := workload.DefaultTPCC()
	gen := g.NewGenerator(5, 0)
	c := sim.NewClock()
	gen.RunOn(sv, c, txns)
	gen2 := g.NewGenerator(5, 0)
	c2 := sim.NewClock()
	gen2.RunOn(au, c2, txns)

	// Secondary freshness: write on primary, read on secondary.
	val := make([]byte, layout.ValSize)
	val[0] = 0xAB
	engine.Run(sv, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(77, val) })
	fresh := false
	sv.ReadReplica(c, 1, func(tx engine.Tx) error {
		v, err := tx.Read(77)
		if err != nil {
			return err
		}
		fresh = v[0] == 0xAB
		return nil
	})
	r.check("secondary reads are fresh without log replay", fresh, "read-after-write on node 1")

	// Failover: serverless promotes into a warm shared pool; aurora's
	// new writer starts cold (recovery itself is fast for both; the
	// difference is the post-failover warm-up).
	measureFailover := func(e engine.Engine, rec engine.Recoverer, c *sim.Clock) (time.Duration, time.Duration) {
		rec.Crash()
		d, err := rec.Recover(c)
		if err != nil {
			panic(err)
		}
		// First 50 transactions after failover (cache warm-up cost).
		before := c.Now()
		gw := g.NewGenerator(9, 1)
		gw.RunOn(e, c, 50)
		return d, c.Now() - before
	}
	svFail, svWarm := measureFailover(sv, sv, c)
	auFail, auWarm := measureFailover(au, au, c2)
	t := r.table("E10: failover and warm-up", "engine", "failover", "first-50-txn time")
	t.Row("polardb-serverless", svFail, svWarm)
	t.Row("aurora (cold writer cache)", auFail, auWarm)
	r.check("serverless warm-up ≪ cold-cache engine", svWarm < auWarm,
		"%v vs %v", svWarm, auWarm)
	retire(au)

	// Resize: adding a compute node is metadata-only.
	before := c.Now()
	sv.AddNode(c, 32)
	r.check("scale-out is metadata-only", c.Now()-before < time.Millisecond,
		"AddNode took %v, no pages moved", c.Now()-before)
	r.traceOp(cfg, "txn.write-serverless", func(c *sim.Clock) {
		engine.Run(sv, c, engine.RunOpts{}, func(tx engine.Tx) error {
			return tx.Write(78, val)
		})
	})
	retire(sv)
	return r
}

// runE11 runs its cells one after another, not through cells: each builds a
// 512 MB memory-node pool, and two at once would double the peak RSS.
func runE11(cfg *sim.Config, s Scale) *Result {
	r := &Result{ID: "E11", Title: "Index structures on disaggregated memory"}
	clients := []int{1, 2, 4, 8}
	opsPer := pick(s, 300, 2000)
	prefill := pick(s, 2000, 20_000)

	// (a) RACE lock-free hash vs lock-based remote hash.
	t := r.table("E11a: hash index, YCSB-B ops/s vs clients", "clients", "race (lock-free)", "lock-based")
	var raceTput, lockTput []float64
	for _, n := range clients {
		pool := memnode.New(cfg, "m0", 512<<20)
		h, err := race.New(cfg, pool, 4, 256)
		if err != nil {
			panic(err)
		}
		seedCl := h.Attach(1000, nil)
		sc := sim.NewClock()
		for i := uint64(0); i < uint64(prefill); i++ {
			seedCl.Put(sc, i, []byte("seed-value-abcdef"))
		}
		lt := txn.NewRemoteLockTable(0, 1<<16)
		lockNode := memnode.New(cfg, "locks", 1<<20)

		run := func(locked bool) float64 {
			ops, span := runPhase(sc, n, func(id int, c *sim.Clock) int {
				cl := h.Attach(uint64(id+1), nil)
				lqp := lockNode.Connect(nil)
				g := workload.YCSBB(uint64(prefill)).NewGenerator(11, id)
				for i := 0; i < opsPer; i++ {
					op := g.Next()
					if locked {
						if err := lt.Acquire(c, lqp, uint64(id+1), op.Key, txn.DefaultAcquire); err != nil {
							continue
						}
					}
					if op.Read {
						cl.Get(c, op.Key)
					} else {
						cl.Put(c, op.Key, []byte("updated-value-xyz"))
					}
					if locked {
						lt.Unlock(c, lqp, uint64(id+1), op.Key)
					}
				}
				return opsPer
			})
			return float64(ops) / span.Seconds()
		}
		rf := run(false)
		lf := run(true)
		raceTput = append(raceTput, rf)
		lockTput = append(lockTput, lf)
		t.Row(n, rf, lf)
		pool.Close()
		lockNode.Close()
	}
	r.check("race beats lock-based at every client count",
		allGreater(raceTput, lockTput),
		"lock-free saves 2 extra fabric ops per access")
	r.check("race read throughput scales with clients",
		raceTput[len(raceTput)-1] > raceTput[0]*2,
		"%.0f -> %.0f ops/s from 1 to %d clients", raceTput[0], raceTput[len(raceTput)-1], clients[len(clients)-1])

	// (b) Sherman vs naive B+tree.
	t2 := r.table("E11b: B+tree, 50/50 read-write ops/s vs clients", "clients", "sherman", "naive (lock-coupled)")
	var shermanTput, naiveTput []float64
	for _, n := range clients {
		run := func(opt bptree.Options) float64 {
			pool := memnode.New(cfg, "m0", 512<<20)
			defer pool.Close()
			tr, err := bptree.New(cfg, pool, opt)
			if err != nil {
				panic(err)
			}
			seed := tr.Attach(999, nil)
			sc := sim.NewClock()
			for i := uint64(1); i <= uint64(prefill); i++ {
				seed.Put(sc, i, i)
			}
			ops, span := runPhase(sc, n, func(id int, c *sim.Clock) int {
				cl := tr.Attach(uint64(id+1), nil)
				g := sim.NewRand(13, id)
				for i := 0; i < opsPer; i++ {
					k := uint64(g.Int63n(int64(prefill))) + 1
					if g.Intn(2) == 0 {
						cl.Get(c, k)
					} else {
						cl.Put(c, k, k)
					}
				}
				return opsPer
			})
			return float64(ops) / span.Seconds()
		}
		sh := run(bptree.Sherman())
		na := run(bptree.Naive())
		shermanTput = append(shermanTput, sh)
		naiveTput = append(naiveTput, na)
		t2.Row(n, sh, na)
	}
	r.check("sherman beats the lock-coupled baseline",
		allGreater(shermanTput, naiveTput), "optimistic reads + doorbell batching + cheap locks")

	// (c) dLSM: write throughput, remote vs client compaction, sharding.
	t3 := r.table("E11c: LSM writes", "variant", "put ops/s")
	lsmPuts := opsPer * 32
	runLSM := func(shards int, remote bool) float64 {
		pool := memnode.New(cfg, "m0", 512<<20)
		defer pool.Close()
		tr := lsm.New(cfg, pool, lsm.Options{Shards: shards, MemtableEntries: 128, CompactAt: 3, RemoteCompaction: remote})
		// One writer: the comparison isolates flush/compaction path
		// costs from goroutine scheduling noise.
		res := sim.RunGroup(1, func(id int, c *sim.Clock) int {
			cl := tr.Attach(nil)
			for i := 0; i < lsmPuts; i++ {
				cl.Put(c, uint64(i)*2654435761%1_000_000_007, uint64(i))
			}
			return lsmPuts
		})
		if tr.Compactions() == 0 {
			panic("E11: no compactions triggered")
		}
		return res.Throughput()
	}
	dlsm := runLSM(4, true)
	clientComp := runLSM(4, false)
	oneShard := runLSM(1, true)
	t3.Row("dLSM (4 shards, remote compaction)", dlsm)
	t3.Row("client-driven compaction", clientComp)
	t3.Row("single shard", oneShard)
	r.check("remote compaction beats client-driven", dlsm > clientComp,
		"%.0f vs %.0f ops/s", dlsm, clientComp)
	r.check("sharding helps concurrent writers", dlsm > oneShard,
		"%.0f vs %.0f ops/s", dlsm, oneShard)

	// (d) LSM writes vs B+tree writes (write-optimized claim).
	bt := func() float64 {
		pool := memnode.New(cfg, "m0", 512<<20)
		defer pool.Close()
		tr, _ := bptree.New(cfg, pool, bptree.Sherman())
		res := sim.RunGroup(1, func(id int, c *sim.Clock) int {
			cl := tr.Attach(uint64(id+1), nil)
			for i := 0; i < lsmPuts; i++ {
				cl.Put(c, uint64(i)*2654435761%1_000_000_007+1, uint64(i))
			}
			return lsmPuts
		})
		return res.Throughput()
	}()
	r.check("LSM sustains higher write throughput than the B+tree", dlsm > bt,
		"dLSM %.0f vs sherman %.0f puts/s", dlsm, bt)
	r.traceOp(cfg, "index.put-sherman", func(c *sim.Clock) {
		pool := memnode.New(cfg, "trace0", 1<<26)
		defer pool.Close()
		tr, err := bptree.New(cfg, pool, bptree.Sherman())
		if err != nil {
			panic(err)
		}
		tr.Attach(1, nil).Put(c, 42, 42)
	})
	return r
}

func allGreater(a, b []float64) bool {
	for i := range a {
		if a[i] <= b[i] {
			return false
		}
	}
	return true
}

// runE12 runs its cells one after another, not through cells: each builds a
// 1 GB memory-node pool, and two at once would double the peak RSS.
func runE12(cfg *sim.Config, s Scale) *Result {
	r := &Result{ID: "E12", Title: "TPC-H under memory disaggregation"}
	rows := pick(s, 40_000, 400_000)
	d := workload.TPCH{ScaleRows: rows, Clustered: false, Seed: 5}.Generate()
	totalBlocks := d.Lineitem.NumBlocks() * len(d.Lineitem.Schema.Cols)

	// (a) Local-memory fraction sweep for a scan-heavy query (Q1):
	// application-managed caching keeps hot blocks local; OS-paged
	// caching (tiny effective cache) pays the fabric every time.
	t := r.table("E12a: Q1 runtime vs compute-local memory fraction",
		"local fraction", "app-managed", "OS-paged")
	var appTimes []time.Duration
	fracs := []float64{1.0, 0.5, 0.25, 0.125}
	for _, f := range fracs {
		cacheBlocks := int(f * float64(totalBlocks))
		runQ1 := func(cache int) time.Duration {
			pool := memnode.New(cfg, "m0", 1<<30)
			defer pool.Close()
			src, err := query.NewRemoteSource(cfg, pool, d.Lineitem, nil, cache)
			if err != nil {
				panic(err)
			}
			// Warm pass (populate cache), then measured pass.
			op, _ := workload.Q1(cfg, src, 2556)
			query.Collect(sim.NewClock(), op)
			op2, _ := workload.Q1(cfg, src, 2556)
			c := sim.NewClock()
			query.Collect(c, op2)
			return c.Now()
		}
		app := runQ1(cacheBlocks)
		osPaged := runQ1(cacheBlocks / 8) // the OS keeps most of the "cache" remote
		appTimes = append(appTimes, app)
		t.Row(fmt.Sprintf("%.3f", f), app, osPaged)
		if app > osPaged {
			r.check("app-managed beats OS-paged", false, "at fraction %.3f: %v vs %v", f, app, osPaged)
		}
	}
	r.check("penalty grows as memory moves remote",
		appTimes[len(appTimes)-1] > appTimes[0],
		"Q1: %v at 100%% local -> %v at 12.5%% local", appTimes[0], appTimes[len(appTimes)-1])

	// (b) Spill behavior for a memory-hungry join (Q3): the remote
	// memory pool rescues queries that would spill to SSD.
	li := query.NewLocalSource(cfg, d.Lineitem)
	ord := query.NewLocalSource(cfg, d.Orders)
	runQ3 := func(target query.SpillTarget, budget int) (time.Duration, int64) {
		b := query.NewMemoryBudget(cfg, budget, target)
		op, err := workload.Q3(cfg, li, ord, 2000, b)
		if err != nil {
			panic(err)
		}
		c := sim.NewClock()
		if _, err := query.Collect(c, op); err != nil {
			panic(err)
		}
		return c.Now(), b.SpilledBytes
	}
	budget := rows / 4 * 4 // bytes; forces a large spill fraction
	tNone, _ := runQ3(query.SpillNone, 0)
	tRemote, spillR := runQ3(query.SpillRemote, budget)
	tSSD, spillS := runQ3(query.SpillSSD, budget)
	t2 := r.table("E12b: Q3 join under memory pressure", "memory", "runtime", "spilled")
	t2.Row("unlimited local", tNone, metrics.FormatBytes(0))
	t2.Row("budget + remote-memory pool", tRemote, metrics.FormatBytes(spillR))
	t2.Row("budget + SSD spill", tSSD, metrics.FormatBytes(spillS))
	r.check("remote memory pool prevents the SSD spill penalty",
		tRemote < tSSD && tNone < tRemote,
		"none %v < remote %v < ssd %v", tNone, tRemote, tSSD)
	r.traceOp(cfg, "olap.q1-local", func(c *sim.Clock) {
		op, err := workload.Q1(cfg, li, 2556)
		if err != nil {
			panic(err)
		}
		if _, err := query.Collect(c, op); err != nil {
			panic(err)
		}
	})
	return r
}
