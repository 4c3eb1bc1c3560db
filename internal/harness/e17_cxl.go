package harness

import (
	"fmt"
	"time"

	"github.com/disagglab/disagg/internal/cxl"
	"github.com/disagglab/disagg/internal/memnode"
	"github.com/disagglab/disagg/internal/pond"
	"github.com/disagglab/disagg/internal/query"
	"github.com/disagglab/disagg/internal/rdma"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/txn"
	"github.com/disagglab/disagg/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E17",
		Title: "CXL memory tiering in an in-memory DBMS (SAP HANA study)",
		Claim: `§3.3 (Ahn et al.): with DB-managed tiering (local delta, CXL main store), "there is virtually no performance drop on TPC-C due to prefetching, but there is 7% to 27% performance drop on TPC-DS".`,
		Run:   runE17,
	})
	register(Experiment{
		ID:    "E18",
		Title: "DirectCXL: CXL vs RDMA disaggregated memory",
		Claim: `§3.3: "Compared to RDMA, it improves the raw latency by 6.2x and the performance of real applications by 3x".`,
		Run:   runE18,
	})
	register(Experiment{
		ID:    "E19",
		Title: "Pond: CXL pooling with ML placement",
		Claim: `§3.3: "pooling memory across a small number of sockets suffices to improve memory utilization" and models "predict how to allocate local and remote memory to VMs to minimize performance disruption".`,
		Run:   runE19,
	})
	register(Experiment{
		ID:    "E20",
		Title: "Multi-writer scalability on shared disaggregated memory",
		Claim: `§4: "Existing cloud databases usually have a single compute node that processes write workloads … It is interesting to support multiple writers, which would be more feasible with memory disaggregation".`,
		Run:   runE20,
	})
}

func runE17(cfg *sim.Config, s Scale) *Result {
	r := &Result{ID: "E17", Title: "CXL tiering"}

	// OLTP: TPC-C-lite transactions. Each transaction is dominated by
	// transaction logic (parsing, locking, logging ~ tens of µs); row
	// accesses ride the prefetcher on sequential rows.
	txns := pick(s, 2000, 20_000)
	rowSize := 256
	nRows := 100_000
	runOLTPTier := func(onCXL bool) time.Duration {
		space := cxl.NewTieredSpace(cfg, nRows*rowSize+1024, nRows*rowSize+1024)
		defer space.Close()
		tier := cxl.TierLocal
		if onCXL {
			tier = cxl.TierCXL
		}
		region, ok := space.Alloc(tier, nRows*rowSize)
		if !ok || region.Tier != tier {
			panic("E17: alloc failed")
		}
		c := sim.NewClock()
		rng := sim.NewRand(31, 0)
		buf := make([]byte, rowSize)
		for i := 0; i < txns; i++ {
			// Transaction logic (parse/plan/lock/log) dominates OLTP.
			c.Advance(60 * time.Microsecond)
			// ~10 row touches; HANA's main-store rows are accessed
			// through prefetch-friendly scans of row groups.
			for j := 0; j < 10; j++ {
				off := uint64(rng.Intn(nRows)) * uint64(rowSize)
				region.Read(c, off, buf, true)
			}
		}
		return c.Now()
	}
	oltpLocal := runOLTPTier(false)
	oltpCXL := runOLTPTier(true)
	oltpDrop := 100 * (float64(oltpCXL)/float64(oltpLocal) - 1)

	// OLAP: scan-heavy analytics (Q1 + Q6 mix) over the main store.
	// HANA's scan kernels are vectorized and close to memory-bandwidth-
	// bound, so the analytic runs use a faster per-core processing rate
	// than the general-purpose default.
	cfgOLAP := cfg.Clone()
	cfgOLAP.CPU.BytesPerSec = 16 * sim.GB
	d := workload.TPCH{ScaleRows: pick(s, 60_000, 600_000), Clustered: true, Seed: 7}.Generate()
	runOLAP := func(onCXL bool) time.Duration {
		var src query.Source
		if onCXL {
			dev := cxl.NewDevice(cfgOLAP, 8*d.Lineitem.NumRows()*8*len(d.Lineitem.Schema.Cols))
			defer dev.Mem().Release()
			cs, err := query.NewCXLSource(cfgOLAP, dev, d.Lineitem)
			if err != nil {
				panic(err)
			}
			src = cs
		} else {
			src = query.NewLocalSource(cfgOLAP, d.Lineitem)
		}
		c := sim.NewClock()
		q1, _ := workload.Q1(cfgOLAP, src, 2556)
		query.Collect(c, q1)
		q6, _ := workload.Q6(cfgOLAP, src, 0, 2556, 0, 11, false)
		query.Collect(c, q6)
		return c.Now()
	}
	olapLocal := runOLAP(false)
	olapCXL := runOLAP(true)
	olapDrop := 100 * (float64(olapCXL)/float64(olapLocal) - 1)

	t := r.table("E17: local DRAM vs DB-managed CXL main store",
		"workload", "all-local", "CXL-tiered", "drop")
	t.Row("TPC-C-lite (OLTP)", oltpLocal, oltpCXL, fmt.Sprintf("%.1f%%", oltpDrop))
	t.Row("TPC-H-lite Q1+Q6 (OLAP)", olapLocal, olapCXL, fmt.Sprintf("%.1f%%", olapDrop))
	r.check("TPC-C: virtually no drop", oltpDrop < 5,
		"%.1f%% (prefetching hides CXL latency behind txn logic)", oltpDrop)
	r.check("analytics drop lands in the 7-27% band", olapDrop >= 7 && olapDrop <= 27,
		"%.1f%%", olapDrop)
	r.traceOp(cfg, "cxl.row-read", func(c *sim.Clock) {
		space := cxl.NewTieredSpace(cfg, 1<<20, 1<<20)
		defer space.Close()
		region, ok := space.Alloc(cxl.TierCXL, 4096)
		if !ok {
			panic("E17: trace alloc failed")
		}
		region.Read(c, 0, make([]byte, 256), true)
	})
	return r
}

func runE18(cfg *sim.Config, s Scale) *Result {
	r := &Result{ID: "E18", Title: "CXL vs RDMA"}
	// Raw 64B load latency.
	dev := cxl.NewDevice(cfg, 1<<20)
	node := rdma.NewNode(cfg, "swap0", 1<<20)
	qp := rdma.Connect(cfg, node, nil)
	buf := make([]byte, 64)
	cc := sim.NewClock()
	dev.Load(cc, 0, buf)
	rc := sim.NewClock()
	qp.Read(rc, 0, buf)
	dc := sim.NewClock()
	dc.Advance(cfg.DRAM.Cost(64))
	rawRatio := ratio(rc.Now(), cc.Now())

	t := r.table("E18a: raw 64B load", "medium", "latency", "vs DRAM")
	t.Row("local DRAM", dc.Now(), 1.0)
	t.Row("CXL.mem", cc.Now(), ratio(cc.Now(), dc.Now()))
	t.Row("RDMA (swap-style remote memory)", rc.Now(), ratio(rc.Now(), dc.Now()))
	r.check("CXL ~6x lower latency than RDMA", rawRatio > 4 && rawRatio < 9,
		"%.1fx (DirectCXL reports 6.2x)", rawRatio)

	// Application level: pointer-heavy workload (graph-ish chase).
	hops := pick(s, 20_000, 200_000)
	runApp := func(remote func(c *sim.Clock)) time.Duration {
		c := sim.NewClock()
		for i := 0; i < hops; i++ {
			remote(c)
			c.Advance(cfg.CPU.Cost(64)) // per-hop compute
		}
		return c.Now()
	}
	appCXL := runApp(func(c *sim.Clock) { dev.Load(c, 0, buf) })
	appRDMA := runApp(func(c *sim.Clock) { qp.Read(c, 0, buf) })
	appRatio := ratio(appRDMA, appCXL)
	t2 := r.table("E18b: pointer-chase application", "memory", "runtime")
	t2.Row("CXL", appCXL)
	t2.Row("RDMA", appRDMA)
	r.check("application speedup ~3x", appRatio > 2 && appRatio < 7,
		"%.1fx (DirectCXL reports ~3x; compute dilutes the raw gap)", appRatio)
	r.traceOp(cfg, "hop.rdma+cxl", func(c *sim.Clock) {
		qp.Read(c, 0, buf)
		dev.Load(c, 0, buf)
		c.Advance(cfg.CPU.Cost(64))
	})
	return r
}

func runE19(cfg *sim.Config, s Scale) *Result {
	r := &Result{ID: "E19", Title: "CXL pooling"}
	vms := pond.GenerateVMs(17, pick(s, 200, 1000))

	run := func(cxlGB int, pred pond.Predictor) (placed int, util, maxSlow float64) {
		p := pond.NewPool(cfg, 4, 512, cxlGB)
		for _, vm := range vms {
			p.Place(vm, pred)
		}
		return p.PlacedGB(), p.DRAMUtilization(), p.MaxSlowdown()
	}
	noPool, utilNo, _ := run(0, pond.StaticPredictor{Frac: 0})
	pooledStatic, utilStatic, slowStatic := run(1024, pond.StaticPredictor{Frac: 0.5})
	pooledModel, utilModel, slowModel := run(1024, pond.DefaultModel())

	t := r.table("E19: packing VMs onto 4x512GB sockets (+1TB CXL pool)",
		"policy", "VM GB placed", "DRAM util", "max slowdown")
	t.Row("no pooling", noPool, utilNo, fmt.Sprintf("%.0f%%", 0.0))
	t.Row("pool, static 50%", pooledStatic, utilStatic, fmt.Sprintf("%.0f%%", 100*slowStatic))
	t.Row("pool, Pond model", pooledModel, utilModel, fmt.Sprintf("%.0f%%", 100*slowModel))
	r.check("pooling admits more VM memory", pooledModel > noPool,
		"%d vs %d GB placed", pooledModel, noPool)
	r.check("the model bounds disruption vs static pooling", slowModel < slowStatic,
		"max slowdown %.0f%% vs %.0f%%", 100*slowModel, 100*slowStatic)
	r.traceOp(cfg, "cxl.load64", func(c *sim.Clock) {
		dev := cxl.NewDevice(cfg, 1<<20)
		dev.Load(c, 0, make([]byte, 64))
	})
	return r
}

func runE20(cfg *sim.Config, s Scale) *Result {
	r := &Result{ID: "E20", Title: "Multi-writer scalability"}
	txnsPer := pick(s, 200, 1500)
	keys := uint64(pick(s, 20_000, 200_000))

	// Shared substrate: a memory pool holding the data and a remote lock
	// table, as a distributed shared-memory database would use (§3.1).
	runWriters := func(writers int, multiWriter bool) float64 {
		pool := memnode.New(cfg, "dsm0", 1<<30)
		defer pool.Close()
		dataBase, err := pool.Alloc(keys * 8)
		if err != nil {
			panic(err)
		}
		lockBase, err := pool.Alloc(1 << 20)
		if err != nil {
			panic(err)
		}
		locks := txn.NewRemoteLockTable(lockBase, 1<<16)
		// The single-writer bottleneck: every transaction funnels
		// through the one writer node's commit pipeline (log append
		// order enforces near-serial commit processing).
		writerNode := sim.NewMeter(2)
		res := sim.RunGroup(writers, func(id int, c *sim.Clock) int {
			qp := pool.Connect(nil)
			rng := sim.NewRand(41, id)
			tx := uint64(id + 1)
			done := 0
			for i := 0; i < txnsPer; i++ {
				k := uint64(rng.Int63n(int64(keys)))
				if multiWriter {
					// Lock via remote CAS, write, unlock.
					if err := locks.Acquire(c, qp, tx, k, txn.DefaultAcquire); err != nil {
						continue
					}
					var val [8]byte
					qp.Write(c, dataBase+k*8, val[:])
					locks.Unlock(c, qp, tx, k)
				} else {
					// Funnel through the single writer node: its
					// commit pipeline (logging + apply ≈ 20µs) is
					// the shared resource.
					writerNode.Charge(c, 20*time.Microsecond)
					var val [8]byte
					qp.Write(c, dataBase+k*8, val[:])
				}
				done++
			}
			return done
		})
		return res.Throughput()
	}
	t := r.table("E20: write throughput vs writer nodes", "writers", "single-writer", "multi-writer (shared memory + RDMA locks)")
	var single, multi []float64
	for _, n := range []int{1, 2, 4, 8, 16} {
		sw := runWriters(n, false)
		mw := runWriters(n, true)
		single = append(single, sw)
		multi = append(multi, mw)
		t.Row(n, sw, mw)
	}
	r.check("single-writer plateaus", single[len(single)-1] < single[0]*3,
		"%.0f -> %.0f txn/s from 1 to 16 writers", single[0], single[len(single)-1])
	r.check("multi-writer scales", multi[len(multi)-1] > multi[0]*4,
		"%.0f -> %.0f txn/s from 1 to 16 writers", multi[0], multi[len(multi)-1])
	r.check("multi-writer wins at scale", multi[len(multi)-1] > single[len(single)-1]*2,
		"%.0f vs %.0f txn/s at 16 writers", multi[len(multi)-1], single[len(single)-1])
	r.traceOp(cfg, "txn.locked-write", func(c *sim.Clock) {
		pool := memnode.New(cfg, "dsm-trace", 1<<20)
		defer pool.Close()
		dataBase, err := pool.Alloc(64)
		if err != nil {
			panic(err)
		}
		lockBase, err := pool.Alloc(1 << 10)
		if err != nil {
			panic(err)
		}
		locks := txn.NewRemoteLockTable(lockBase, 64)
		qp := pool.Connect(nil)
		if err := locks.Acquire(c, qp, 1, 0, txn.DefaultAcquire); err != nil {
			panic(err)
		}
		var val [8]byte
		qp.Write(c, dataBase, val[:])
		locks.Unlock(c, qp, 1, 0)
	})
	return r
}
