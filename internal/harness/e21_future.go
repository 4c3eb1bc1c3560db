package harness

import (
	"fmt"
	"time"

	"github.com/disagglab/disagg/internal/autoscale"
	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/serverless"
	"github.com/disagglab/disagg/internal/flexchain"
	"github.com/disagglab/disagg/internal/memnode"
	"github.com/disagglab/disagg/internal/query"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E21",
		Title: "Automatic resource provisioning (future direction)",
		Claim: `§4: "it is critical to investigate automatic resource provisioning to decide the right amount of resources … Recent advances in machine learning techniques can be leveraged."`,
		Run:   runE21,
	})
	register(Experiment{
		ID:    "E22",
		Title: "HTAP on the evaluation platform (future direction)",
		Claim: `§4: the platform should span "different workloads (e.g., OLTP, OLAP, and HTAP)" — here an OLTP stream and analytical scans share one disaggregated engine.`,
		Run:   runE22,
	})
	register(Experiment{
		ID:    "E23",
		Title: "FlexChain: blockchain world state on disaggregated memory",
		Claim: `§3.1: FlexChain separates the world state with a tiered KV store on disaggregated memory; "to optimize the validation phase … that becomes the new bottleneck", it "adopts a dependency-graph-based approach that parallelizes validations".`,
		Run:   runE23,
	})
}

func runE21(cfg *sim.Config, s Scale) *Result {
	r := &Result{ID: "E21", Title: "Autoscaling policies"}
	steps := pick(s, 30, 120)
	perNode := 250.0
	demands := autoscale.RampTrace(40_000, steps)

	t := r.table("E21: diurnal ramp to 40k txn/s, 250 txn/s per node, 1-interval provisioning lag",
		"policy", "SLO violations", "avg slack (nodes)")
	vioR, overR, err := autoscale.Trace(autoscale.NewReactive(), perNode, demands, time.Second)
	if err != nil {
		panic(err)
	}
	vioP, overP, err := autoscale.Trace(autoscale.NewPredictive(2*time.Second), perNode, demands, time.Second)
	if err != nil {
		panic(err)
	}
	t.Row("reactive threshold", fmt.Sprintf("%.0f%%", 100*vioR), overR)
	t.Row("predictive (least-squares forecast)", fmt.Sprintf("%.0f%%", 100*vioP), overP)
	r.check("the predictor violates the SLO less on ramps", vioP < vioR,
		"%.0f%% vs %.0f%% of intervals underprovisioned", 100*vioP, 100*vioR)
	r.check("prediction is not just overprovisioning", overP < 0.5*40_000/perNode,
		"average slack %.1f nodes", overP)

	// The actuation side: scaling the serverless engine really is a
	// metadata operation, so acting on a decision is cheap.
	layout := oltpLayout()
	sv := serverless.New(cfg, layout, 1, 16, 512)
	ac := sim.NewClock()
	for i := 0; i < 7; i++ {
		sv.AddNode(ac, 16)
	}
	r.check("acting on a scale-out decision is cheap on disaggregation",
		ac.Now() < time.Millisecond,
		"8 nodes provisioned in %v of simulated time", ac.Now())
	r.traceOp(cfg, "scaleout.addnode", func(c *sim.Clock) {
		sv.AddNode(c, 16)
	})
	retire(sv)
	return r
}

func runE22(cfg *sim.Config, s Scale) *Result {
	r := &Result{ID: "E22", Title: "HTAP interference"}
	layout := oltpLayout()
	txns := pick(s, 150, 1200)

	// One serverless engine; the OLTP stream runs on the primary while
	// an analytical scan runs against a replica fed by the same shared
	// memory pool — the HTAP configuration memory disaggregation makes
	// natural (§3.1/§4).
	build := func() *serverless.Engine {
		return serverless.New(cfg, layout, 2, 64, 4096)
	}

	runOLTPOnly := func() (float64, time.Duration) {
		e := build()
		res, sum := runOLTP(e, 2, txns/2)
		retire(e)
		return res.Throughput(), sum.P99
	}
	runHTAP := func() (float64, time.Duration, time.Duration) {
		e := build()
		var scanTime time.Duration
		// The analytical reader sweeps the whole keyspace on a secondary
		// (fresh via the shared pool, no log replay), one read-only
		// transaction per page, as one more member of the OLTP clients'
		// group.
		scan := func(c *sim.Clock) {
			w := workload.DefaultTPCC()
			for k := uint64(0); k < w.TotalKeys(); k += uint64(layout.PerPage) {
				key := k
				engine.Run(e, c, engine.RunOpts{Replica: 2}, func(tx engine.Tx) error {
					_, err := tx.Read(key)
					return err
				})
			}
			scanTime = c.Now()
		}
		res, sum := runOLTPBeside(e, 2, txns/2, scan)
		retire(e)
		return res.Throughput(), sum.P99, scanTime
	}
	baseTput, baseP99 := runOLTPOnly()
	htapTput, htapP99, scanTime := runHTAP()

	t := r.table("E22: TPC-C-lite primary + full analytical sweep on a secondary",
		"configuration", "OLTP tput", "OLTP p99", "scan time")
	t.Row("OLTP alone", baseTput, baseP99, "-")
	t.Row("OLTP + analytics (HTAP)", htapTput, htapP99, scanTime)
	drop := 100 * (1 - htapTput/baseTput)
	r.check("analytics do not collapse OLTP throughput", htapTput > baseTput/2,
		"HTAP tput drop %.0f%% (scan shares only the memory pool NIC, not the writer)", drop)
	r.check("the analytical sweep completes", scanTime > 0, "swept in %v", scanTime)

	// Same HTAP question on storage disaggregation with zone maps: the
	// analytical half uses the columnar engine (E5/E12 machinery).
	d := workload.TPCH{ScaleRows: pick(s, 30_000, 300_000), Clustered: true, Seed: 13}.Generate()
	src := query.NewLocalSource(cfg, d.Lineitem)
	q6, _ := workload.Q6(cfg, src, 100, 200, 0, 11, true)
	qc := sim.NewClock()
	query.Collect(qc, q6)
	r.note("columnar Q6 beside the OLTP stream: %v (zone maps keep the scan off the hot pages)", qc.Now())
	r.traceOp(cfg, "olap.q6-htap", func(c *sim.Clock) {
		q, err := workload.Q6(cfg, src, 100, 200, 0, 11, true)
		if err != nil {
			panic(err)
		}
		if _, err := query.Collect(c, q); err != nil {
			panic(err)
		}
	})
	return r
}

func runE23(cfg *sim.Config, s Scale) *Result {
	r := &Result{ID: "E23", Title: "FlexChain validation"}
	blockSize := pick(s, 64, 256)
	blocks := pick(s, 10, 40)

	mkBlock := func(seed int64, conflictFrac float64) []*flexchain.Tx {
		rng := sim.NewRand(seed, 0)
		var out []*flexchain.Tx
		for i := 0; i < blockSize; i++ {
			key := uint64(rng.Int63n(int64(blockSize) * 4))
			if rng.Float64() < conflictFrac {
				key = uint64(rng.Int63n(4)) // hot keys force dependency chains
			}
			out = append(out, &flexchain.Tx{
				ID:     i,
				Reads:  map[uint64]flexchain.Version{key: 0},
				Writes: map[uint64]uint64{key + 100_000: uint64(i)},
			})
		}
		return out
	}
	run := func(parallel bool, conflictFrac float64) (time.Duration, int) {
		pool := memnode.New(cfg, "world-state", 64<<20)
		st := flexchain.NewState(cfg, pool, 16)
		v := flexchain.NewValidator(cfg, st, 8)
		c := sim.NewClock()
		valid := 0
		for b := 0; b < blocks; b++ {
			ids, err := v.CommitBlock(c, mkBlock(int64(b), conflictFrac), parallel)
			if err != nil {
				panic(err)
			}
			valid += len(ids)
		}
		return c.Now(), valid
	}
	serialT, serialValid := run(false, 0)
	parT, parValid := run(true, 0)
	conflictLevels := flexchain.Levels(mkBlock(1, 0.9))
	t := r.table("E23: committing "+fmt.Sprint(blocks)+" blocks of "+fmt.Sprint(blockSize)+" txns",
		"validation", "time", "txns committed")
	t.Row("serial (classic XOV)", serialT, serialValid)
	t.Row("dependency-graph parallel", parT, parValid)
	r.check("parallel validation beats serial", parT < serialT,
		"%v vs %v (%.1fx)", parT, serialT, ratio(serialT, parT))
	r.check("results agree", serialValid == parValid, "%d vs %d txns", serialValid, parValid)
	r.check("hot-key blocks form dependency chains", conflictLevels > 3,
		"90%%-conflict block layers into %d levels (independent blocks: 1)", conflictLevels)
	r.traceOp(cfg, "chain.commitblock", func(c *sim.Clock) {
		pool := memnode.New(cfg, "world-trace", 64<<20)
		v := flexchain.NewValidator(cfg, flexchain.NewState(cfg, pool, 16), 8)
		if _, err := v.CommitBlock(c, mkBlock(99, 0), true); err != nil {
			panic(err)
		}
	})
	return r
}
