package harness

import (
	"time"

	"github.com/disagglab/disagg/internal/device"
	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/pilotdb"
	"github.com/disagglab/disagg/internal/rdma"
	"github.com/disagglab/disagg/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "E6",
		Title: "Remote PM persistence: one-sided write, write+flush read, RPC",
		Claim: `§2.3 (Kalia et al.): a one-sided RDMA write does not guarantee persistence (data may sit in NIC/PCIe buffers); it needs a trailing read — and "the two-sided approach is even faster".`,
		Run:   runE6,
	})
	register(Experiment{
		ID:    "E7",
		Title: "Remote PM over RDMA vs local PM through the legacy I/O stack",
		Claim: `§2.3 (Exadata): "accessing PM remotely via RDMA can be even faster than accessing PM locally due to the heavy-weight software overhead involved".`,
		Run:   runE7,
	})
	register(Experiment{
		ID:    "E8",
		Title: "PilotDB: compute-driven logging and optimistic page reads",
		Claim: `§2.3: PilotDB logs via one-sided RDMA from the compute node and reads pages optimistically, validating by LSN and replaying the PM log locally when stale.`,
		Run:   runE8,
	})
}

func runE6(cfg *sim.Config, s Scale) *Result {
	r := &Result{ID: "E6", Title: "Remote PM persistence paths"}
	node := rdma.NewPMNode(cfg, "pm0", 1<<20)
	t := r.table("E6: latency to persist one record on remote PM",
		"size", "1-sided write (UNSAFE)", "write + flush read", "2-sided RPC persist")
	sizes := []int{64, 256, 1024, 4096}
	ok := true
	okRPC := true
	for _, size := range sizes {
		payload := make([]byte, size)
		unsafeC := sim.NewClock()
		rdma.Connect(cfg, node, nil).Write(unsafeC, 0, payload)
		persisted := node.PendingPersist() == 0
		flushC := sim.NewClock()
		rdma.Connect(cfg, node, nil).WritePersist(flushC, 0, payload)
		rpcC := sim.NewClock()
		rdma.Connect(cfg, node, nil).CallPersist(rpcC, 0, payload)
		t.Row(size, unsafeC.Now(), flushC.Now(), rpcC.Now())
		if persisted {
			ok = false
		}
		if !(rpcC.Now() < flushC.Now()) {
			okRPC = false
		}
	}
	r.check("one-sided write alone is NOT persistent", ok,
		"posted bytes remain pending until flushed")
	r.check("RPC persist beats write+flush-read", okRPC,
		"one round trip + server flush vs two dependent round trips")
	r.traceOp(cfg, "pm.persist256", func(c *sim.Clock) {
		rdma.Connect(cfg, node, nil).WritePersist(c, 0, make([]byte, 256))
	})
	return r
}

func runE7(cfg *sim.Config, s Scale) *Result {
	r := &Result{ID: "E7", Title: "Local vs remote PM access"}
	reads := pick(s, 200, 2000)
	legacy := device.NewPM(cfg, 4, true)
	direct := device.NewPM(cfg, 4, false)
	pmNode := rdma.NewPMNode(cfg, "pm0", 1<<20)
	qp := rdma.Connect(cfg, pmNode, nil)

	run := func(f func(c *sim.Clock)) time.Duration {
		c := sim.NewClock()
		for i := 0; i < reads; i++ {
			f(c)
		}
		return c.Now() / time.Duration(reads)
	}
	buf := make([]byte, 4096)
	lLegacy := run(func(c *sim.Clock) { legacy.Read(c, 4096) })
	lDirect := run(func(c *sim.Clock) { direct.Read(c, 4096) })
	lRemote := run(func(c *sim.Clock) { qp.Read(c, 0, buf) })

	t := r.table("E7: 4KB PM reads", "path", "latency")
	t.Row("local PM, legacy I/O stack (syscall)", lLegacy)
	t.Row("local PM, direct mapped", lDirect)
	t.Row("remote PM via one-sided RDMA", lRemote)
	r.check("remote RDMA beats local legacy stack", lRemote < lLegacy,
		"%v vs %v — the counter-intuitive Exadata result", lRemote, lLegacy)
	r.check("direct mapping is still fastest", lDirect < lRemote,
		"%v vs %v", lDirect, lRemote)
	r.traceOp(cfg, "pm.read4k-remote", func(c *sim.Clock) {
		qp.Read(c, 0, buf)
	})
	return r
}

func runE8(cfg *sim.Config, s Scale) *Result {
	r := &Result{ID: "E8", Title: "PilotDB ablation"}
	layout := oltpLayout()
	// PilotDB (like the other cloud-native engines of §2) runs a single
	// read-write node; the ablation isolates per-transaction path costs.
	workers := 1
	txns := pick(s, 250, 2500)

	type row struct {
		name string
		tput float64
		p50  time.Duration
		rep  int64
	}
	var rows []row
	run := func(name string, opt pilotdb.Options) {
		e := pilotdb.New(cfg, layout, 256, opt)
		res, sum := runOLTP(e, workers, txns)
		rows = append(rows, row{name, res.Throughput(), sum.P50, e.Repairs.Load()})
		retire(e)
	}
	run("pilotdb (1-sided log + optimistic reads)", pilotdb.Pilot())
	run("server-driven logging only", pilotdb.Options{ComputeDrivenLogging: false, OptimisticReads: true})
	run("coordinated reads only", pilotdb.Options{ComputeDrivenLogging: true, OptimisticReads: false})
	run("naive (server log + coordinated reads)", pilotdb.Naive())

	t := r.table("E8: TPC-C-lite on the PM log layer", "variant", "tput(txn/s)", "p50", "repairs")
	for _, rw := range rows {
		t.Row(rw.name, rw.tput, rw.p50, rw.rep)
	}
	r.check("pilotdb beats naive", rows[0].tput > rows[3].tput,
		"%.0f vs %.0f txn/s", rows[0].tput, rows[3].tput)
	r.check("compute-driven logging helps", rows[0].tput > rows[1].tput,
		"%.0f vs %.0f txn/s", rows[0].tput, rows[1].tput)

	// Correctness of the optimistic path under staleness: handled by
	// validation + local replay.
	e := pilotdb.New(cfg, layout, 2, pilotdb.Pilot())
	c := sim.NewClock()
	val := make([]byte, layout.ValSize)
	val[0] = 0x77
	for i := uint64(0); i < 30; i++ {
		engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(i*uint64(layout.PerPage), val) })
	}
	e.Pool().InvalidateAll()
	stale := false
	for i := uint64(0); i < 30; i++ {
		key := i * uint64(layout.PerPage)
		engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
			v, err := tx.Read(key)
			if err != nil {
				return err
			}
			if v[0] != 0x77 {
				stale = true
			}
			return nil
		})
	}
	r.check("optimistic reads never return stale data", !stale && e.Repairs.Load() > 0,
		"%d validations, %d repairs, zero stale results", e.Validations.Load(), e.Repairs.Load())
	r.traceOp(cfg, "txn.write-pilotdb", func(c *sim.Clock) {
		engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
			return tx.Write(7, val)
		})
	})
	retire(e)
	return r
}
