package harness

import (
	"encoding/binary"
	"fmt"
	"time"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/aurora"
	"github.com/disagglab/disagg/internal/engine/polardb"
	"github.com/disagglab/disagg/internal/engine/socrates"
	"github.com/disagglab/disagg/internal/engine/taurus"
	"github.com/disagglab/disagg/internal/memnode"
	"github.com/disagglab/disagg/internal/metrics"
	"github.com/disagglab/disagg/internal/sim"
)

func init() {
	register(Experiment{
		ID:      "E24",
		Aliases: []string{"E-batch"},
		Title:   "Group commit: commit throughput and latency vs batch size",
		Claim:   `§2.1/§3: every disaggregated architecture pays a fabric round trip per durable commit (log shipping, quorum appends, raft replication). Group commit amortizes that per-message cost across concurrent transactions — throughput rises with batch size under load, while at low load the batching window surfaces as a commit-latency knee.`,
		Run:     runE24,
	})
}

// e24Window is the group-commit window for every batched cell: long
// enough that a straggler rider always makes the next flush, short enough
// that the low-load knee is visible against single-commit latency.
const e24Window = 50 * time.Microsecond

// e24Engines are the group-commit-capable engines under test. Builders
// return fresh engines with background page work disabled, so cells
// measure the commit path alone.
func e24Engines() []struct {
	name  string
	build func(cfg *sim.Config) engine.Engine
} {
	layout := oltpLayout()
	return []struct {
		name  string
		build func(cfg *sim.Config) engine.Engine
	}{
		{"aurora", func(cfg *sim.Config) engine.Engine {
			return aurora.New(cfg, layout, 1024, 1)
		}},
		{"socrates", func(cfg *sim.Config) engine.Engine {
			e := socrates.New(cfg, layout, 1024, 2)
			e.SnapshotEvery = 0
			return e
		}},
		{"taurus", func(cfg *sim.Config) engine.Engine {
			e := taurus.New(cfg, layout, 1024, 2)
			e.GossipEvery = 0
			return e
		}},
		{"polardb", func(cfg *sim.Config) engine.Engine {
			e := polardb.New(cfg, layout, 1024)
			e.CheckpointEvery = 0
			return e
		}},
	}
}

// e24Cell drives one (engine, batch size, worker count) cell: disjoint
// single-key write transactions, batch <= 1 meaning group commit stays
// disabled. It reports the group result, the per-commit latency summary,
// and the engine's flush telemetry.
func e24Cell(cfg *sim.Config, build func(*sim.Config) engine.Engine, workers, txns, batch int) (sim.GroupResult, metrics.Summary, *engine.Stats) {
	layout := oltpLayout()
	e := build(cfg)
	defer retire(e)
	if batch > 1 {
		engine.Caps(e).GroupCommitter.EnableGroupCommit(batch, e24Window)
	}
	lat := make(chan time.Duration, workers*txns)
	res := sim.RunGroup(workers, func(id int, c *sim.Clock) int {
		key := uint64(1<<20 + id)
		done := 0
		for i := 0; i < txns; i++ {
			before := c.Now()
			v := make([]byte, layout.ValSize)
			binary.LittleEndian.PutUint64(v, uint64(i+1))
			if err := engine.Run(e, c, engine.RunOpts{Retries: 5}, func(tx engine.Tx) error {
				return tx.Write(key, v)
			}); err == nil {
				done++
				lat <- c.Now() - before
			}
		}
		return done
	})
	close(lat)
	var hist []time.Duration
	for d := range lat {
		hist = append(hist, d)
	}
	return res, metrics.Summarize(hist), e.Stats()
}

// occupancy is commits per grouped flush (0 when no flush grouped).
func occupancy(st *engine.Stats) float64 {
	if f := st.GroupFlushes.Load(); f > 0 {
		return float64(st.GroupCommits.Load()) / float64(f)
	}
	return 0
}

func runE24(cfg *sim.Config, s Scale) *Result {
	r := &Result{ID: "E24", Title: "Group commit batching sweep"}
	batches := pick(s, []int{1, 4, 16, 64}, []int{1, 2, 4, 8, 16, 32, 64})
	workers := 64
	txns := pick(s, 24, 96)

	// High load: 64 writers saturate each engine's durability path, so
	// at batch 1 the shared log/volume/raft meters run oversubscribed.
	// Grouping k commits into one flush cuts the flush rate k-fold:
	// contention collapses and the shared flush cost is amortized.
	thr := make(map[string]map[int]float64)
	for _, eng := range e24Engines() {
		eng := eng
		t := r.table(fmt.Sprintf("E24: %s — %d writers, commit throughput vs batch size", eng.name, workers),
			"batch", "tput (txn/s)", "p50 commit", "p99 commit", "flushes", "occupancy", "size/timeout")
		thr[eng.name] = make(map[int]float64)
		for _, b := range batches {
			res, sum, st := e24Cell(cfg, eng.build, workers, txns, b)
			thr[eng.name][b] = res.Throughput()
			flushes := st.GroupFlushes.Load()
			occ := "-"
			ratio := "-"
			if b > 1 {
				occ = fmt.Sprintf("%.1f", occupancy(st))
				ratio = fmt.Sprintf("%d/%d", st.FlushOnSize.Load(), st.FlushOnTimeout.Load())
			}
			t.Row(b, fmt.Sprintf("%.0f", res.Throughput()), sum.P50, sum.P99,
				flushes, occ, ratio)
			if res.TotalOps != workers*txns {
				r.check(fmt.Sprintf("%s batch=%d commits all transactions", eng.name, b),
					false, "%d/%d committed", res.TotalOps, workers*txns)
			}
		}
	}

	// The CI gate: batching must pay on every engine, and substantially
	// on at least two (the tutorial's fabric-cost argument).
	twofold := 0
	for _, eng := range e24Engines() {
		t1, t16 := thr[eng.name][1], thr[eng.name][16]
		r.check(fmt.Sprintf("%s: batch=16 beats batch=1", eng.name), t16 > t1,
			"%.0f vs %.0f txn/s (%.2fx)", t16, t1, t16/t1)
		if t16 >= 2*t1 {
			twofold++
		}
	}
	r.check("batch=16 at least doubles commit throughput on >=2 engines", twofold >= 2,
		"%d engine(s) at >=2x", twofold)

	// Low load: 4 writers can never fill a 16-slot group, so every flush
	// is released by the window — the commit-latency knee batching buys
	// its throughput with.
	knee := r.table("E24: aurora — 4 writers (underfilled groups): the tail-latency knee",
		"batch", "p50 commit", "p99 commit", "size/timeout flushes")
	au := e24Engines()[0]
	var p50 [2]time.Duration
	for i, b := range []int{1, 16} {
		_, sum, st := e24Cell(cfg, au.build, 4, txns, b)
		ratio := "-"
		if b > 1 {
			ratio = fmt.Sprintf("%d/%d", st.FlushOnSize.Load(), st.FlushOnTimeout.Load())
		}
		knee.Row(b, sum.P50, sum.P99, ratio)
		p50[i] = sum.P50
	}
	r.check("underfilled groups pay the window: low-load p50 rises with batching",
		p50[1] > p50[0], "p50 %v (batch=16) vs %v (batch=1)", p50[1], p50[0])

	// Control-plane coalescing on the memory pool: the same Batcher
	// merges concurrent Alloc RPCs into shared "allocn" round trips.
	pool := memnode.New(cfg, "e24-mem", 1<<20)
	co := memnode.NewCoalescer(pool.Connect(nil), 8, 20*time.Microsecond)
	const allocWorkers, allocsEach = 16, 8
	ares := sim.RunGroup(allocWorkers, func(id int, c *sim.Clock) int {
		done := 0
		for i := 0; i < allocsEach; i++ {
			if _, err := co.Alloc(c, 64); err == nil {
				done++
			}
		}
		return done
	})
	cs := co.Stats()
	mt := r.table("E24: memnode control-plane coalescing (16 workers x 8 allocs)",
		"allocs", "RPC flushes", "mean allocs/RPC")
	mt.Row(cs.Items, cs.Flushes, fmt.Sprintf("%.1f", cs.MeanOccupancy()))
	r.check("every coalesced allocation succeeds",
		ares.TotalOps == allocWorkers*allocsEach && cs.Items == allocWorkers*allocsEach,
		"%d/%d allocs, %d items batched", ares.TotalOps, allocWorkers*allocsEach, cs.Items)
	r.note("batch telemetry comes from engine.Stats (GroupCommits/GroupFlushes/FlushOnSize/FlushOnTimeout) and sim.Registry batcher rows")
	r.traceOp(cfg, "mem.coalesced-alloc", func(c *sim.Clock) {
		if _, err := co.Alloc(c, 64); err != nil {
			panic(err)
		}
	})
	return r
}
