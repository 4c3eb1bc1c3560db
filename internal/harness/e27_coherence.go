package harness

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/disagglab/disagg/internal/buffer/coherence"
	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/aurora"
	"github.com/disagglab/disagg/internal/engine/legobase"
	"github.com/disagglab/disagg/internal/engine/serverless"
	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/sim"
)

func init() {
	register(Experiment{
		ID:      "E27",
		Aliases: []string{"E-coherence"},
		Title:   "Page-cache coherence: invalidation traffic vs hit ratio",
		Claim:   `§2.1/§3.1: multi-node disaggregated engines keep compute-local caches coherent either by eager invalidation fan-out at the durability point (Aurora-style reader invalidation) or by lazy version validation against a page directory (PolarDB Serverless-style LSN checks). Either way coherence is paid for out of the cache hit ratio: as the write fraction rises, invalidation (or stale-validation) traffic rises and locality falls — while acknowledged commits stay readable at every tier (no stale reads).`,
		Run:     runE27,
	})
}

// E27 workload shape: one mixed writer plus three readers over a small set
// of keys spread across distinct pages, so every cache tier holds every hot
// page and each commit's coherence traffic is observable per page.
const (
	e27Keys      = 8
	e27KeyBase   = 1 << 21
	e27KeyStride = 64 // distinct page per key (64 values fit one 4 KiB page)
	e27Readers   = 3
	e27Seed      = 20260808
)

// e27Engine is one engine under test: build returns a fresh engine, site
// names its coherence directory in the registry, replicaIDs are the
// RunOpts.Replica values that address its replica read paths (empty when
// reads go to the primary only), and hitRatio reports cache locality.
type e27Engine struct {
	name       string
	site       string
	replicaIDs []int
	build      func(cfg *sim.Config) engine.Engine
	hitRatio   func(e engine.Engine) float64
}

func statsHitRatio(e engine.Engine) float64 {
	h, m := e.Stats().CacheHits.Load(), e.Stats().CacheMisses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

func e27Engines() []e27Engine {
	layout := oltpLayout()
	return []e27Engine{
		{
			name: "aurora (invalidate)", site: "aurora.coherence",
			replicaIDs: []int{1, 2},
			build: func(cfg *sim.Config) engine.Engine {
				return aurora.New(cfg, layout, 256, 2)
			},
			hitRatio: statsHitRatio,
		},
		{
			name: "aurora (bump)", site: "aurora.coherence",
			replicaIDs: []int{1, 2},
			build: func(cfg *sim.Config) engine.Engine {
				e := aurora.New(cfg, layout, 256, 2)
				e.Dir().SetMode(coherence.ModeBump)
				return e
			},
			hitRatio: statsHitRatio,
		},
		{
			name: "serverless", site: "serverless.coherence",
			// Nodes 1 and 2 are the secondaries (node 0 is the primary).
			replicaIDs: []int{2, 3},
			build: func(cfg *sim.Config) engine.Engine {
				return serverless.New(cfg, layout, 3, 16, 512)
			},
			hitRatio: statsHitRatio,
		},
		{
			name: "legobase", site: "legobase.coherence",
			build: func(cfg *sim.Config) engine.Engine {
				return legobase.New(cfg, layout, 16, 512)
			},
			hitRatio: func(e engine.Engine) float64 {
				return e.(*legobase.Engine).Tiers.CombinedHitRatio()
			},
		},
	}
}

// e27CellResult is one (engine, write fraction) measurement.
type e27CellResult struct {
	coh        sim.CoherenceStats
	hitRatio   float64
	commits    int64
	staleReads int64 // reads that decoded below the acked floor
}

func e27Val(layout heap.Layout, seq uint64) []byte {
	v := make([]byte, layout.ValSize)
	for b := 0; b < 8; b++ {
		v[b] = byte(seq >> (8 * b))
	}
	return v
}

func e27Seq(v []byte) uint64 {
	var s uint64
	for b := 0; b < 8 && b < len(v); b++ {
		s |= uint64(v[b]) << (8 * b)
	}
	return s
}

// e27Cell measures one (engine, write fraction) cell with a DETERMINISTIC
// interleaving: each step mixes one writer op (a write with probability
// writeFrac%) with one read per reader through the engine's replica read
// paths. The lockstep matters — it guarantees reader caches refetch between
// writes, so invalidation (and stale-validation) traffic genuinely tracks
// the write rate instead of racing the goroutine scheduler. Concurrency is
// exercised separately: by e27BatchedCell here (round coalescing needs
// concurrent committers) and by the enginetest conformance drill (stale reads
// under real interleavings and faults).
func e27Cell(base *sim.Config, eng e27Engine, writeFrac, ops int) e27CellResult {
	layout := oltpLayout()
	cfg := e27CellConfig(base)
	defer base.Stats.Fold(cfg.Stats)
	e := eng.build(cfg)
	defer retire(e)
	var commits, staleReads int64
	var issued, acked [e27Keys]uint64
	key := func(i int) uint64 { return uint64(e27KeyBase + i*e27KeyStride) }
	c := sim.NewClock()
	rng := sim.NewRand(e27Seed, writeFrac)
	for op := 0; op < ops; op++ {
		if i := rng.Intn(e27Keys); rng.Intn(100) < writeFrac {
			issued[i]++
			seq := issued[i]
			err := engine.Run(e, c, engine.RunOpts{Retries: 5}, func(tx engine.Tx) error {
				return tx.Write(key(i), e27Val(layout, seq))
			})
			if err == nil {
				acked[i] = seq
				commits++
			}
		}
		for rd := 0; rd < e27Readers; rd++ {
			j := rng.Intn(e27Keys)
			opts := engine.RunOpts{Retries: 5}
			if n := len(eng.replicaIDs); n > 0 {
				opts.Replica = eng.replicaIDs[rd%n]
			}
			floor := acked[j]
			var got []byte
			err := engine.Run(e, c, opts, func(tx engine.Tx) error {
				v, rerr := tx.Read(key(j))
				if rerr != nil {
					return rerr
				}
				got = v
				return nil
			})
			if err != nil {
				continue
			}
			if e27Seq(got) < floor {
				staleReads++
			}
		}
	}
	return e27CellResult{
		coh:        sim.Snapshot[sim.CoherenceStats](cfg.Stats, eng.site),
		hitRatio:   eng.hitRatio(e),
		commits:    commits,
		staleReads: staleReads,
	}
}

// e27BatchedCell exercises the group-commit piggyback: concurrent writers
// on disjoint key partitions commit into the same flush window, so their
// publications coalesce into shared coherence rounds, while concurrent
// readers hold the engine to each key's acked floor.
func e27BatchedCell(base *sim.Config, eng e27Engine, ops, writers int) e27CellResult {
	layout := oltpLayout()
	cfg := e27CellConfig(base)
	defer base.Stats.Fold(cfg.Stats)
	e := eng.build(cfg)
	defer retire(e)
	engine.Caps(e).GroupCommitter.EnableGroupCommit(8, 50*time.Microsecond)
	acked := make([]atomic.Uint64, e27Keys)
	var commits, staleReads atomic.Int64
	key := func(i int) uint64 { return uint64(e27KeyBase + i*e27KeyStride) }
	sim.RunGroup(writers+e27Readers, func(id int, c *sim.Clock) int {
		rng := sim.NewRand(e27Seed, id)
		done := 0
		var issued [e27Keys]uint64
		for op := 0; op < ops; op++ {
			i := rng.Intn(e27Keys)
			if id < writers {
				// Remap onto this writer's key partition so every key
				// keeps a single writer and a monotone sequence.
				i = id + writers*(i/writers)
				issued[i]++
				seq := issued[i]
				err := engine.Run(e, c, engine.RunOpts{Retries: 5}, func(tx engine.Tx) error {
					return tx.Write(key(i), e27Val(layout, seq))
				})
				if err == nil {
					acked[i].Store(seq)
					commits.Add(1)
					done++
				}
				continue
			}
			opts := engine.RunOpts{Retries: 5}
			if n := len(eng.replicaIDs); n > 0 {
				opts.Replica = eng.replicaIDs[op%n]
			}
			floor := acked[i].Load()
			var got []byte
			err := engine.Run(e, c, opts, func(tx engine.Tx) error {
				v, rerr := tx.Read(key(i))
				if rerr != nil {
					return rerr
				}
				got = v
				return nil
			})
			if err != nil {
				continue
			}
			if e27Seq(got) < floor {
				staleReads.Add(1)
			}
			done++
		}
		return done
	})
	return e27CellResult{
		coh:        sim.Snapshot[sim.CoherenceStats](cfg.Stats, eng.site),
		hitRatio:   eng.hitRatio(e),
		commits:    commits.Load(),
		staleReads: staleReads.Load(),
	}
}

// e27CellConfig is the experiment's config with a registry of the cell's
// own: a cell reads its coherence counters back through sim.Snapshot,
// which returns the first source registered under a site, so they must be
// the only ones in its registry. The cell folds it into base.Stats once it
// has read them.
func e27CellConfig(base *sim.Config) *sim.Config {
	cfg := base.Clone()
	cfg.Stats = sim.NewRegistry()
	return cfg
}

// runE27 runs its cells one after another, not through cells, which gives a
// cell a registry of its own only when cfg.Stats is set; an E27 cell needs
// one either way (e27CellConfig).
func runE27(cfg *sim.Config, s Scale) *Result {
	r := &Result{ID: "E27", Title: "Page-cache coherence sweep"}
	writeFracs := []int{10, 40, 70}
	ops := pick(s, 96, 384)

	results := make(map[string]map[int]e27CellResult)
	var totalStale, totalCommits int64
	for _, eng := range e27Engines() {
		eng := eng
		t := r.table(fmt.Sprintf("E27: %s — coherence traffic vs write fraction (%d readers)", eng.name, e27Readers),
			"write %", "publishes", "rounds", "invalidations", "bumps", "stale validations", "hit ratio", "stale reads")
		results[eng.name] = make(map[int]e27CellResult)
		for _, wf := range writeFracs {
			res := e27Cell(cfg, eng, wf, ops)
			results[eng.name][wf] = res
			totalStale += res.staleReads
			totalCommits += res.commits
			t.Row(wf, res.coh.Publishes, res.coh.Rounds, res.coh.Invalidations,
				res.coh.Bumps, res.coh.StaleHits,
				fmt.Sprintf("%.2f", res.hitRatio), res.staleReads)
			if res.commits == 0 {
				r.check(fmt.Sprintf("%s wf=%d acks commits", eng.name, wf), false,
					"0 commits — the cell is vacuous")
			}
		}
	}

	// The safety gate: coherence is only worth measuring if it is correct.
	r.check("no stale read in any cell (acked floor held at every tier)",
		totalStale == 0, "%d stale read(s) across %d commits", totalStale, totalCommits)

	// Eager invalidation traffic must track the write rate.
	inv := results["aurora (invalidate)"]
	r.check("aurora invalidations rise with write fraction",
		inv[70].coh.Invalidations > inv[10].coh.Invalidations,
		"%d (wf=70) vs %d (wf=10)", inv[70].coh.Invalidations, inv[10].coh.Invalidations)
	r.check("aurora hit ratio falls as writes rise (coherence is paid from locality)",
		inv[10].hitRatio > inv[70].hitRatio,
		"%.2f (wf=10) vs %.2f (wf=70)", inv[10].hitRatio, inv[70].hitRatio)

	// Bump mode sends no invalidation messages; staleness is caught lazily
	// at validation time instead.
	var bumpInv, bumpStale int64
	for _, wf := range writeFracs {
		bumpInv += results["aurora (bump)"][wf].coh.Invalidations
		bumpStale += results["aurora (bump)"][wf].coh.StaleHits
	}
	r.check("bump mode: zero invalidation messages, staleness caught at validation",
		bumpInv == 0 && bumpStale > 0, "invalidations=%d staleValidations=%d", bumpInv, bumpStale)

	// Group commit piggyback: coherence rounds ride the shared flush, so
	// concurrent publishes coalesce into fewer fan-out rounds. Coalescing
	// needs concurrency — four writers on disjoint key partitions commit
	// into the same flush window.
	au := e27Engines()[0]
	batched := e27BatchedCell(cfg, au, ops, 4)
	r.check("group commit coalesces coherence rounds (rounds < publishes)",
		batched.coh.Rounds < batched.coh.Publishes && batched.staleReads == 0,
		"%d rounds for %d publishes (stale reads %d)",
		batched.coh.Rounds, batched.coh.Publishes, batched.staleReads)

	r.note("invalidations are charged one RDMA-RPC burst per round at site <engine>.coherence.round; bump-mode staleness costs a refetch instead")
	r.traceOp(cfg, "txn.write-coherent", func(c *sim.Clock) {
		e := au.build(cfg)
		engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
			return tx.Write(1, make([]byte, oltpLayout().ValSize))
		})
	})
	return r
}
