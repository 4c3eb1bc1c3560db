package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/disagglab/disagg/internal/buffer"
	"github.com/disagglab/disagg/internal/buffer/coherence"
	"github.com/disagglab/disagg/internal/checkpoint"
	"github.com/disagglab/disagg/internal/cluster"
	"github.com/disagglab/disagg/internal/device"
	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/aurora"
	"github.com/disagglab/disagg/internal/engine/history"
	"github.com/disagglab/disagg/internal/index/bptree"
	"github.com/disagglab/disagg/internal/index/lsm"
	"github.com/disagglab/disagg/internal/index/race"
	"github.com/disagglab/disagg/internal/memnode"
	"github.com/disagglab/disagg/internal/offload"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/query"
	"github.com/disagglab/disagg/internal/raft"
	"github.com/disagglab/disagg/internal/rdma"
	"github.com/disagglab/disagg/internal/shuffle"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/sim/profile"
	"github.com/disagglab/disagg/internal/storagenode"
	"github.com/disagglab/disagg/internal/txn"
	"github.com/disagglab/disagg/internal/wal"
	"github.com/disagglab/disagg/internal/workload"
)

// A probe times one public operation of one layer in a fixed-count loop on
// one goroutine over a substrate it builds fresh. build does the set-up
// and returns the loop body; per is how many reported operations one call
// of the body performs (rows, for the per-row probes).
type probe struct {
	name   string
	n      int  // body calls per repetition at scale 1
	allocs bool // also report <name>.allocs
	build  func(o options) (body func(i int) error, per int, err error)
}

// probeReps is how many times each probe's loop runs; the median is
// reported, after one warm-up repetition that is thrown away.
const probeReps = 3

// The sinks keep results alive so the compiler cannot drop a probed call;
// they are typed so that storing into them allocates nothing.
var (
	sinkU uint64
	sinkB []byte
	sinkP any // pointers only
)

func updateRecord(l *wal.Log, key uint64, val []byte) wal.Record {
	r := wal.Record{Type: wal.TypeUpdate, TxID: 1, PageID: uint64(probeLayout.PageOf(key)), Key: key, After: val}
	r.LSN = l.Append(r)
	return r
}

var probeLayout = oltpLayout()

// probePages is the page working set of the storage and cache probes.
const probePages = 64

func probeKey(i int) uint64 {
	return uint64(i%probePages) * uint64(probeLayout.PerPage)
}

// pageStore backs the cache probes: a fetcher that hands out a copy of a
// formatted page, as an engine's storage tier would.
func pageStore() buffer.Fetcher {
	img := probeLayout.FormatPage(0).Bytes()
	return func(c *sim.Clock, id page.ID) ([]byte, error) {
		out := make([]byte, len(img))
		copy(out, img)
		return out, nil
	}
}

// probes lists the probes under the workload whose traced pass runs them:
// the one whose end-to-end numbers the probed layer should move (README.md,
// "How the metrics interact"). A probe's number does not depend on the
// workload, so every probe runs in one traced pass and reads 0 in the others.
func probes() map[string][]probe {
	cfg := sim.DefaultConfig
	val := make([]byte, probeLayout.ValSize)
	return map[string][]probe{
		"oltp_commit": {
			{name: "sim.begin_end_off", n: 400_000, build: func(options) (func(int) error, int, error) {
				cf, c := cfg(), sim.NewClock()
				return func(int) error { op := cf.Begin(c, "rdma.read"); c.Advance(time.Microsecond); op.End(64); return nil }, 1, nil
			}},
			{name: "sim.begin_end_on", n: 200_000, build: func(options) (func(int) error, int, error) {
				cf, c := cfg(), sim.NewClock()
				cf.Stats = sim.NewRegistry()
				return func(int) error { op := cf.Begin(c, "rdma.read"); c.Advance(time.Microsecond); op.End(64); return nil }, 1, nil
			}},
			{name: "rdma.read", n: 200_000, build: func(options) (func(int) error, int, error) {
				qp, c, buf := probeQP(), sim.NewClock(), make([]byte, 256)
				return func(i int) error { return qp.Read(c, uint64(i%1024)*256, buf) }, 1, nil
			}},
			{name: "rdma.write", n: 200_000, build: func(options) (func(int) error, int, error) {
				qp, c, buf := probeQP(), sim.NewClock(), make([]byte, 256)
				return func(i int) error { return qp.Write(c, uint64(i%1024)*256, buf) }, 1, nil
			}},
			{name: "rdma.cas", n: 200_000, build: func(options) (func(int) error, int, error) {
				qp, c := probeQP(), sim.NewClock()
				return func(i int) error { _, err := qp.CAS(c, uint64(i%128)*8, 0, 0); return err }, 1, nil
			}},
			{name: "rdma.call", n: 100_000, build: func(options) (func(int) error, int, error) {
				cf := cfg()
				node := rdma.NewNode(cf, "m0", 1<<20)
				node.Handle("noop", func(c *sim.Clock, req []byte) []byte { return req })
				qp, c, req := rdma.Connect(cf, node, nil), sim.NewClock(), make([]byte, 64)
				return func(int) error { _, err := qp.Call(c, "noop", req); return err }, 1, nil
			}},
			{name: "rdma.postn16", n: 50_000, build: func(options) (func(int) error, int, error) {
				qp, c := probeQP(), sim.NewClock()
				verbs := make([]rdma.Verb, 16)
				for j := range verbs {
					verbs[j] = rdma.Verb{Op: rdma.OpWrite, Addr: uint64(j) * 64, Data: make([]byte, 64)}
				}
				return func(int) error { return qp.PostN(c, verbs) }, 1, nil
			}},
			{name: "wal.append", n: 100_000, allocs: true, build: func(options) (func(int) error, int, error) {
				l := wal.NewLog()
				return func(i int) error { sinkU = uint64(updateRecord(l, probeKey(i), val).LSN); return nil }, 1, nil
			}},
			{name: "wal.encode_decode", n: 200_000, build: func(options) (func(int) error, int, error) {
				r := wal.Record{LSN: 7, Type: wal.TypeUpdate, TxID: 1, PageID: 3, Key: 9, After: val}
				buf := make([]byte, 0, r.EncodedSize())
				return func(int) error {
					buf = r.Encode(buf[:0])
					out, _, err := wal.Decode(buf)
					sinkU = uint64(out.LSN)
					return err
				}, 1, nil
			}},
			{name: "storagenode.volume_append", n: 20_000, allocs: true, build: func(options) (func(int) error, int, error) {
				v, l, c := storagenode.NewAuroraVolume(cfg(), probeLayout), wal.NewLog(), sim.NewClock()
				return func(i int) error { return v.AppendLog(c, []wal.Record{updateRecord(l, probeKey(i), val)}) }, 1, nil
			}},
			{name: "storagenode.logstore_append", n: 50_000, build: func(options) (func(int) error, int, error) {
				ls, l, c := storagenode.NewLogStore(cfg(), storagenode.MediumSSD), wal.NewLog(), sim.NewClock()
				return func(i int) error { return ls.Append(c, []wal.Record{updateRecord(l, probeKey(i), val)}) }, 1, nil
			}},
			{name: "storagenode.replica_ingest", n: 50_000, build: func(options) (func(int) error, int, error) {
				r, l, c := storagenode.NewReplica(cfg(), "r0", 0, probeLayout, 1), wal.NewLog(), sim.NewClock()
				return func(i int) error { return r.Ingest(c, []wal.Record{updateRecord(l, probeKey(i), val)}) }, 1, nil
			}},
			{name: "raft.append", n: 50_000, allocs: true, build: func(options) (func(int) error, int, error) {
				g, c := raft.NewGroup(cfg(), 3), sim.NewClock()
				return func(int) error { _, err := g.Append(c, val); return err }, 1, nil
			}},
			{name: "raft.append_batch16", n: 10_000, build: func(options) (func(int) error, int, error) {
				g, c := raft.NewGroup(cfg(), 3), sim.NewClock()
				batch := make([][]byte, 16)
				for j := range batch {
					batch[j] = val
				}
				return func(int) error { _, err := g.AppendBatch(c, batch); return err }, 1, nil
			}},
			{name: "coherence.publish", n: 100_000, allocs: true, build: func(options) (func(int) error, int, error) {
				// Aurora's shape: an invalidating directory, the writer's
				// tier excluded, one reader tier holding every page.
				cf, c := cfg(), sim.NewClock()
				d := coherence.NewDirectory(cf, "probe.coherence", coherence.ModeInvalidate)
				writer := d.Register("writer", buffer.NewPool(cf, probePages, pageStore(), nil))
				reader := d.Register("reader", buffer.NewPool(cf, probePages, pageStore(), nil))
				stamps := make([]coherence.PageStamp, 1)
				return func(i int) error {
					id := page.ID(i % probePages)
					reader.Note(id)
					stamps[0] = coherence.PageStamp{ID: id, Stamp: uint64(i + 1)}
					d.Publish(c, stamps, writer)
					return nil
				}, 1, nil
			}},
			{name: "checkpoint.round", n: 100_000, build: func(options) (func(int) error, int, error) {
				co, c := checkpoint.New(cfg(), "ckpt.probe"), sim.NewClock()
				var durable wal.LSN
				round := checkpoint.Round{
					Durable:  func() wal.LSN { return durable },
					Flush:    func(*sim.Clock, wal.LSN) error { return nil },
					Truncate: func(*sim.Clock, wal.LSN) error { return nil },
				}
				return func(i int) error { durable = wal.LSN(i + 1); return co.Checkpoint(c, round) }, 1, nil
			}},
		},
		"oltp_miss": {
			{name: "device.ssd_read", n: 400_000, build: func(options) (func(int) error, int, error) {
				ssd, c := device.NewSSD(cfg(), 32), sim.NewClock()
				return func(int) error { ssd.Read(c, 8192); return nil }, 1, nil
			}},
			{name: "storagenode.volume_readpage", n: 20_000, allocs: true, build: func(options) (func(int) error, int, error) {
				// The pure read path: every page already materialised, as
				// on the read-only misses that make up most of oltp_miss.
				v, l, c := storagenode.NewAuroraVolume(cfg(), probeLayout), wal.NewLog(), sim.NewClock()
				var last wal.LSN
				for i := 0; i < probePages; i++ {
					rec := updateRecord(l, probeKey(i), val)
					if err := v.AppendLog(c, []wal.Record{rec}); err != nil {
						return nil, 0, err
					}
					last = rec.LSN
				}
				return func(i int) error {
					data, err := v.ReadPage(c, probeLayout.PageOf(probeKey(i)), last)
					sinkB = data
					return err
				}, 1, nil
			}},
			{name: "buffer.pool_hit", n: 50_000, build: func(options) (func(int) error, int, error) {
				p, c := buffer.NewPool(cfg(), probePages, pageStore(), nil), sim.NewClock()
				for id := 0; id < probePages; id++ {
					if _, err := p.Get(c, page.ID(id)); err != nil {
						return nil, 0, err
					}
				}
				return func(i int) error { d, err := p.Get(c, page.ID(i%probePages)); sinkB = d; return err }, 1, nil
			}},
			{name: "buffer.pool_miss", n: 20_000, allocs: true, build: func(options) (func(int) error, int, error) {
				// A cyclic scan over twice the capacity: LRU misses every time.
				p, c := buffer.NewPool(cfg(), probePages, pageStore(), nil), sim.NewClock()
				return func(i int) error { d, err := p.Get(c, page.ID(i%(2*probePages))); sinkB = d; return err }, 1, nil
			}},
			{name: "buffer.twotier_miss", n: 10_000, allocs: true, build: func(options) (func(int) error, int, error) {
				// Local tier of 16 over a remote tier of 64, scanning 256
				// pages: both tiers miss and the page comes from storage.
				cf := cfg()
				node := rdma.NewNode(cf, "mem0", probePages*probeLayout.PageSize)
				rp := buffer.NewRemotePool(cf, node, nil, 0, probePages, probeLayout.PageSize)
				tt, c := buffer.NewTwoTier(cf, 16, rp, pageStore()), sim.NewClock()
				return func(i int) error { d, err := tt.Get(c, page.ID(i%(4*probePages))); sinkB = d; return err }, 1, nil
			}},
			{name: "buffer.remotepool_get", n: 25_000, build: func(options) (func(int) error, int, error) {
				cf, c := cfg(), sim.NewClock()
				node := rdma.NewNode(cf, "mem0", probePages*probeLayout.PageSize)
				rp := buffer.NewRemotePool(cf, node, nil, 0, probePages, probeLayout.PageSize)
				img := probeLayout.FormatPage(0).Bytes()
				for id := 0; id < probePages; id++ {
					if err := rp.Put(c, page.ID(id), img); err != nil {
						return nil, 0, err
					}
				}
				buf := make([]byte, probeLayout.PageSize)
				return func(i int) error {
					ok, err := rp.Get(c, page.ID(i%probePages), buf)
					if err == nil && !ok {
						err = fmt.Errorf("page %d not in the remote pool", i%probePages)
					}
					return err
				}, 1, nil
			}},
			{name: "memnode.alloc_free", n: 400_000, build: func(options) (func(int) error, int, error) {
				p := memnode.New(cfg(), "m0", 16<<20)
				return func(int) error {
					a, err := p.Alloc(4096)
					if err != nil {
						return err
					}
					p.Free(a)
					return nil
				}, 1, nil
			}},
		},
		"oltp_group": {
			{name: "sim.meter_charge", n: 400_000, build: func(options) (func(int) error, int, error) {
				m, c := sim.NewMeter(16), sim.NewClock()
				return func(int) error { m.Charge(c, time.Microsecond); return nil }, 1, nil
			}},
			{name: "sim.batcher_do", n: 5_000, build: func(options) (func(int) error, int, error) {
				// One lonely submitter on oltp_group's policy: every Submit
				// leads a batch, yields for joiners and flushes on timeout.
				b := sim.NewBatcher(nil, "probe", sim.BatchPolicy{MaxItems: 8, Window: 50 * time.Microsecond},
					func(c *sim.Clock, items []int, out []int) error { copy(out, items); return nil })
				c := sim.NewClock()
				return func(i int) error { _, err := b.Submit(c, i); return err }, 1, nil
			}},
			{name: "txn.lock_unlock", n: 400_000, build: func(options) (func(int) error, int, error) {
				lt, c := txn.NewLockTable(), sim.NewClock()
				return func(i int) error {
					k := uint64(i % 512)
					if err := lt.Acquire(c, 1, k, txn.Exclusive, txn.DefaultAcquire); err != nil {
						return err
					}
					lt.Unlock(1, k, txn.Exclusive)
					return nil
				}, 1, nil
			}},
		},
		"suite_quick": {
			{name: "memnode.new_64mb", n: 8, allocs: true, build: func(options) (func(int) error, int, error) {
				cf := cfg()
				return func(int) error { sinkP = memnode.New(cf, "m0", 64<<20); return nil }, 1, nil
			}},
			{name: "cluster.fleet_run", n: 20_000, allocs: true, build: func(options) (func(int) error, int, error) {
				cf := cfg()
				var root *aurora.Engine
				f := cluster.New(cluster.Spec{Name: "probe", New: func(id int) engine.Engine {
					if id == 0 {
						root = aurora.New(cf, probeLayout, 1024, 1)
						return root
					}
					return aurora.Peer(root, id, 1024)
				}}, sim.NewClock(), 2)
				c := sim.NewClock()
				var key uint64
				fn := func(tx engine.Tx) error { return tx.Write(key, val) }
				return func(i int) error { key = uint64(i % 512); return f.Run(c, key, cluster.RunOpts{}, fn) }, 1, nil
			}},
			{name: "history.check_per_op", n: 5, build: func(o options) (func(int) error, int, error) {
				// One recorded single-writer history of 4000 RMWs, checked at
				// the serializable level each call.
				ops := o.scaled(4000, 64)
				e, c, rec := monolithicForProbe(), sim.NewClock(), history.NewRecorder()
				var key uint64
				v := make([]byte, probeLayout.ValSize)
				fn := func(tx engine.Tx) error {
					if _, err := tx.Read(key); err != nil {
						return err
					}
					return tx.Write(key, v)
				}
				for i := 0; i < ops; i++ {
					key = uint64(i % 64)
					fillValue(v, 0, key, uint64(i+1))
					if err := engine.Run(e, c, engine.RunOpts{Record: rec}, fn); err != nil {
						return nil, 0, err
					}
				}
				return func(int) error {
					rep, err := history.Check(rec.Ops(), history.Opts{Level: history.Serializable, SingleWriter: true})
					if err == nil && !rep.Ok() {
						err = fmt.Errorf("history probe: %s", rep.Summary())
					}
					return err
				}, ops, nil
			}},
			{name: "index.race_get", n: 100_000, build: func(o options) (func(int) error, int, error) {
				keys := o.scaled(10_000, 256)
				cf, c := cfg(), sim.NewClock()
				h, err := race.New(cf, memnode.New(cf, "m0", 64<<20), 4, 256)
				if err != nil {
					return nil, 0, err
				}
				cl := h.Attach(1, nil)
				for i := 0; i < keys; i++ {
					if err := cl.Put(c, uint64(i), []byte("benchmark-value!")); err != nil {
						return nil, 0, err
					}
				}
				return func(i int) error {
					_, ok, err := cl.Get(c, uint64(i%keys))
					if err == nil && !ok {
						err = fmt.Errorf("race: key %d missing", i%keys)
					}
					return err
				}, 1, nil
			}},
			{name: "index.bptree_put", n: 50_000, build: func(options) (func(int) error, int, error) {
				cf, c := cfg(), sim.NewClock()
				tr, err := bptree.New(cf, memnode.New(cf, "m0", 64<<20), bptree.Sherman())
				if err != nil {
					return nil, 0, err
				}
				cl, next := tr.Attach(1, nil), uint64(0)
				return func(int) error { next++; return cl.Put(c, next, next) }, 1, nil
			}},
			{name: "index.lsm_put", n: 50_000, build: func(options) (func(int) error, int, error) {
				cf, c := cfg(), sim.NewClock()
				cl, next := lsm.New(cf, memnode.New(cf, "m0", 64<<20), lsm.DefaultOptions()).Attach(nil), uint64(0)
				return func(int) error { next++; return cl.Put(c, next, next) }, 1, nil
			}},
			{name: "query.q1_per_row", n: 10, build: func(o options) (func(int) error, int, error) {
				rows := o.scaled(50_000, 4096)
				cf := cfg()
				src := query.NewLocalSource(cf, workload.TPCH{ScaleRows: rows, Seed: 4}.Generate().Lineitem)
				return func(int) error {
					op, err := workload.Q1(cf, src, 2000)
					if err != nil {
						return err
					}
					out, err := query.Collect(sim.NewClock(), op)
					sinkP = out
					return err
				}, rows, nil
			}},
			{name: "offload.pushdown_per_row", n: 10, build: func(o options) (func(int) error, int, error) {
				rows := o.scaled(100_000, 4096)
				cf := cfg()
				pool := memnode.New(cf, "m0", 16<<20)
				tbl := query.NewTable("a", "b")
				for i := 0; i < rows; i++ {
					if err := tbl.AppendRow(int64(i%100), int64(i)); err != nil {
						return nil, 0, err
					}
				}
				rc, err := offload.Upload(cf, pool, tbl)
				if err != nil {
					return nil, 0, err
				}
				qp := pool.Connect(nil)
				return func(int) error { _, _, err := rc.PushFilterSum(sim.NewClock(), qp, "a", 10, 20, "b"); return err }, rows, nil
			}},
			{name: "shuffle.layer_per_row", n: 20, build: func(o options) (func(int) error, int, error) {
				rows := o.scaled(20_000, 1024)
				cf, c := cfg(), sim.NewClock()
				pool := memnode.New(cf, "shuf", 64<<20)
				qp := pool.Connect(nil)
				batch := make([]uint64, rows)
				for i := range batch {
					batch[i] = uint64(i) * 0x9e3779b97f4a7c15
				}
				const parts = 4
				return func(int) error {
					l := shuffle.NewLayer(cf, pool, parts)
					if err := l.Produce(c, qp, batch); err != nil {
						return err
					}
					got := 0
					for pi := 0; pi < parts; pi++ {
						part, err := l.Consume(c, qp, pi)
						if err != nil {
							return err
						}
						got += len(part)
						l.Release(pi)
					}
					if got != rows {
						return fmt.Errorf("shuffle delivered %d of %d rows", got, rows)
					}
					return nil
				}, rows, nil
			}},
		},
	}
}

func probeQP() *rdma.QP {
	cf := sim.DefaultConfig()
	return rdma.Connect(cf, rdma.NewNode(cf, "m0", 1<<20), nil)
}

func monolithicForProbe() engine.Engine {
	return buildEngine("monolithic", sim.DefaultConfig(), probeLayout, false)
}

// profileOverheadProbe reports RunOpts.Profile on minus off: host ns per
// transaction, on one aurora engine and the same RMW stream.
func profileOverheadProbe(n int) (float64, error) {
	run := func(p *profile.Profiler) (float64, error) {
		e, c := buildEngine("aurora", sim.DefaultConfig(), probeLayout, false), sim.NewClock()
		var key uint64
		val := make([]byte, probeLayout.ValSize)
		fn := func(tx engine.Tx) error {
			if _, err := tx.Read(key); err != nil {
				return err
			}
			return tx.Write(key, val)
		}
		var ns []float64
		for rep := 0; rep <= probeReps; rep++ {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				key = uint64(i % 512)
				if err := engine.Run(e, c, engine.RunOpts{Profile: p}, fn); err != nil {
					return 0, err
				}
			}
			if rep > 0 {
				ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(n))
			}
		}
		return median(ns), nil
	}
	off, err := run(nil)
	if err != nil {
		return 0, err
	}
	on, err := run(profile.NewProfiler("probe", 8))
	if err != nil {
		return 0, err
	}
	return on - off, nil
}

// runProbes runs the probes of the workload and records <name>.host_ns
// (and .allocs).
func runProbes(res *result, o options, workload string, tr *tracer) error {
	for i, p := range probes()[workload] {
		n := o.scaled(p.n, 2)
		sp := tr.begin("probe."+p.name, int64(i+1), "")
		body, per, err := p.build(o)
		if err != nil {
			tr.end(sp, "failed")
			return fmt.Errorf("probe %s: set-up: %w", p.name, err)
		}
		var ns, allocs []float64
		var ms runtime.MemStats
		for rep := 0; rep <= probeReps; rep++ {
			runtime.ReadMemStats(&ms)
			m0, t0 := ms.Mallocs, time.Now()
			for j := 0; j < n; j++ {
				if err := body(rep*n + j); err != nil {
					tr.end(sp, "failed")
					return fmt.Errorf("probe %s: %w", p.name, err)
				}
			}
			d := time.Since(t0)
			runtime.ReadMemStats(&ms)
			if rep > 0 {
				ns = append(ns, float64(d.Nanoseconds())/float64(n*per))
				allocs = append(allocs, float64(ms.Mallocs-m0)/float64(n*per))
			}
		}
		tr.end(sp, "")
		res.set(p.name+".host_ns", median(ns), "ns")
		if p.allocs {
			res.set(p.name+".allocs", median(allocs), "count")
		}
	}
	if workload != profileProbeWorkload {
		return nil
	}
	sp := tr.begin("probe.profile.run_overhead", 0, "")
	d, err := profileOverheadProbe(o.scaled(20_000, 2))
	tr.end(sp, "")
	if err != nil {
		return fmt.Errorf("probe profile.run_overhead: %w", err)
	}
	res.set("profile.run_overhead.host_ns", d, "ns")
	return nil
}

// profileProbeWorkload runs profile.run_overhead, which is a difference of
// two loops and so not a row of probes().
const profileProbeWorkload = "oltp_commit"

// probeNames lists the probe metrics in BENCHMARK.json order.
func probeNames() (hostNs, allocs []string) {
	all := probes()
	for _, w := range workloadNames {
		for _, p := range all[w] {
			hostNs = append(hostNs, p.name+".host_ns")
			if p.allocs {
				allocs = append(allocs, p.name+".allocs")
			}
		}
	}
	hostNs = append(hostNs, "profile.run_overhead.host_ns")
	return hostNs, allocs
}
