package harness

import (
	"encoding/binary"
	"fmt"
	"time"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/drill"
	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/storagenode"
	"github.com/disagglab/disagg/internal/wal"
)

func init() {
	register(Experiment{
		ID:      "E29",
		Aliases: []string{"E-recovery"},
		Title:   "Bounded crash recovery: checkpointing keeps recovery flat while the unchecked log grows it linearly",
		Claim:   `§2/§4: disaggregation's promise that a crashed compute node is cheap to replace holds only if recovery stays bounded — Socrates makes the log a first-class tiered service precisely so its tail stays small, and the disaggregation surveys name bounded recovery as a core requirement. Without checkpointing, every engine whose Recover redoes the log replays an ever-longer tail, so recovery time grows linearly with uptime; with the checkpoint coordinator (flush durable pages, publish a recovery horizon, truncate below it) recovery replays only the post-horizon tail and stays flat across a 10x log-length sweep. The same lifecycle bounds the storage tier: a replacement storage node adopts checkpointed page images plus the retained tail instead of replaying the full history. Every crash drill must lose zero acknowledged commits.`,
		Run:     runE29,
	})
}

// e29Keys is the hot-key working set. Keeping it small (one heap page) and
// fixed makes the page-fetch component of recovery constant across the
// sweep, so the measured growth isolates log replay.
const e29Keys = 4

// e29Layout uses wide values so the retained log's byte volume — the
// quantity checkpointing bounds — dominates fixed device base latencies in
// the recovery measurement.
func e29Layout() heap.Layout {
	l, err := heap.NewLayout(8192, 1536)
	if err != nil {
		panic(err)
	}
	return l
}

// e29Key maps a sweep index onto the hot set, aligned so all keys share
// one page.
func e29Key(layout heap.Layout, i int) uint64 {
	base := uint64(layout.PerPage) * 100_000
	return base + uint64(i%e29Keys)
}

// e29Arm is one (engine, log length, checkpointing on/off) measurement.
type e29Arm struct {
	txns    int
	recover time.Duration
	lost    int
	horizon wal.LSN
}

// e29Sweep drives txns single-writer transactions over the hot keys,
// checkpointing every ckptEvery commits when ckptEvery > 0, then crashes
// and recovers the engine and audits every acknowledged write. The
// returned arm carries the recovery time and the loss count. The engine is
// retired when the arm returns.
func e29Sweep(e engine.Engine, layout heap.Layout, txns, ckptEvery int) (e29Arm, error) {
	defer retire(e)
	arm := e29Arm{txns: txns}
	r := engine.Caps(e).Recoverer
	cp := engine.Caps(e).Checkpointer
	c := sim.NewClock()
	acked := make(map[uint64]uint64, e29Keys)
	// One value buffer and one closure for every transaction: Write copies
	// the value, and the log keeps a copy of its own.
	var key uint64
	v := make([]byte, layout.ValSize)
	write := func(tx engine.Tx) error { return tx.Write(key, v) }
	for i := 0; i < txns; i++ {
		key = e29Key(layout, i)
		seq := uint64(i + 1)
		binary.LittleEndian.PutUint64(v, seq)
		if err := engine.Run(e, c, engine.RunOpts{Retries: 8}, write); err != nil {
			return arm, fmt.Errorf("txn %d: %w", i, err)
		}
		acked[key] = seq
		if ckptEvery > 0 && cp != nil && (i+1)%ckptEvery == 0 {
			if err := cp.Checkpoint(c); err != nil {
				return arm, fmt.Errorf("checkpoint at txn %d: %w", i, err)
			}
		}
	}
	r.Crash()
	d, err := r.Recover(c)
	if err != nil {
		return arm, fmt.Errorf("recover: %w", err)
	}
	arm.recover = d
	if cp != nil {
		arm.horizon = cp.RecoveryHorizon()
	}
	for key, seq := range acked {
		var got []byte
		err := engine.Run(e, c, engine.RunOpts{Retries: 8}, func(tx engine.Tx) error {
			v, rerr := tx.Read(key)
			if rerr != nil {
				return rerr
			}
			got = v
			return nil
		})
		if err != nil || len(got) < 8 || binary.LittleEndian.Uint64(got) != seq {
			arm.lost++
		}
	}
	return arm, drill.Conservation(e.Stats())
}

// e29RebuildArm measures the storage-tier rebuild the log-as-database
// engines (Aurora, Taurus) depend on: a replacement storage node catching
// up from a healthy peer and the authoritative log. Without the lifecycle
// the full history re-ships; with it the node adopts checkpointed page
// images and tail-replays only above the horizon. The replicas hold the
// log's images, so the log is released when the arm returns, with them.
func e29RebuildArm(cfg *sim.Config, txns, ckptEvery int) (time.Duration, error) {
	layout := e29Layout()
	log := wal.NewLog()
	defer log.Release()
	survivor := storagenode.NewReplica(cfg, "survivor", 0, layout, 1)
	c := sim.NewClock()
	// One value buffer and one record: Reserve copies the value into the
	// log and points the record at that copy, which the survivor ingests.
	v := make([]byte, layout.ValSize)
	recs := make([]wal.Record, 1)
	for i := 0; i < txns; i++ {
		key := e29Key(layout, i)
		binary.LittleEndian.PutUint64(v, uint64(i+1))
		recs[0] = wal.Record{Type: wal.TypeUpdate, TxID: uint64(i + 1), PageID: uint64(layout.PageOf(key)), Key: key, After: v}
		log.Reserve(recs)
		log.Decide(recs, true)
		if err := survivor.Ingest(c, recs); err != nil {
			return 0, err
		}
		if ckptEvery > 0 && (i+1)%ckptEvery == 0 {
			h := log.Head() - 1
			survivor.AdvanceHorizon(c, h)
			log.TruncateBefore(h + 1)
		}
	}
	fresh := storagenode.NewReplica(cfg, "replacement", 1, layout, 1)
	rc := c.Fork() // the rebuild runs beside the survivor's timeline
	if _, err := fresh.CatchUpFrom(&rc, survivor, log); err != nil {
		return 0, err
	}
	// The replacement must actually serve the newest value, whichever
	// source (adopted image or tail replay) carried it.
	lastKey := e29Key(layout, txns-1)
	data, err := fresh.ReadPage(&rc, layout.PageOf(lastKey), 0)
	if err != nil {
		return 0, err
	}
	served, err := layout.ReadValue(data, lastKey)
	if err != nil {
		return 0, err
	}
	want := uint64(txns) // the final transaction wrote lastKey
	if got := binary.LittleEndian.Uint64(served); got != want {
		return 0, fmt.Errorf("replacement replica serves seq %d, want %d", got, want)
	}
	return rc.Now() - c.Now(), nil
}

func runE29(cfg *sim.Config, s Scale) *Result {
	r := &Result{ID: "E29", Title: "Recovery time vs log length: checkpoint + truncate vs unbounded log"}
	layout := e29Layout()

	base := pick(s, 480, 960)
	mults := pick(s, []int{1, 4, 10}, []int{1, 2, 4, 7, 10})
	ckptEvery := base / 2

	// The sweep engines are the redo class: their Recover replays the
	// retained log, so an unbounded log is directly an unbounded restart.
	// (The log-as-database engines recover compute in O(1) by design —
	// their unbounded cost is the storage-rebuild arm below.)
	sweep := quietEngines("monolithic", "snowflake-kv", "legobase")
	// The crash drill covers the full recoverable roster: every engine runs
	// with periodic checkpoints, crashes, recovers, and must lose nothing.
	drilled := quietEngines("monolithic", "aurora", "socrates", "taurus", "polardb", "legobase", "pilotdb", "snowflake-kv", "serverless")

	// One cell per arm, in table order: the sweep's (engine, log length,
	// unchecked then checkpointed), the storage rebuild's (log length,
	// unchecked then checkpointed), then the drill's (engine).
	type arm struct {
		e29Arm
		rebuild time.Duration
		err     error
	}
	every := [2]int{0, ckptEvery}
	swept, rebuilt := 2*len(sweep)*len(mults), 2*len(mults)
	arms := make([]arm, swept+rebuilt+len(drilled))
	cells(cfg, len(arms), func(i int, cfg *sim.Config) {
		a := &arms[i]
		switch {
		case i < swept:
			eng := sweep[i/(2*len(mults))]
			a.e29Arm, a.err = e29Sweep(eng.build(cfg, layout), layout, base*mults[i/2%len(mults)], every[i%2])
		case i < swept+rebuilt:
			j := i - swept
			a.rebuild, a.err = e29RebuildArm(cfg, base*mults[j/2], every[j%2])
		default:
			a.e29Arm, a.err = e29Sweep(drilled[i-swept-rebuilt].build(cfg, layout), layout, base, ckptEvery)
		}
	})

	for ei, eng := range sweep {
		t := r.table(fmt.Sprintf("E29: %s — recovery time across a %dx log-length sweep (checkpoint every %d commits vs never)",
			eng.name, mults[len(mults)-1], ckptEvery),
			"txns", "unchecked recovery", "checkpointed recovery", "horizon", "acked lost")
		var plain, ckpt []e29Arm
		for mi, m := range mults {
			txns := base * m
			pa, ca := arms[2*(ei*len(mults)+mi)], arms[2*(ei*len(mults)+mi)+1]
			if pa.err != nil {
				r.check(fmt.Sprintf("%s: unchecked arm at %d txns runs clean", eng.name, txns), false, "%v", pa.err)
				continue
			}
			if ca.err != nil {
				r.check(fmt.Sprintf("%s: checkpointed arm at %d txns runs clean", eng.name, txns), false, "%v", ca.err)
				continue
			}
			plain = append(plain, pa.e29Arm)
			ckpt = append(ckpt, ca.e29Arm)
			t.Row(txns, pa.recover, ca.recover, ca.horizon, pa.lost+ca.lost)
		}
		if len(plain) < 2 {
			continue
		}
		first, last := 0, len(plain)-1
		r.check(fmt.Sprintf("%s: checkpointed recovery stays flat (within 1.5x) across the sweep", eng.name),
			ckpt[last].recover <= ckpt[first].recover*3/2,
			"%v at %d txns vs %v at %d txns (%.2fx)",
			ckpt[last].recover, ckpt[last].txns, ckpt[first].recover, ckpt[first].txns,
			ratio(ckpt[last].recover, ckpt[first].recover))
		r.check(fmt.Sprintf("%s: unchecked recovery grows >=5x with the log", eng.name),
			plain[last].recover >= plain[first].recover*5,
			"%v at %d txns vs %v at %d txns (%.2fx)",
			plain[last].recover, plain[last].txns, plain[first].recover, plain[first].txns,
			ratio(plain[last].recover, plain[first].recover))
		lost := 0
		for i := range plain {
			lost += plain[i].lost + ckpt[i].lost
		}
		r.check(fmt.Sprintf("%s: zero acked commits lost across every arm", eng.name),
			lost == 0, "%d lost", lost)
		r.check(fmt.Sprintf("%s: every checkpointed arm published a recovery horizon", eng.name),
			ckpt[last].horizon > 0, "horizon %d after %d txns", ckpt[last].horizon, ckpt[last].txns)
	}

	// Storage-node rebuild: the log-as-database analogue of the sweep.
	{
		t := r.table(fmt.Sprintf("E29: storage-node rebuild (aurora/taurus substrate) — replacement catch-up across a %dx sweep", mults[len(mults)-1]),
			"records", "unchecked rebuild", "checkpointed rebuild")
		var plain, ckpt []time.Duration
		ok := true
		for mi, m := range mults {
			txns := base * m
			pd, cd := arms[swept+2*mi], arms[swept+2*mi+1]
			err := pd.err
			if err == nil {
				err = cd.err
			}
			if err == nil {
				plain = append(plain, pd.rebuild)
				ckpt = append(ckpt, cd.rebuild)
				t.Row(txns, pd.rebuild, cd.rebuild)
				continue
			}
			ok = false
			r.check(fmt.Sprintf("rebuild arm at %d records runs clean", txns), false, "%v", err)
		}
		if ok && len(plain) >= 2 {
			first, last := 0, len(plain)-1
			r.check("storage rebuild: checkpointed catch-up stays flat (within 1.5x)",
				ckpt[last] <= ckpt[first]*3/2,
				"%v vs %v (%.2fx)", ckpt[last], ckpt[first], ratio(ckpt[last], ckpt[first]))
			r.check("storage rebuild: unchecked catch-up grows >=5x with the log",
				plain[last] >= plain[first]*5,
				"%v vs %v (%.2fx)", plain[last], plain[first], ratio(plain[last], plain[first]))
		}
	}

	t := r.table(fmt.Sprintf("E29: crash drill, all recoverable engines — %d txns, checkpoint every %d commits", base, ckptEvery),
		"engine", "recovery", "horizon", "acked lost")
	for di, eng := range drilled {
		a := arms[swept+rebuilt+di]
		if a.err != nil {
			r.check(fmt.Sprintf("%s: crash drill runs clean", eng.name), false, "%v", a.err)
			continue
		}
		t.Row(eng.name, a.recover, a.horizon, a.lost)
		r.check(fmt.Sprintf("%s: crash drill loses zero acked commits and publishes a horizon", eng.name),
			a.lost == 0 && a.horizon > 0,
			"recovery %v, horizon %d, %d lost", a.recover, a.horizon, a.lost)
	}

	r.note("sweep: %d hot keys, single writer, %d..%d txns; checkpointed arms run one coordinator round every %d commits (capture horizon -> flush pages -> publish -> truncate)", e29Keys, base*mults[0], base*mults[len(mults)-1], ckptEvery)
	r.note("the redo-class engines (monolithic, snowflake-kv, legobase) replay their retained log on Recover; log-as-database engines recover compute in O(1) and pay the unbounded cost in storage-node rebuild instead — measured by the substrate arm")
	r.note("shared-nothing checkpoints per partition (its shard image is the recovery source) but does not implement Recoverer; its lifecycle is covered by the enginetest Recovery drills")
	r.traceOp(cfg, "txn.write+ckpt", func(c *sim.Clock) {
		e := drilled[0].build(cfg, layout)
		engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
			return tx.Write(1, make([]byte, layout.ValSize))
		})
		if caps := engine.Caps(e); caps.Checkpointer != nil {
			if err := caps.Checkpointer.Checkpoint(c); err != nil {
				panic(err)
			}
		}
	})
	return r
}
