package harness

import (
	"encoding/binary"
	"fmt"
	"time"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/aurora"
	"github.com/disagglab/disagg/internal/engine/legobase"
	"github.com/disagglab/disagg/internal/engine/monolithic"
	"github.com/disagglab/disagg/internal/engine/pilotdb"
	"github.com/disagglab/disagg/internal/engine/polardb"
	"github.com/disagglab/disagg/internal/engine/serverless"
	"github.com/disagglab/disagg/internal/engine/snowflake"
	"github.com/disagglab/disagg/internal/engine/socrates"
	"github.com/disagglab/disagg/internal/engine/taurus"
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
	// One value buffer for every transaction: Write stages a copy.
	v := make([]byte, layout.ValSize)
	for i := 0; i < txns; i++ {
		key := e29Key(layout, i)
		seq := uint64(i + 1)
		binary.LittleEndian.PutUint64(v, seq)
		if err := engine.Run(e, c, engine.RunOpts{Retries: 8}, func(tx engine.Tx) error {
			return tx.Write(key, v)
		}); err != nil {
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
	st := e.Stats()
	if st.Attempts.Load() != st.Commits.Load()+st.Aborts.Load()+st.Shed.Load() {
		return arm, fmt.Errorf("attempts accounting violated: %d != %d+%d+%d",
			st.Attempts.Load(), st.Commits.Load(), st.Aborts.Load(), st.Shed.Load())
	}
	return arm, nil
}

// e29RebuildArm measures the storage-tier rebuild the log-as-database
// engines (Aurora, Taurus) depend on: a replacement storage node catching
// up from a healthy peer and the authoritative log. Without the lifecycle
// the full history re-ships; with it the node adopts checkpointed page
// images and tail-replays only above the horizon.
func e29RebuildArm(cfg *sim.Config, txns, ckptEvery int) (time.Duration, error) {
	layout := e29Layout()
	log := wal.NewLog()
	survivor := storagenode.NewReplica(cfg, "survivor", 0, layout, 1)
	c := sim.NewClock()
	for i := 0; i < txns; i++ {
		key := e29Key(layout, i)
		v := make([]byte, layout.ValSize)
		binary.LittleEndian.PutUint64(v, uint64(i+1))
		rec := wal.Record{Type: wal.TypeUpdate, TxID: uint64(i + 1), PageID: uint64(layout.PageOf(key)), Key: key, After: v}
		rec.LSN = log.Append(rec)
		if err := survivor.Ingest(c, []wal.Record{rec}); err != nil {
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
	v, err := layout.ReadValue(data, lastKey)
	if err != nil {
		return 0, err
	}
	want := uint64(txns) // the final transaction wrote lastKey
	if got := binary.LittleEndian.Uint64(v); got != want {
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
	sweep := []struct {
		name  string
		build func() engine.Engine
	}{
		{"monolithic", func() engine.Engine { return monolithic.New(cfg, layout, 1024) }},
		{"snowflake-kv", func() engine.Engine { return snowflake.NewKV(cfg, layout) }},
		{"legobase", func() engine.Engine {
			e := legobase.New(cfg, layout, 64, 4096)
			e.CheckpointRemoteEvery = 0 // lifecycle driven explicitly by the sweep
			e.CheckpointStorageEvery = 0
			return e
		}},
	}

	for _, eng := range sweep {
		t := r.table(fmt.Sprintf("E29: %s — recovery time across a %dx log-length sweep (checkpoint every %d commits vs never)",
			eng.name, mults[len(mults)-1], ckptEvery),
			"txns", "unchecked recovery", "checkpointed recovery", "horizon", "acked lost")
		var plain, ckpt []e29Arm
		for _, m := range mults {
			txns := base * m
			pa, err := e29Sweep(eng.build(), layout, txns, 0)
			if err != nil {
				r.check(fmt.Sprintf("%s: unchecked arm at %d txns runs clean", eng.name, txns), false, "%v", err)
				continue
			}
			ca, err := e29Sweep(eng.build(), layout, txns, ckptEvery)
			if err != nil {
				r.check(fmt.Sprintf("%s: checkpointed arm at %d txns runs clean", eng.name, txns), false, "%v", err)
				continue
			}
			plain = append(plain, pa)
			ckpt = append(ckpt, ca)
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
		for _, m := range mults {
			txns := base * m
			pd, err := e29RebuildArm(cfg, txns, 0)
			if err == nil {
				var cd time.Duration
				cd, err = e29RebuildArm(cfg, txns, ckptEvery)
				if err == nil {
					plain = append(plain, pd)
					ckpt = append(ckpt, cd)
					t.Row(txns, pd, cd)
					continue
				}
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

	// Crash drill across the full recoverable roster: every engine runs
	// with periodic checkpoints, crashes, recovers, and must lose nothing.
	roster := []struct {
		name  string
		build func() engine.Engine
	}{
		{"monolithic", func() engine.Engine { return monolithic.New(cfg, layout, 1024) }},
		{"aurora", func() engine.Engine { return aurora.New(cfg, layout, 1024, 1) }},
		{"socrates", func() engine.Engine {
			e := socrates.New(cfg, layout, 1024, 2)
			e.SnapshotEvery = 0
			return e
		}},
		{"taurus", func() engine.Engine { return taurus.New(cfg, layout, 1024, 3) }},
		{"polardb", func() engine.Engine {
			e := polardb.New(cfg, layout, 1024)
			e.CheckpointEvery = 0
			return e
		}},
		{"legobase", func() engine.Engine {
			e := legobase.New(cfg, layout, 64, 4096)
			e.CheckpointRemoteEvery = 0
			e.CheckpointStorageEvery = 0
			return e
		}},
		{"pilotdb", func() engine.Engine { return pilotdb.New(cfg, layout, 1024, pilotdb.Pilot()) }},
		{"snowflake-kv", func() engine.Engine { return snowflake.NewKV(cfg, layout) }},
		{"serverless", func() engine.Engine { return serverless.New(cfg, layout, 2, 64, 4096) }},
	}
	t := r.table(fmt.Sprintf("E29: crash drill, all recoverable engines — %d txns, checkpoint every %d commits", base, ckptEvery),
		"engine", "recovery", "horizon", "acked lost")
	for _, eng := range roster {
		arm, err := e29Sweep(eng.build(), layout, base, ckptEvery)
		if err != nil {
			r.check(fmt.Sprintf("%s: crash drill runs clean", eng.name), false, "%v", err)
			continue
		}
		t.Row(eng.name, arm.recover, arm.horizon, arm.lost)
		r.check(fmt.Sprintf("%s: crash drill loses zero acked commits and publishes a horizon", eng.name),
			arm.lost == 0 && arm.horizon > 0,
			"recovery %v, horizon %d, %d lost", arm.recover, arm.horizon, arm.lost)
	}

	r.note("sweep: %d hot keys, single writer, %d..%d txns; checkpointed arms run one coordinator round every %d commits (capture horizon -> flush pages -> publish -> truncate)", e29Keys, base*mults[0], base*mults[len(mults)-1], ckptEvery)
	r.note("the redo-class engines (monolithic, snowflake-kv, legobase) replay their retained log on Recover; log-as-database engines recover compute in O(1) and pay the unbounded cost in storage-node rebuild instead — measured by the substrate arm")
	r.note("shared-nothing checkpoints per partition (its shard image is the recovery source) but does not implement Recoverer; its lifecycle is covered by the enginetest Recovery drills")
	r.traceOp(cfg, "txn.write+ckpt", func(c *sim.Clock) {
		e := roster[0].build()
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
