package harness

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/aurora"
	"github.com/disagglab/disagg/internal/engine/history"
	"github.com/disagglab/disagg/internal/engine/legobase"
	"github.com/disagglab/disagg/internal/engine/monolithic"
	"github.com/disagglab/disagg/internal/engine/pilotdb"
	"github.com/disagglab/disagg/internal/engine/polardb"
	"github.com/disagglab/disagg/internal/engine/serverless"
	"github.com/disagglab/disagg/internal/engine/sharednothing"
	"github.com/disagglab/disagg/internal/engine/snowflake"
	"github.com/disagglab/disagg/internal/engine/socrates"
	"github.com/disagglab/disagg/internal/engine/taurus"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/sim/fault"
)

func init() {
	register(Experiment{
		ID:      "E26",
		Aliases: []string{"E-isolation"},
		Title:   "History-based isolation checking: dependency-graph verdicts across all engines",
		Claim:   `§3: every disaggregated architecture re-implements the transaction pipeline over a different substrate (quorum logs, page servers, object storage, PM buffers, 2PC), and each re-implementation is a fresh chance to break isolation in a way ordinary value assertions never see. Recording every transaction — reads, writes, retry lineage, commit stamps — and checking the ww/wr/rw dependency graph for cycles gives a per-engine serializability verdict with a minimal witness cycle when it fails, at a checking cost that is linear in the history. Weakened engines (dirty reads, unvalidated snapshots) prove the checker actually detects G1c and write skew.`,
		Run:     runE26,
	})
}

const (
	e26Seed     = 811
	e26Workers  = 4
	e26KeysEach = 4
	e26KeyBase  = 1 << 22
)

// e26Engines is the full engine roster (all ten architectures), each on
// its conformance-suite configuration.
func e26Engines() []struct {
	name  string
	build func(cfg *sim.Config) engine.Engine
} {
	layout := oltpLayout()
	return []struct {
		name  string
		build func(cfg *sim.Config) engine.Engine
	}{
		{"monolithic", func(cfg *sim.Config) engine.Engine { return monolithic.New(cfg, layout, 1024) }},
		{"shared-nothing", func(cfg *sim.Config) engine.Engine { return sharednothing.New(cfg, layout, 4) }},
		{"aurora", func(cfg *sim.Config) engine.Engine { return aurora.New(cfg, layout, 1024, 1) }},
		{"socrates", func(cfg *sim.Config) engine.Engine { return socrates.New(cfg, layout, 1024, 2) }},
		{"taurus", func(cfg *sim.Config) engine.Engine { return taurus.New(cfg, layout, 1024, 3) }},
		{"polardb", func(cfg *sim.Config) engine.Engine { return polardb.New(cfg, layout, 1024) }},
		{"legobase", func(cfg *sim.Config) engine.Engine { return legobase.New(cfg, layout, 64, 4096) }},
		{"pilotdb", func(cfg *sim.Config) engine.Engine { return pilotdb.New(cfg, layout, 1024, pilotdb.Pilot()) }},
		{"snowflake-kv", func(cfg *sim.Config) engine.Engine { return snowflake.NewKV(cfg, layout) }},
		{"serverless", func(cfg *sim.Config) engine.Engine { return serverless.New(cfg, layout, 2, 64, 4096) }},
	}
}

// e26Val encodes a globally unique non-zero value: the register-history
// checker requires every write to be distinguishable so each read maps to
// exactly one recorded write.
func e26Val(valSize int, key uint64, id, seq int) []byte {
	v := make([]byte, valSize)
	binary.LittleEndian.PutUint64(v[0:], key)
	binary.LittleEndian.PutUint64(v[8:], uint64(id)<<32|uint64(seq))
	v[16] = 1 // never all-zero
	return v
}

// e26Run drives the recorded workload: each worker read-modify-writes its
// own disjoint keys and reads foreign keys one at a time, every operation
// recorded through engine.Run.
func e26Run(e engine.Engine, ops int) *history.Recorder {
	layout := oltpLayout()
	rec := history.NewRecorder()
	sim.RunGroup(e26Workers, func(id int, c *sim.Clock) int {
		rng := sim.NewRand(e26Seed, id)
		opts := engine.RunOpts{Retries: 25, Record: rec, Session: id}
		for i := 0; i < ops; i++ {
			if rng.Intn(100) < 70 {
				key := e26KeyBase + uint64(id)*e26KeysEach + uint64(rng.Intn(e26KeysEach))
				v := e26Val(layout.ValSize, key, id, i+1)
				engine.Run(e, c, opts, func(tx engine.Tx) error {
					if _, err := tx.Read(key); err != nil {
						return err
					}
					return tx.Write(key, v)
				})
				continue
			}
			other := (id + 1 + rng.Intn(e26Workers-1)) % e26Workers
			key := e26KeyBase + uint64(other)*e26KeysEach + uint64(rng.Intn(e26KeysEach))
			engine.Run(e, c, opts, func(tx engine.Tx) error {
				_, err := tx.Read(key)
				return err
			})
		}
		return ops
	})
	return rec
}

// e26Check checks a recorded history at Serializable in both version-order
// modes and returns the stricter (more anomalies) report for the table.
func e26Check(rec *history.Recorder) (*history.Report, error) {
	ops := rec.Ops()
	exact, err := history.Check(ops, history.Opts{Level: history.Serializable, SessionOrder: true, SingleWriter: true})
	if err != nil {
		return nil, err
	}
	stamp, err := history.Check(ops, history.Opts{Level: history.Serializable, SessionOrder: true})
	if err != nil {
		return nil, err
	}
	if len(stamp.Anomalies) > len(exact.Anomalies) {
		return stamp, nil
	}
	return exact, nil
}

// e26Dirty is the deliberately weakened dirty-read engine: writes land in
// the shared map the instant tx.Write runs, so concurrent transactions
// observe each other's uncommitted state (see the enginetest twin that
// guards the checker's teeth in CI).
type e26Dirty struct {
	mu    sync.Mutex
	vals  map[uint64][]byte
	stats engine.Stats
}

type e26DirtyTx struct{ e *e26Dirty }

func (tx e26DirtyTx) Read(key uint64) ([]byte, error) {
	tx.e.mu.Lock()
	defer tx.e.mu.Unlock()
	if v, ok := tx.e.vals[key]; ok {
		out := make([]byte, len(v))
		copy(out, v)
		return out, nil
	}
	return make([]byte, 8), nil
}

func (tx e26DirtyTx) Write(key uint64, val []byte) error {
	tx.e.mu.Lock()
	defer tx.e.mu.Unlock()
	cp := make([]byte, len(val))
	copy(cp, val)
	tx.e.vals[key] = cp
	return nil
}

func (e *e26Dirty) Name() string         { return "weak-dirty" }
func (e *e26Dirty) Stats() *engine.Stats { return &e.stats }
func (e *e26Dirty) Execute(c *sim.Clock, fn func(tx engine.Tx) error) error {
	e.stats.Attempts.Add(1)
	if err := fn(e26DirtyTx{e}); err != nil {
		e.stats.Aborts.Add(1)
		return err
	}
	e.stats.Commits.Add(1)
	return nil
}

// e26DirtySchedule choreographs the wr-wr cycle: T1 writes k1, T2 writes
// k2 and reads T1's in-flight k1, then T1 reads T2's k2. Both commit — G1c
// at Read Committed. The two sessions are one sim.RunGroup, choreographed
// with sim.Wait, so the history (and its witness cycle) is the same every
// run.
func e26DirtySchedule() *history.Recorder {
	e := &e26Dirty{vals: make(map[uint64][]byte)}
	rec := history.NewRecorder()
	var t1Wrote, t2Read atomic.Bool
	sim.RunGroup(2, func(session int, c *sim.Clock) int {
		engine.Run(e, c, engine.RunOpts{Record: rec, Session: session}, func(tx engine.Tx) error {
			if session == 0 {
				if err := tx.Write(1, []byte("dirty-v1")); err != nil {
					return err
				}
				t1Wrote.Store(true)
				sim.Wait(c, t2Read.Load)
				_, err := tx.Read(2)
				return err
			}
			sim.Wait(c, t1Wrote.Load)
			if err := tx.Write(2, []byte("dirty-v2")); err != nil {
				return err
			}
			if _, err := tx.Read(1); err != nil {
				return err
			}
			t2Read.Store(true)
			return nil
		})
		return 1
	})
	return rec
}

// e26Snapshot is the unvalidated-snapshot engine: reads come from a
// snapshot taken at begin, staged writes apply at commit with no conflict
// validation — the write-skew machine.
type e26Snapshot struct {
	mu    sync.Mutex
	vals  map[uint64][]byte
	stats engine.Stats
}

func (e *e26Snapshot) Name() string         { return "weak-snapshot" }
func (e *e26Snapshot) Stats() *engine.Stats { return &e.stats }
func (e *e26Snapshot) Execute(c *sim.Clock, fn func(tx engine.Tx) error) error {
	e.stats.Attempts.Add(1)
	e.mu.Lock()
	snap := make(map[uint64][]byte, len(e.vals))
	for k, v := range e.vals {
		snap[k] = v
	}
	e.mu.Unlock()
	st := engine.NewStagedTx(c, func(_ *sim.Clock, key uint64) ([]byte, error) {
		if v, ok := snap[key]; ok {
			out := make([]byte, len(v))
			copy(out, v)
			return out, nil
		}
		return make([]byte, 8), nil
	})
	if err := fn(st); err != nil {
		e.stats.Aborts.Add(1)
		return err
	}
	e.mu.Lock()
	for _, w := range st.Writes() {
		e.vals[w.Key] = w.Val
	}
	e.mu.Unlock()
	e.stats.Commits.Add(1)
	return nil
}

// e26SkewSchedule choreographs write skew: both transactions snapshot the
// initial state, T1 reads k2 / writes k1, T2 reads k1 / writes k2, both
// commit — an rw-rw cycle, legal at Read Committed, write skew at
// Serializable. Like the dirty schedule it is one sim.RunGroup.
func e26SkewSchedule() *history.Recorder {
	e := &e26Snapshot{vals: make(map[uint64][]byte)}
	rec := history.NewRecorder()
	var begun atomic.Int32
	keys := [2][2]uint64{{12, 11}, {11, 12}} // read, write
	vals := [2][]byte{[]byte("skew-v1"), []byte("skew-v2")}
	sim.RunGroup(2, func(session int, c *sim.Clock) int {
		engine.Run(e, c, engine.RunOpts{Record: rec, Session: session}, func(tx engine.Tx) error {
			begun.Add(1)
			sim.Wait(c, func() bool { return begun.Load() == 2 })
			if _, err := tx.Read(keys[session][0]); err != nil {
				return err
			}
			return tx.Write(keys[session][1], vals[session])
		})
		return 1
	})
	return rec
}

// e26FindAnomaly returns the first anomaly of the class, if reported.
func e26FindAnomaly(rep *history.Report, class string) (history.Anomaly, bool) {
	for _, a := range rep.Anomalies {
		if a.Class == class {
			return a, true
		}
	}
	return history.Anomaly{}, false
}

func runE26(cfg *sim.Config, s Scale) *Result {
	r := &Result{ID: "E26", Title: "History-based isolation checking across the engine roster"}
	ops := pick(s, 24, 96)

	// Real engines: clean fabric and the drops fault profile, both checked
	// at Serializable in both version-order modes. Zero anomalies expected
	// everywhere — the table's value is the verdict. (The check's host cost
	// is wall time, not virtual time; the benchmark's history.check_per_op
	// probe measures it.)
	for _, arm := range []struct {
		name string
		prof *fault.Profile
	}{
		{"clean", nil},
		{"drops", &fault.Profile{Name: "drops", Drop: 0.05, Sites: fault.FabricSites}},
	} {
		t := r.table(fmt.Sprintf("E26: serializability verdicts, %s fabric (%d workers x %d ops)", arm.name, e26Workers, ops),
			"engine", "txns", "reads", "writes", "edges", "anomalies")
		for _, eng := range e26Engines() {
			ecfg := cfg.Clone()
			if arm.prof != nil {
				ecfg.Fault = fault.New(e26Seed, *arm.prof)
			}
			e := eng.build(ecfg)
			rec := e26Run(e, ops)
			rep, err := e26Check(rec)
			if err != nil {
				r.check(fmt.Sprintf("%s/%s: history is checkable", eng.name, arm.name), false, "%v", err)
				continue
			}
			t.Row(eng.name, rep.Txns, rep.Reads, rep.Writes, rep.Edges, len(rep.Anomalies))
			detail := "clean"
			if !rep.Ok() {
				detail = rep.Anomalies[0].String()
			}
			r.check(fmt.Sprintf("%s/%s: zero isolation anomalies", eng.name, arm.name), rep.Ok(), "%s", detail)
		}
	}

	// Weakened engines: the checker must produce the named anomaly with a
	// minimal witness cycle, or the verdicts above mean nothing.
	t := r.table("E26: weakened engines — the checker's teeth", "engine", "level", "anomaly", "witness cycle")
	dirtyRep, err := history.Check(e26DirtySchedule().Ops(), history.Opts{Level: history.ReadCommitted, SingleWriter: true})
	if err == nil {
		if a, found := e26FindAnomaly(dirtyRep, "G1c"); found {
			t.Row("weak-dirty", "read-committed", a.Class, fmt.Sprintf("%v", a.Cycle))
			r.check("weak-dirty: checker reports G1c with a witness cycle", len(a.Cycle) > 0, "%s", a.Message)
		} else {
			r.check("weak-dirty: checker reports G1c with a witness cycle", false, "anomalies: %v", dirtyRep.Anomalies)
		}
	} else {
		r.check("weak-dirty: history is checkable", false, "%v", err)
	}
	skewOps := e26SkewSchedule().Ops()
	skewRC, errRC := history.Check(skewOps, history.Opts{Level: history.ReadCommitted, SingleWriter: true})
	skewSer, errSer := history.Check(skewOps, history.Opts{Level: history.Serializable, SingleWriter: true})
	if errRC == nil && errSer == nil {
		r.check("weak-snapshot: schedule is legal at read committed", skewRC.Ok(), "anomalies: %v", skewRC.Anomalies)
		if a, found := e26FindAnomaly(skewSer, "write-skew"); found {
			t.Row("weak-snapshot", "serializable", a.Class, fmt.Sprintf("%v", a.Cycle))
			r.check("weak-snapshot: checker reports write skew with a witness cycle", len(a.Cycle) > 0, "%s", a.Message)
		} else {
			r.check("weak-snapshot: checker reports write skew with a witness cycle", false, "anomalies: %v", skewSer.Anomalies)
		}
	} else {
		r.check("weak-snapshot: history is checkable", errRC == nil && errSer == nil, "rc=%v ser=%v", errRC, errSer)
	}

	r.note("every verdict is over a fully recorded history (seed %d): each engine.Run call is one logical op with explicit retry lineage, commit stamps taken at the engine's durability point", e26Seed)
	r.note("check = cycle search over the ww/wr/rw/so dependency graph, run in both version-order modes (per-key program order and commit stamps); cost is linear in ops+edges")
	r.traceOp(cfg, "txn.write-recorded", func(c *sim.Clock) {
		e := e26Engines()[0].build(cfg)
		rec := history.NewRecorder()
		engine.Run(e, c, engine.RunOpts{Record: rec, Session: 0}, func(tx engine.Tx) error {
			return tx.Write(1, make([]byte, oltpLayout().ValSize))
		})
	})
	return r
}
