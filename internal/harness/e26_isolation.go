package harness

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/drill"
	"github.com/disagglab/disagg/internal/engine/history"
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

// e26Seed seeds every drill cell; a violation replays with it.
const e26Seed = 811

// e26Verdict is a report's check detail: "clean", or its first violation.
func e26Verdict(rep drill.Report) string {
	if rep.Ok() {
		return "clean"
	}
	return fmt.Sprintf("%s (%d violation(s))", rep.Violations[0], len(rep.Violations))
}

// e26Weak is a deliberately weakened map engine that validates nothing.
// With dirty set, writes land in the shared map the instant tx.Write runs,
// so concurrent transactions observe each other's uncommitted state.
// Without it, reads come from a snapshot taken at begin and staged writes
// apply at commit — the write-skew machine.
type e26Weak struct {
	dirty bool
	mu    sync.Mutex
	vals  map[uint64][]byte
	stats engine.Stats
}

func (e *e26Weak) Name() string         { return "weak" }
func (e *e26Weak) Stats() *engine.Stats { return &e.stats }

// Read and Write make a dirty engine its own transaction.
func (e *e26Weak) Read(key uint64) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e26Get(e.vals, key), nil
}

func (e *e26Weak) Write(key uint64, val []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.vals[key] = slices.Clone(val)
	return nil
}

// e26Get is a copy of key's value in vals, or 8 zero bytes.
func e26Get(vals map[uint64][]byte, key uint64) []byte {
	if v, ok := vals[key]; ok {
		return slices.Clone(v)
	}
	return make([]byte, 8)
}

func (e *e26Weak) Execute(c *sim.Clock, fn func(tx engine.Tx) error) error {
	e.stats.Attempts.Add(1)
	var tx engine.Tx = e
	var st *engine.StagedTx
	if !e.dirty {
		e.mu.Lock()
		snap := maps.Clone(e.vals)
		e.mu.Unlock()
		st = engine.NewStagedTx(c, func(_ *sim.Clock, key uint64) ([]byte, error) { return e26Get(snap, key), nil })
		tx = st
	}
	if err := fn(tx); err != nil {
		e.stats.Aborts.Add(1)
		return err
	}
	if st != nil {
		for _, w := range st.Writes() {
			e.Write(w.Key, w.Val)
		}
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
	e := &e26Weak{dirty: true, vals: make(map[uint64][]byte)}
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

// e26SkewSchedule choreographs write skew: both transactions snapshot the
// initial state, T1 reads k2 / writes k1, T2 reads k1 / writes k2, both
// commit — an rw-rw cycle, legal at Read Committed, write skew at
// Serializable. Like the dirty schedule it is one sim.RunGroup.
func e26SkewSchedule() *history.Recorder {
	e := &e26Weak{vals: make(map[uint64][]byte)}
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

func runE26(cfg *sim.Config, _ Scale) *Result {
	r := &Result{ID: "E26", Title: "History-based isolation checking across the engine roster"}

	// The conformance drill on every engine, on a clean fabric and under 5 %
	// drops: three recorded phases with checkpoints between them, a crash
	// and recovery, every read held to its key's acked floor, and the
	// history checked at Serializable in both version-order modes. Zero
	// violations expected everywhere — the table's value is the verdict.
	for _, p := range []*fault.Profile{nil, &fault.Profiles()[0]} {
		fabric := "clean"
		if p != nil {
			fabric = p.Name
		}
		t := r.table(fmt.Sprintf("E26: conformance drill, %s fabric (seed %d)", fabric, e26Seed),
			"engine", "txns", "reads", "writes", "edges", "anomalies", "violations")
		for _, eng := range roster {
			rep := drill.Run(cfg, eng.build, p, e26Seed, false)
			if h := rep.History; h != nil {
				t.Row(eng.name, h.Txns, h.Reads, h.Writes, h.Edges, len(h.Anomalies), len(rep.Violations))
			} else {
				t.Row(eng.name, "-", "-", "-", "-", "-", len(rep.Violations))
			}
			r.check(fmt.Sprintf("%s/%s: drill finds no violation", eng.name, fabric), rep.Ok(), "%s", e26Verdict(rep))
		}
	}

	// Held regressions: one transaction is held between two of its steps
	// while another commits, so commit validation must fail it once. The
	// drill's seeds seldom reach these interleavings; these rows always do.
	t := r.table("E26: held isolation regressions (one transaction held while another commits)",
		"engine", "regression", "retried once", "anomalies")
	held := func(eng rosterEntry, rep drill.Report) {
		once, anomalies := "no", "-"
		if rep.Retries == 1 {
			once = "yes"
		}
		if rep.History != nil {
			anomalies = fmt.Sprint(len(rep.History.Anomalies))
		}
		t.Row(eng.name, rep.Label, once, anomalies)
		r.check(fmt.Sprintf("%s/%s: one retry, serializable", eng.name, rep.Label), rep.Ok(), "%s", e26Verdict(rep))
	}
	for _, eng := range roster {
		held(eng, drill.LostUpdate(cfg, eng.build, false))
		held(eng, drill.ReadSkew(cfg, eng.build, false))
	}
	for _, name := range groupCommitters {
		eng := roster[slices.IndexFunc(roster, func(r rosterEntry) bool { return r.name == name })]
		held(eng, drill.WriteSkew(cfg, eng.build, true))
	}

	// Weakened engines: the checker must produce the named anomaly with a
	// minimal witness cycle, or the verdicts above mean nothing.
	t = r.table("E26: weakened engines — the checker's teeth", "engine", "level", "anomaly", "witness cycle")
	teeth := func(name string, ops []*history.Op, level history.Level, class string) {
		check := fmt.Sprintf("%s: checker reports %s with a witness cycle", name, class)
		rep, err := history.Check(ops, history.Opts{Level: level, SingleWriter: true})
		if err != nil {
			r.check(check, false, "%v", err)
			return
		}
		i := slices.IndexFunc(rep.Anomalies, func(a history.Anomaly) bool { return a.Class == class })
		if i < 0 {
			r.check(check, false, "anomalies: %v", rep.Anomalies)
			return
		}
		a := rep.Anomalies[i]
		t.Row(name, level, a.Class, fmt.Sprint(a.Cycle))
		r.check(check, len(a.Cycle) > 0, "%s", a.Message)
	}
	teeth("weak-dirty", e26DirtySchedule().Ops(), history.ReadCommitted, "G1c")
	skewOps := e26SkewSchedule().Ops()
	if rc, err := history.Check(skewOps, history.Opts{Level: history.ReadCommitted, SingleWriter: true}); err != nil {
		r.check("weak-snapshot: history is checkable", false, "%v", err)
	} else {
		r.check("weak-snapshot: schedule is legal at read committed", rc.Ok(), "anomalies: %v", rc.Anomalies)
	}
	teeth("weak-snapshot", skewOps, history.Serializable, "write-skew")

	r.note("drill cells: %d workers, three recorded phases with checkpoints between them, then a crash and recovery, on the drill's %d-byte values (seed %d); each engine.Run call is one logical op with explicit retry lineage, commit stamps taken at the engine's durability point",
		drill.Workers, drill.Layout().ValSize, e26Seed)
	r.note("check = cycle search over the ww/wr/rw/so dependency graph, run in both version-order modes (per-key program order and commit stamps); cost is linear in ops+edges")
	r.traceOp(cfg, "txn.write-recorded", func(c *sim.Clock) {
		e := roster[0].build(cfg, oltpLayout())
		engine.Run(e, c, engine.RunOpts{Record: history.NewRecorder()}, func(tx engine.Tx) error {
			return tx.Write(1, make([]byte, oltpLayout().ValSize))
		})
	})
	return r
}
