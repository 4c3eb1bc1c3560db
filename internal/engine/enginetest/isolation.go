package enginetest

import (
	"flag"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/history"
	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/sim/admission"
	"github.com/disagglab/disagg/internal/sim/fault"
)

// isoSeedsFlag is the schedule-exploration width: every Isolation variant
// sweeps this many derived seeds, so each engine is checked against that
// many distinct interleavings and fault schedules per profile. A failing
// seed is printed with every anomaly for exact replay.
var isoSeedsFlag = flag.Int("isoseeds", 8, "seeds swept per Isolation conformance variant")

// Isolation workload shape. Like the base conformance workload, each
// worker owns a disjoint key range (single-writer keys make the per-key
// version order exact); unlike it, every operation is recorded and the
// verdict comes from history.Check over the dependency graph, not from
// counter invariants. Foreign reads (always single-key) and
// replica-routed reads create the cross-session write-read and
// anti-dependency edges that make cycles possible at all.
const (
	isoWorkers  = 4
	isoOps      = 24
	isoKeysEach = 4
	isoKeyBase  = 80_000
	isoRetries  = 25

	// Contended variant: every worker read-modify-writes the same few hot
	// keys with the admission stack engaged. Reads take no locks, so it is
	// commit validation that keeps this serializable: a read-modify-write
	// whose read went stale before its lock fails and retries.
	isoHotKeys  = 2
	isoHotBase  = 90_000
	isoHotOps   = 16
	isoHotRetry = 12
)

// isoSeed derives the i-th sweep seed from the suite seed.
func isoSeed(base int64, i int) int64 { return base + int64(i)*7919 }

// isolationWorkload drives the concurrent recorded phase. When contended
// is false, workers write only their own keys (read-modify-write or
// blind) and read foreign keys one at a time; when true, all workers
// hammer the shared hot keys. Replica-capable engines route a slice of
// reads through replica 0 — including re-reads of keys the session has
// itself written, the probe that turns a permanently stale replica cache
// into a session-order cycle.
func isolationWorkload(e engine.Engine, layout heap.Layout, seed int64, rec *history.Recorder, contended bool, adm engine.RunOpts) {
	isReader := engine.Caps(e).Reader != nil
	ops := isoOps
	if contended {
		ops = isoHotOps
	}
	sim.RunGroup(isoWorkers, func(id int, c *sim.Clock) int {
		rng := sim.NewRand(seed, id)
		seq := map[uint64]uint64{}
		run := func(replica int, fn func(tx engine.Tx) error) error {
			opts := adm
			opts.Retries = isoRetries
			if contended {
				opts.Retries = isoHotRetry
			}
			opts.Record, opts.Session, opts.Replica = rec, id, replica
			return engine.Run(e, c, opts, fn)
		}
		write := func(key uint64, readFirst bool) {
			seq[key]++
			v := confVal(layout, key, uint64(id), seq[key])
			err := run(0, func(tx engine.Tx) error {
				if readFirst {
					if _, err := tx.Read(key); err != nil {
						return err
					}
				}
				return tx.Write(key, v)
			})
			if err != nil {
				// Unacknowledged: the recorded outcome (aborted vs
				// indeterminate) is what the checker reasons from. Burn
				// the seq so no (key, worker, seq) value is ever reused.
				seq[key]++
			}
		}
		read := func(key uint64, replica int) {
			_ = run(replica, func(tx engine.Tx) error {
				_, err := tx.Read(key)
				return err
			})
		}
		ownKey := func() uint64 {
			if contended {
				return isoHotBase + uint64(rng.Intn(isoHotKeys))
			}
			return isoKeyBase + uint64(id)*isoKeysEach + uint64(rng.Intn(isoKeysEach))
		}
		foreignKey := func() uint64 {
			if contended {
				return isoHotBase + uint64(rng.Intn(isoHotKeys))
			}
			other := (id + 1 + rng.Intn(isoWorkers-1)) % isoWorkers
			return isoKeyBase + uint64(other)*isoKeysEach + uint64(rng.Intn(isoKeysEach))
		}
		for op := 0; op < ops; op++ {
			switch roll := rng.Intn(100); {
			case roll < 55:
				write(ownKey(), true) // read-modify-write
			case roll < 70:
				write(ownKey(), false) // blind write
			case roll < 90:
				read(foreignKey(), 0)
			default:
				if isReader {
					// Replica probe: re-read a key this session owns on
					// replica 0 (RunOpts.Replica is 1-based).
					read(ownKey(), 1)
				} else {
					read(foreignKey(), 0)
				}
			}
		}
		return ops
	})
}

// isolationVerify appends the verifier session: one recorded single-key
// read per workload key, issued after the caller healed the fabric. In
// history terms this is the "acked writes are visible" check — a key
// whose final read surfaces an old version shows up as a dependency cycle
// through the verifier's session-order edges. Reads are single-key on
// purpose: the engines offer no multi-key read snapshots, so a multi-key
// verifier transaction could legitimately observe a fractured state.
func isolationVerify(e engine.Engine, rec *history.Recorder, contended bool, adm engine.RunOpts) {
	c := sim.NewClock()
	verify := func(key uint64) {
		for attempt := 0; attempt < 3; attempt++ {
			opts := adm
			opts.Retries = isoRetries
			opts.Record, opts.Session = rec, isoWorkers
			err := engine.Run(e, c, opts, func(tx engine.Tx) error {
				_, err := tx.Read(key)
				return err
			})
			if err == nil {
				return
			}
		}
	}
	if contended {
		for k := uint64(0); k < isoHotKeys; k++ {
			verify(isoHotBase + k)
		}
		return
	}
	for id := 0; id < isoWorkers; id++ {
		for k := uint64(0); k < isoKeysEach; k++ {
			verify(isoKeyBase + uint64(id)*isoKeysEach + k)
		}
	}
}

// reportAnomalies fails the test with every anomaly, its minimal witness
// cycle, and the exact replay command.
func reportAnomalies(t *testing.T, rep *history.Report, label string, seed int64, mode string) {
	t.Helper()
	if rep.Ok() {
		return
	}
	for _, a := range rep.Anomalies {
		t.Errorf("[%s %s] %s", label, mode, a)
	}
	t.Errorf("%d isolation anomaly(ies) under %q (%s, %s) — replay with: go test -run Conformance/Isolation -seed=%d",
		len(rep.Anomalies), label, mode, rep.Summary(), seed)
}

// checkIsolationHistory runs the checker over the recorded ops. The
// single-writer workload is checked at Serializable with session order in
// BOTH version-order modes: program order (exact even for indeterminate
// writes) and commit stamps (additionally validating that every engine
// exposes a sound commit timestamp). The contended workload has
// multi-writer keys, so only stamp order applies.
func checkIsolationHistory(t *testing.T, rec *history.Recorder, label string, seed int64, contended bool) {
	t.Helper()
	ops := rec.Ops()
	if !contended {
		exact, err := history.Check(ops, history.Opts{Level: history.Serializable, SessionOrder: true, SingleWriter: true})
		if err != nil {
			t.Fatalf("[%s] invalid history: %v (replay: -seed=%d)", label, err, seed)
		}
		reportAnomalies(t, exact, label, seed, "program-order/serializable")
	}
	stamp, err := history.Check(ops, history.Opts{Level: history.Serializable, SessionOrder: true})
	if err != nil {
		t.Fatalf("[%s] invalid history: %v (replay: -seed=%d)", label, err, seed)
	}
	reportAnomalies(t, stamp, label, seed, "stamp/serializable")
}

// checkHistoryStats cross-checks the recorded history against the
// engine's counters: every Run call is exactly one logical op, every
// execution (including conflict retries) exactly one attempt, and each
// attempt's outcome lands in exactly one engine counter. This is the
// retry-lineage conservation law — an aborted-then-retried transaction
// can be neither lost nor double-counted as a phantom second operation.
func checkHistoryStats(t *testing.T, e engine.Engine, rec *history.Recorder, label string, seed int64) {
	t.Helper()
	st := e.Stats()
	nops, attempts, _ := rec.Counts()
	var committed, aborted, indet, shed int
	for _, op := range rec.Ops() {
		for _, att := range op.Attempts {
			switch att.Outcome {
			case history.Committed:
				committed++
			case history.Aborted:
				aborted++
			case history.Indeterminate, history.Open:
				indet++
			case history.Shed:
				shed++
			}
		}
	}
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("[%s] history/stats conservation: %s (replay: -seed=%d)", label, fmt.Sprintf(format, args...), seed)
	}
	if got := st.Attempts.Load(); int64(attempts) != got {
		fail("recorded %d attempts, engine counted %d", attempts, got)
	}
	if got := st.Retries.Load(); int64(attempts-nops) != got {
		fail("attempts(%d) - ops(%d) = %d retried executions, engine counted %d — a retried op must stay ONE logical op",
			attempts, nops, attempts-nops, got)
	}
	if got := st.Commits.Load(); int64(committed) != got {
		fail("recorded %d commits, engine counted %d", committed, got)
	}
	if got := st.Shed.Load(); int64(shed) != got {
		fail("recorded %d shed attempts, engine counted %d", shed, got)
	}
	if got := st.Aborts.Load(); int64(aborted+indet) != got {
		fail("recorded %d aborted + %d indeterminate attempts, engine counted %d aborts", aborted, indet, got)
	}
	if got := st.Indeterminates.Load(); int64(indet) != got {
		fail("recorded %d indeterminate attempts, Stats.Indeterminates = %d", indet, got)
	}
}

// runIsolationVariant is one (profile, seed) cell of the sweep: build a
// fresh engine, run the recorded workload under live faults, heal, run
// the verifier session, then check the history and the conservation laws.
func runIsolationVariant(t *testing.T, factory Factory, p *fault.Profile, seed int64, contended, batch bool) {
	t.Helper()
	layout := Layout(t)
	cfg := sim.DefaultConfig()
	var inj *fault.Injector
	label := "clean"
	if p != nil {
		inj = fault.New(seed, *p)
		cfg.Fault = inj
		cfg.Stats = sim.NewRegistry()
		label = p.Name
	}
	if contended {
		label = "contended/" + label
	}
	if batch {
		label = "batched/" + label
	}
	e := factory(t, cfg)
	if batch {
		e = batched(e)
	}
	rec := history.NewRecorder()
	var adm engine.RunOpts
	if contended {
		// The full admission stack, as in the Overload variants: sheds
		// and budget-exhausted retries must reconcile with the history.
		adm.Budget = admission.NewBudget(0.5, 8)
		adm.Shed = admission.NewShedder(isoWorkers / 2)
	}
	isolationWorkload(e, layout, seed, rec, contended, adm)
	if inj != nil {
		// The verifier runs on a healed fabric: the history check is
		// about what the engine acknowledged, not reads racing faults.
		inj.Heal()
	}
	isolationVerify(e, rec, contended, adm)
	nops, attempts, events := rec.Counts()
	if inj != nil {
		t.Logf("isolation %s seed=%d: ops=%d attempts=%d events=%d faults={drops=%d dups=%d tears=%d delays=%d}",
			label, seed, nops, attempts, events, inj.Drops.Load(), inj.Dups.Load(), inj.Tears.Load(), inj.Delays.Load())
	} else {
		t.Logf("isolation %s seed=%d: ops=%d attempts=%d events=%d", label, seed, nops, attempts, events)
	}
	if nops == 0 {
		t.Fatalf("isolation %s: nothing recorded (seed %d)", label, seed)
	}
	checkIsolationHistory(t, rec, label, seed, contended)
	checkHistoryStats(t, e, rec, label, seed)
	if t.Failed() && cfg.Stats != nil {
		t.Logf("per-site telemetry under %q:\n%s", label, cfg.Stats.String())
	}
}

// runIsolation sweeps the seeds for one variant configuration.
func runIsolation(t *testing.T, factory Factory, p *fault.Profile, contended, batch bool) {
	t.Helper()
	base := Seed()
	for i := 0; i < *isoSeedsFlag; i++ {
		seed := isoSeed(base, i)
		t.Run(fmt.Sprintf("seed%d", i), func(t *testing.T) {
			runIsolationVariant(t, factory, p, seed, contended, batch)
		})
	}
}

// runLostUpdate is the lost-update regression: two workers read-modify-
// write one key, the first held by a sim.Wait between its read and its
// commit until the second has committed. Reads take no locks, so both read
// the same version; the first commit must then fail validation and retry on
// the second's value instead of overwriting it. Checked at Serializable.
func runLostUpdate(t *testing.T, factory Factory) {
	layout := Layout(t)
	e := factory(t, sim.DefaultConfig())
	rec := history.NewRecorder()
	const key = isoHotBase
	var read, committed atomic.Bool
	errs := make([]error, 2)
	sim.RunGroup(2, func(id int, c *sim.Clock) int {
		hold := id == 0
		if !hold {
			sim.Wait(c, read.Load)
		}
		v := confVal(layout, key, uint64(id), 1)
		errs[id] = engine.Run(e, c, engine.RunOpts{Retries: 1, Record: rec, Session: id}, func(tx engine.Tx) error {
			if _, err := tx.Read(key); err != nil {
				return err
			}
			if hold {
				hold = false
				read.Store(true)
				sim.Wait(c, committed.Load)
			}
			return tx.Write(key, v)
		})
		committed.Store(true)
		return 1
	})
	for id, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", id, err)
		}
	}
	if got := e.Stats().Retries.Load(); got != 1 {
		t.Errorf("%d retries, want 1: the held read-modify-write must fail validation once", got)
	}
	checkIsolationHistory(t, rec, "lost-update", Seed(), true)
}
