package enginetest

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/history"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/sim/admission"
	"github.com/disagglab/disagg/internal/sim/fault"
	"github.com/disagglab/disagg/internal/sim/profile"
	"github.com/disagglab/disagg/internal/wal"
)

// The drill holds one engine to the whole contract at once: acked writes
// survive checkpoints and crashes, reads are isolated, and every cache tier
// serves at least what was acked. Concurrency control, coherence and
// recovery interact, so they are checked over one recorded history.
const drillPhases = 3

// runDrill is one (fabric, seed) cell of the drill: three recorded workload
// phases with a retried checkpoint round after the first two, run under the
// live profile; then heal, the verifier session, a crash and recovery, and
// the verifier again. It checks the values seen in flight and at the end,
// the history at Serializable in both version-order modes, the history
// against the engine's counters, the recovery horizon against the durable
// LSN and, on a clean fabric, every site label the engine registered.
func runDrill(t *testing.T, factory Factory, p *fault.Profile, seed int64, batch bool) {
	t.Helper()
	cfg, inj, label := faultConfig(p, seed)
	e := factory(t, cfg)
	if batch {
		e = batched(e)
		label = "batched/" + label
	}
	res := engineResult(e, Layout(t))
	res.rec = history.NewRecorder()
	cp := engine.Caps(e).Checkpointer
	var horizon wal.LSN
	for phase := 0; phase < drillPhases; phase++ {
		extendConformanceWorkload(res, seed+int64(phase), drillOps, nil)
		if cp == nil || phase == drillPhases-1 {
			continue
		}
		err := checkpointWithRetry(cp, sim.NewClock())
		h := cp.RecoveryHorizon()
		if inj == nil && (err != nil || h == 0) {
			t.Errorf("checkpoint round %d on a clean fabric: horizon %d, err %v", phase+1, h, err)
		}
		if h < horizon {
			t.Errorf("recovery horizon moved backwards: %d -> %d", horizon, h)
		}
		horizon = h
	}
	// Verification runs on a healed fabric: the invariants are about what
	// the engine acknowledged, not about reads racing live faults.
	if inj != nil {
		inj.Heal()
	}
	if d, ok := e.(durableLSNer); ok && horizon > d.DurableLSN() {
		t.Errorf("recovery horizon %d above durable LSN %d: truncation could discard unflushed commits", horizon, d.DurableLSN())
	}
	reportViolations(t, seed, label, verifyFinalState(res))
	crashRecoverVerify(t, e, res, seed, label)
	if cp != nil && cp.RecoveryHorizon() < horizon {
		t.Errorf("recovery horizon moved backwards across crash: %d -> %d", horizon, cp.RecoveryHorizon())
	}

	st := e.Stats()
	faults := ""
	if inj != nil {
		faults = fmt.Sprintf(" faults={drops=%d dups=%d tears=%d delays=%d}", inj.Drops.Load(), inj.Dups.Load(), inj.Tears.Load(), inj.Delays.Load())
	}
	t.Logf("drill %s seed=%d: commits=%d writeErrs=%d readErrs=%d horizon=%d staleHits=%d invalidations=%d%s",
		label, seed, res.commits.Load(), res.writeErrs.Load(), res.readErrs.Load(), horizon,
		st.StaleHits.Load(), st.Invalidations.Load(), faults)
	if res.commits.Load() == 0 {
		t.Errorf("no transaction committed under profile %q (seed %d): fault rates starve the workload", label, seed)
	}
	checkIsolationHistory(t, res.rec, label, seed, true)
	checkHistoryStats(t, e, res.rec, label, seed)
	checkConservation(t, e, label, seed)
	// A label outside the `<component>.<op>` taxonomy would mis-attribute
	// latency in critical-path analysis and dodge fault-injection site
	// filters. Every optional path — checkpoint, replica read, crash and
	// recovery — has run by now.
	if inj == nil {
		sites := cfg.Stats.Sites()
		if len(sites) == 0 {
			t.Errorf("no telemetry sites registered — the workload must exercise instrumented substrate")
		}
		for _, site := range sites {
			if err := profile.LintSite(site); err != nil {
				t.Errorf("site label lint: %v", err)
			}
		}
	}
	if t.Failed() {
		t.Logf("per-site telemetry under profile %q:\n%s", label, cfg.Stats.String())
		t.Logf("flight-recorder timelines under profile %q:\n%s", label, res.box.Dump())
	}
}

// Contended storm shape: many workers read-modify-writing few hot keys, the
// regime where a zero-delay retry loop livelocks. Reads take no locks, so it
// is commit validation that keeps this serializable: a read-modify-write
// whose read went stale before its lock fails and retries.
const (
	ovWorkers   = 8
	ovHotKeys   = 2
	ovOps       = 6
	ovKeyBase   = 90_000
	ovRetries   = 12
	ovTimeBound = 30 * time.Second // virtual; a livelocked run never gets here
)

// runContended drives the recorded hot-key storm with the full admission
// stack engaged (default backoff, shared retry budget, load shedder), heals,
// reads the hot keys back, and checks that (a) the run terminates within a
// bounded virtual makespan — failed attempts must charge time — (b) the
// multi-writer history is serializable in commit-stamp order, and (c) sheds
// and budget-exhausted retries reconcile with the engine's counters.
func runContended(t *testing.T, factory Factory, p *fault.Profile, seed int64) {
	t.Helper()
	layout := Layout(t)
	cfg, inj, label := faultConfig(p, seed)
	label = "contended/" + label
	e := factory(t, cfg)
	rec := history.NewRecorder()
	budget := admission.NewBudget(0.5, 8)
	shed := admission.NewShedder(ovWorkers / 2)
	rmw := func(c *sim.Clock, session int, key uint64, v []byte) error {
		opts := engine.RunOpts{Retries: ovRetries, Budget: budget, Shed: shed, Record: rec, Session: session}
		return engine.Run(e, c, opts, func(tx engine.Tx) error {
			if _, err := tx.Read(key); err != nil {
				return err
			}
			if v == nil {
				return nil
			}
			// Hand the turn over between the read and the write, so other
			// workers' commits land in between and validation has work.
			sim.Yield(c)
			return tx.Write(key, v)
		})
	}
	res := sim.RunGroup(ovWorkers, func(id int, c *sim.Clock) int {
		rng := newConfRand(seed, id)
		done := 0
		for op := 0; op < ovOps; op++ {
			key := ovKeyBase + uint64(rng.Intn(ovHotKeys))
			if rmw(c, id, key, confVal(layout, key, uint64(id), uint64(op+1))) == nil {
				done++
			}
		}
		return done
	})
	if inj != nil {
		inj.Heal()
	}
	c := sim.NewClock()
	for k := uint64(0); k < ovHotKeys; k++ {
		for attempt := 0; attempt < 3 && rmw(c, ovWorkers, ovKeyBase+k, nil) != nil; attempt++ {
		}
	}

	st := e.Stats()
	t.Logf("%s: makespan=%v commits=%d aborts=%d shed=%d retries=%d backoffWait=%v budget=%+v shedder=%+v",
		label, res.MakeSpan, st.Commits.Load(), st.Aborts.Load(), st.Shed.Load(),
		st.Retries.Load(), time.Duration(st.BackoffWait.Load()), budget.Stats(), shed.Stats())
	if res.MakeSpan <= 0 {
		t.Errorf("%s: the storm charged no virtual time — retries are free again (seed %d)", label, seed)
	}
	if res.MakeSpan > ovTimeBound {
		t.Errorf("%s: virtual makespan %v exceeds bound %v (seed %d)", label, res.MakeSpan, ovTimeBound, seed)
	}
	checkIsolationHistory(t, rec, label, seed, false)
	checkHistoryStats(t, e, rec, label, seed)
	checkConservation(t, e, label, seed)
	if t.Failed() {
		t.Logf("per-site telemetry under %q:\n%s", label, cfg.Stats.String())
	}
}

// runHeld runs held and other as two workers' transactions under
// sim.RunGroup. held calls hold between two of its operations, and waits
// there the first time until other has run; other starts once held waits.
// held must fail validation once and retry. The history is checked at
// Serializable, in program order too when every key has a single writer.
func runHeld(t *testing.T, factory Factory, label string, singleWriter bool, held func(tx engine.Tx, hold func()) error, other func(tx engine.Tx) error) {
	e := factory(t, sim.DefaultConfig())
	rec := history.NewRecorder()
	var holding, done atomic.Bool
	errs := make([]error, 2)
	sim.RunGroup(2, func(id int, c *sim.Clock) int {
		opts := engine.RunOpts{Retries: 1, Record: rec, Session: id}
		if id == 1 {
			sim.Wait(c, holding.Load)
			errs[id] = engine.Run(e, c, opts, other)
			done.Store(true)
			return 1
		}
		hold := func() {
			if !holding.Swap(true) {
				sim.Wait(c, done.Load)
			}
		}
		errs[id] = engine.Run(e, c, opts, func(tx engine.Tx) error { return held(tx, hold) })
		return 1
	})
	checkRetriedOnce(t, e, rec, errs, label, singleWriter)
}

// checkRetriedOnce checks a two-worker regression run: both workers
// committed, one of them after failing validation exactly once, and the
// history is serializable.
func checkRetriedOnce(t *testing.T, e engine.Engine, rec *history.Recorder, errs []error, label string, singleWriter bool) {
	t.Helper()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", id, err)
		}
	}
	if got := e.Stats().Retries.Load(); got != 1 {
		t.Errorf("%d retries, want 1: one transaction must fail validation once", got)
	}
	checkIsolationHistory(t, rec, label, Seed(), singleWriter)
}

// runLostUpdate is the lost-update regression: two workers read-modify-
// write one key, the first held between its read and its commit until the
// second has committed. Reads take no locks, so both read the same version;
// the first commit must then fail validation and retry on the second's
// value instead of overwriting it.
func runLostUpdate(t *testing.T, factory Factory) {
	layout := Layout(t)
	const key = ovKeyBase
	rmw := func(tx engine.Tx, writer uint64, hold func()) error {
		if _, err := tx.Read(key); err != nil {
			return err
		}
		hold()
		return tx.Write(key, confVal(layout, key, writer, 1))
	}
	runHeld(t, factory, "lost-update", false,
		func(tx engine.Tx, hold func()) error { return rmw(tx, 0, hold) },
		func(tx engine.Tx) error { return rmw(tx, 1, func() {}) })
}

// runReadSkew is the read-skew regression: a read-only transaction reads x,
// is held until another has committed a write of x and y, then reads y. It
// saw x before that commit and y after it, so it must fail validation and
// retry.
func runReadSkew(t *testing.T, factory Factory) {
	layout := Layout(t)
	const x, y = ovKeyBase, ovKeyBase + 1
	runHeld(t, factory, "read-skew", true, func(tx engine.Tx, hold func()) error {
		if _, err := tx.Read(x); err != nil {
			return err
		}
		hold()
		_, err := tx.Read(y)
		return err
	}, func(tx engine.Tx) error {
		if err := tx.Write(x, confVal(layout, x, 1, 1)); err != nil {
			return err
		}
		return tx.Write(y, confVal(layout, y, 1, 1))
	})
}

// runWriteSkew is the write-skew regression: two workers both read x and y
// and wait until both have read; then worker 0 writes x and worker 1 writes
// y. Each read the key the other writes, so the second to commit must fail
// validation and retry, or the two form an rw cycle (G2). Under group commit
// the first sits in its batch holding its lock, not yet published, while the
// second validates: the held lock is all that shows it.
func runWriteSkew(t *testing.T, factory Factory) {
	layout := Layout(t)
	const x, y = ovKeyBase, ovKeyBase + 1
	e := factory(t, sim.DefaultConfig())
	rec := history.NewRecorder()
	var read atomic.Int32
	errs := make([]error, 2)
	sim.RunGroup(2, func(id int, c *sim.Clock) int {
		key := x + uint64(id)
		handed := false
		errs[id] = engine.Run(e, c, engine.RunOpts{Retries: 1, Record: rec, Session: id}, func(tx engine.Tx) error {
			for _, k := range [...]uint64{x, y} {
				if _, err := tx.Read(k); err != nil {
					return err
				}
			}
			if !handed {
				handed = true
				read.Add(1)
				sim.Wait(c, func() bool { return read.Load() == 2 })
			}
			return tx.Write(key, confVal(layout, key, uint64(id), 1))
		})
		return 1
	})
	checkRetriedOnce(t, e, rec, errs, "write-skew", true)
}

// checkIsolationHistory runs the checker over the recorded ops at
// Serializable with session order, in commit-stamp version order (which
// also validates that every engine exposes a sound commit timestamp) and,
// when every key has a single writer, in program order too (exact even for
// indeterminate writes).
func checkIsolationHistory(t *testing.T, rec *history.Recorder, label string, seed int64, singleWriter bool) {
	t.Helper()
	ops := rec.Ops()
	if len(ops) == 0 {
		t.Fatalf("[%s] nothing recorded (seed %d)", label, seed)
	}
	modes := []bool{false}
	if singleWriter {
		modes = append(modes, true)
	}
	for _, sw := range modes {
		mode := "stamp/serializable"
		if sw {
			mode = "program-order/serializable"
		}
		rep, err := history.Check(ops, history.Opts{Level: history.Serializable, SessionOrder: true, SingleWriter: sw})
		if err != nil {
			t.Fatalf("[%s] invalid history: %v (replay: -seed=%d)", label, err, seed)
		}
		for _, a := range rep.Anomalies {
			t.Errorf("[%s %s] %s", label, mode, a)
		}
		if !rep.Ok() {
			t.Errorf("%d isolation anomaly(ies) under %q (%s, %s) — replay with: go test -run Conformance -seed=%d",
				len(rep.Anomalies), label, mode, rep.Summary(), seed)
		}
	}
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

// checkConservation asserts the engine accounting invariant: every attempt
// offered to the engine landed in exactly one of Commits, Aborts, or Shed.
func checkConservation(t *testing.T, e engine.Engine, label string, seed int64) {
	t.Helper()
	st := e.Stats()
	a, cm, ab, sh := st.Attempts.Load(), st.Commits.Load(), st.Aborts.Load(), st.Shed.Load()
	if a != cm+ab+sh {
		t.Errorf("%s: attempts accounting violated: attempts %d != commits %d + aborts %d + shed %d (replay: -seed=%d)",
			label, a, cm, ab, sh, seed)
	}
	if a == 0 {
		t.Errorf("%s: engine counted no attempts — the conservation check is vacuous", label)
	}
}
