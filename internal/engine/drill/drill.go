// Package drill holds one engine to the whole conformance contract at once:
// acked writes survive checkpoints and crashes, reads are isolated, and
// every cache tier serves at least what was acked. Concurrency control,
// coherence and recovery interact, so they are checked over one recorded
// history. Each entry point builds its engine, runs a seeded workload with
// every oracle attached and returns a Report: the conformance suite
// (enginetest) turns it into test failures, and experiment E26 tabulates
// it.
package drill

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/history"
	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/sim/admission"
	"github.com/disagglab/disagg/internal/sim/fault"
	"github.com/disagglab/disagg/internal/sim/profile"
	"github.com/disagglab/disagg/internal/wal"
)

// Builder builds a fresh engine on a substrate config and a table layout.
// The drill attaches fault injectors through cfg.Fault, so an engine must
// thread cfg into every simulated component it builds.
type Builder func(cfg *sim.Config, layout heap.Layout) engine.Engine

// Violation is one broken invariant and the flag that replays the run
// that broke it ("" when the run takes no seed).
type Violation struct {
	Msg    string
	Replay string
}

func (v Violation) String() string {
	if v.Replay == "" {
		return v.Msg
	}
	return v.Msg + " (replay: " + v.Replay + ")"
}

// Report is what one run of the drill found.
type Report struct {
	Label      string
	Seed       int64
	Violations []Violation
	// History is the stricter (more anomalies) of the checker's two
	// version-order reports; nil when the run ended before the check.
	History *history.Report
	// Commits, WriteErrs and ReadErrs count the workload's acknowledged
	// write transactions and its failed writes and reads; Retries is the
	// engine's count of retried executions.
	Commits, WriteErrs, ReadErrs, Retries int64
	Horizon                               wal.LSN // the recovery horizon the run ended on
	Log                                   string  // one line of the run's counters
	// Dump is the per-site telemetry and every flight timeline, rendered
	// only when there is a violation.
	Dump string
}

// Ok reports whether the run found no violation.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// fail records a violation under the report's label.
func (r *Report) fail(format string, args ...any) {
	v := Violation{Msg: fmt.Sprintf("[%s] ", r.Label) + fmt.Sprintf(format, args...)}
	if r.Seed != 0 {
		v.Replay = fmt.Sprintf("-seed=%d", r.Seed)
	}
	r.Violations = append(r.Violations, v)
}

// BatchWindow is the group-commit window of the batched runs.
const BatchWindow = 50 * time.Microsecond

// Batched enables group commit on e, which must be a GroupCommitter, in
// groups of Workers: seeded runs see both full-group (size) flushes and
// timeout flushes when stragglers leave groups partially filled.
func Batched(e engine.Engine) engine.Engine {
	engine.Caps(e).GroupCommitter.EnableGroupCommit(Workers, BatchWindow)
	return e
}

// retire closes e when it is an io.Closer: a retired compute node's caches
// hand their frames to the page free list.
func retire(e engine.Engine) {
	if c, ok := e.(io.Closer); ok {
		c.Close()
	}
}

// FaultConfig is base with a stats registry of its own and, unless p is
// nil, p's injector seeded with seed attached; label names the fabric.
func FaultConfig(base *sim.Config, p *fault.Profile, seed int64) (cfg *sim.Config, inj *fault.Injector, label string) {
	cfg = base.Clone()
	cfg.Stats = sim.NewRegistry()
	if p == nil {
		return cfg, nil, "clean"
	}
	inj = fault.New(seed, *p)
	cfg.Fault = inj
	return cfg, inj, p.Name
}

// Telemetry prefixes a failed report's dump with the per-site telemetry.
func (r *Report) Telemetry(stats *sim.Registry) {
	if !r.Ok() {
		r.Dump = fmt.Sprintf("per-site telemetry under profile %q:\n%s\n%s", r.Label, stats.String(), r.Dump)
	}
}

const (
	drillPhases = 3 // recorded workload phases in one cell
	// ckptRetries bounds checkpoint retries under fault profiles; a round
	// can fail when drops cost it quorum or tear its snapshot upload.
	ckptRetries = 5
)

// CheckpointWithRetry runs checkpoint rounds until one succeeds, returning
// the last error (nil on success). Retrying is safe by construction: a
// failed flush leaves the horizon unchanged and a failed truncation is
// idempotent debt the next round retires.
func CheckpointWithRetry(cp engine.Checkpointer, c *sim.Clock) error {
	var err error
	for i := 0; i < ckptRetries; i++ {
		if err = cp.Checkpoint(c); err == nil {
			return nil
		}
	}
	return err
}

// Run is one (fabric, seed) cell of the drill, on an engine build makes on
// base under profile p (nil: a clean fabric), with group commit when batch
// is set: three recorded workload phases with a retried checkpoint round
// after the first two, run under the live profile; then heal, the verifier
// session, a crash and recovery, and the verifier again. It checks the
// values seen in flight and at the end, the history at Serializable in
// both version-order modes, the history against the engine's counters,
// the recovery horizon against the durable LSN and, on a clean fabric,
// every site label the engine registered.
func Run(base *sim.Config, build Builder, p *fault.Profile, seed int64, batch bool) Report {
	cfg, inj, label := FaultConfig(base, p, seed)
	e := build(cfg, Layout())
	defer retire(e)
	if batch {
		e = Batched(e)
		label = "batched/" + label
	}
	w := NewWorkload(e, label, seed)
	w.rec = history.NewRecorder()
	w.drill(e, cfg, inj)
	rep := w.Report()
	st := e.Stats()
	rep.Retries = st.Retries.Load()
	faults := ""
	if inj != nil {
		faults = fmt.Sprintf(" faults={drops=%d dups=%d tears=%d delays=%d}", inj.Drops.Load(), inj.Dups.Load(), inj.Tears.Load(), inj.Delays.Load())
	}
	rep.Log = fmt.Sprintf("drill %s seed=%d: commits=%d writeErrs=%d readErrs=%d horizon=%d staleHits=%d invalidations=%d%s",
		label, seed, rep.Commits, rep.WriteErrs, rep.ReadErrs, rep.Horizon,
		st.StaleHits.Load(), st.Invalidations.Load(), faults)
	rep.Telemetry(cfg.Stats)
	return rep
}

// drill is Run's body on w and e. It records into w.rep, and returns early
// on a violation that leaves nothing further to check.
func (w *Workload) drill(e engine.Engine, cfg *sim.Config, inj *fault.Injector) {
	rep := &w.rep
	cp := engine.Caps(e).Checkpointer
	for phase := 0; phase < drillPhases; phase++ {
		w.Extend(rep.Seed+int64(phase), drillOps, nil)
		if cp == nil || phase == drillPhases-1 {
			continue
		}
		err := CheckpointWithRetry(cp, sim.NewClock())
		h := cp.RecoveryHorizon()
		if inj == nil && (err != nil || h == 0) {
			rep.fail("checkpoint round %d on a clean fabric: horizon %d, err %v", phase+1, h, err)
		}
		if h < rep.Horizon {
			rep.fail("recovery horizon moved backwards: %d -> %d", rep.Horizon, h)
		}
		rep.Horizon = h
	}
	// Verification runs on a healed fabric: the invariants are about what
	// the engine acknowledged, not about reads racing live faults.
	if inj != nil {
		inj.Heal()
	}
	if d, ok := e.(durableLSNer); ok && rep.Horizon > d.DurableLSN() {
		rep.fail("recovery horizon %d above durable LSN %d: truncation could discard unflushed commits", rep.Horizon, d.DurableLSN())
	}
	w.Verify("")
	if !w.CrashRecover(e) {
		return
	}
	if cp != nil && cp.RecoveryHorizon() < rep.Horizon {
		rep.fail("recovery horizon moved backwards across crash: %d -> %d", rep.Horizon, cp.RecoveryHorizon())
	}
	if w.commits.Load() == 0 {
		rep.fail("no transaction committed: fault rates starve the workload")
	}
	if !checkHistory(rep, w.rec, true) {
		return
	}
	checkHistoryStats(rep, e.Stats(), w.rec)
	// A label outside the `<component>.<op>` taxonomy would mis-attribute
	// latency in critical-path analysis and dodge fault-injection site
	// filters. Every optional path — checkpoint, replica read, crash and
	// recovery — has run by now.
	if inj == nil {
		sites := cfg.Stats.Sites()
		if len(sites) == 0 {
			rep.fail("no telemetry sites registered — the workload must exercise instrumented substrate")
		}
		for _, site := range sites {
			if err := profile.LintSite(site); err != nil {
				rep.fail("site label lint: %v", err)
			}
		}
	}
}

// checkHistory runs the checker over the recorded ops at Serializable with
// session order, in commit-stamp version order (which also validates that
// every engine exposes a sound commit timestamp) and, when every key has a
// single writer, in program order too (exact even for indeterminate
// writes). It keeps the stricter report in rep.History, and reports false
// when there is no checkable history.
func checkHistory(rep *Report, rec *history.Recorder, singleWriter bool) bool {
	ops := rec.Ops()
	if len(ops) == 0 {
		rep.fail("nothing recorded")
		return false
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
		h, err := history.Check(ops, history.Opts{Level: history.Serializable, SessionOrder: true, SingleWriter: sw})
		if err != nil {
			rep.fail("invalid history: %v", err)
			return false
		}
		for _, a := range h.Anomalies {
			rep.fail("%s: %s", mode, a)
		}
		if rep.History == nil || len(h.Anomalies) > len(rep.History.Anomalies) {
			rep.History = h
		}
	}
	return true
}

// checkHistoryStats cross-checks the recorded history against the engine's
// counters: every Run call is exactly one logical op, every execution
// (including conflict retries) exactly one attempt, and each attempt's
// outcome lands in exactly one engine counter. This is the retry-lineage
// conservation law — an aborted-then-retried transaction can be neither
// lost nor double-counted as a phantom second operation. It checks the
// engine's accounting law too (Conservation).
func checkHistoryStats(rep *Report, st *engine.Stats, rec *history.Recorder) {
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
		rep.fail("history/stats conservation: %s", fmt.Sprintf(format, args...))
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
	if err := Conservation(st); err != nil {
		rep.fail("%v", err)
	}
}

// Conservation checks the engine accounting law: every attempt offered to
// the engine landed in exactly one of Commits, Aborts and Shed, and there
// was an attempt.
func Conservation(st *engine.Stats) error {
	a, cm, ab, sh := st.Attempts.Load(), st.Commits.Load(), st.Aborts.Load(), st.Shed.Load()
	if a != cm+ab+sh {
		return fmt.Errorf("attempts accounting violated: attempts %d != commits %d + aborts %d + shed %d", a, cm, ab, sh)
	}
	if a == 0 {
		return fmt.Errorf("engine counted no attempts — the accounting law is vacuous")
	}
	return nil
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

// Contended drives the recorded hot-key storm on an engine build makes on
// base under profile p, with the full admission stack engaged (default
// backoff, shared retry budget, load shedder), heals, reads the hot keys
// back, and checks that (a) the run terminates within a bounded virtual
// makespan — failed attempts must charge time — (b) the multi-writer
// history is serializable in commit-stamp order, and (c) sheds and
// budget-exhausted retries reconcile with the engine's counters.
func Contended(base *sim.Config, build Builder, p *fault.Profile, seed int64) Report {
	cfg, inj, label := FaultConfig(base, p, seed)
	rep := Report{Label: "contended/" + label, Seed: seed}
	e := build(cfg, Layout())
	defer retire(e)
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
		rng := newRand(seed, id)
		done := 0
		for op := 0; op < ovOps; op++ {
			key := ovKeyBase + uint64(rng.Intn(ovHotKeys))
			if rmw(c, id, key, Val(key, uint64(id), uint64(op+1))) == nil {
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
	rep.Commits, rep.Retries = st.Commits.Load(), st.Retries.Load()
	rep.Log = fmt.Sprintf("%s: makespan=%v commits=%d aborts=%d shed=%d retries=%d backoffWait=%v budget=%+v shedder=%+v",
		rep.Label, res.MakeSpan, st.Commits.Load(), st.Aborts.Load(), st.Shed.Load(),
		st.Retries.Load(), time.Duration(st.BackoffWait.Load()), budget.Stats(), shed.Stats())
	if res.MakeSpan <= 0 {
		rep.fail("the storm charged no virtual time — retries are free again")
	}
	if res.MakeSpan > ovTimeBound {
		rep.fail("virtual makespan %v exceeds bound %v", res.MakeSpan, ovTimeBound)
	}
	if checkHistory(&rep, rec, false) {
		checkHistoryStats(&rep, st, rec)
	}
	rep.Telemetry(cfg.Stats)
	return rep
}

// twoWorkers runs body for two recorded workers under sim.RunGroup, on an
// engine build makes on base, with group commit when batch is set; body
// runs its worker's transaction through run. One of the two must fail
// validation once and retry: the report holds both to committing, the
// engine to one retry and the history to Serializable, in program order
// too when every key has a single writer.
func twoWorkers(base *sim.Config, build Builder, label string, batch, singleWriter bool, body func(id int, c *sim.Clock, run func(fn func(tx engine.Tx) error) error) error) Report {
	e := build(base.Clone(), Layout())
	defer retire(e)
	if batch {
		e = Batched(e)
		label = "batched/" + label
	}
	rec := history.NewRecorder()
	errs := make([]error, 2)
	sim.RunGroup(2, func(id int, c *sim.Clock) int {
		errs[id] = body(id, c, func(fn func(tx engine.Tx) error) error {
			return engine.Run(e, c, engine.RunOpts{Retries: 1, Record: rec, Session: id}, fn)
		})
		return 1
	})
	st := e.Stats()
	rep := Report{Label: label, Commits: st.Commits.Load(), Retries: st.Retries.Load()}
	for id, err := range errs {
		if err != nil {
			rep.fail("worker %d: %v", id, err)
			return rep
		}
	}
	if rep.Retries != 1 {
		rep.fail("%d retries, want 1: one transaction must fail validation once", rep.Retries)
	}
	checkHistory(&rep, rec, singleWriter)
	return rep
}

// held is twoWorkers for worker 0 running heldTx, which calls hold between
// two of its operations and waits there the first time until worker 1 has
// committed other; worker 1 starts once worker 0 waits.
func held(base *sim.Config, build Builder, label string, batch, singleWriter bool, heldTx func(tx engine.Tx, hold func()) error, other func(tx engine.Tx) error) Report {
	var holding, done atomic.Bool
	return twoWorkers(base, build, label, batch, singleWriter, func(id int, c *sim.Clock, run func(fn func(tx engine.Tx) error) error) error {
		if id == 1 {
			sim.Wait(c, holding.Load)
			defer done.Store(true)
			return run(other)
		}
		hold := func() {
			if !holding.Swap(true) {
				sim.Wait(c, done.Load)
			}
		}
		return run(func(tx engine.Tx) error { return heldTx(tx, hold) })
	})
}

// LostUpdate is the lost-update regression: two workers read-modify-write
// one key, the first held between its read and its commit until the second
// has committed. Reads take no locks, so both read the same version; the
// first commit must then fail validation and retry on the second's value
// instead of overwriting it.
func LostUpdate(base *sim.Config, build Builder, batch bool) Report {
	const key = ovKeyBase
	rmw := func(tx engine.Tx, writer uint64, hold func()) error {
		if _, err := tx.Read(key); err != nil {
			return err
		}
		hold()
		return tx.Write(key, Val(key, writer, 1))
	}
	return held(base, build, "lost-update", batch, false,
		func(tx engine.Tx, hold func()) error { return rmw(tx, 0, hold) },
		func(tx engine.Tx) error { return rmw(tx, 1, func() {}) })
}

// ReadSkew is the read-skew regression: a read-only transaction reads x, is
// held until another has committed a write of x and y, then reads y. It saw
// x before that commit and y after it, so it must fail validation and
// retry.
func ReadSkew(base *sim.Config, build Builder, batch bool) Report {
	const x, y = ovKeyBase, ovKeyBase + 1
	return held(base, build, "read-skew", batch, true, func(tx engine.Tx, hold func()) error {
		if _, err := tx.Read(x); err != nil {
			return err
		}
		hold()
		_, err := tx.Read(y)
		return err
	}, func(tx engine.Tx) error {
		if err := tx.Write(x, Val(x, 1, 1)); err != nil {
			return err
		}
		return tx.Write(y, Val(y, 1, 1))
	})
}

// WriteSkew is the write-skew regression: two workers both read x and y and
// wait until both have read; then worker 0 writes x and worker 1 writes y.
// Each read the key the other writes, so the second to commit must fail
// validation and retry, or the two form an rw cycle (G2). Under group
// commit the first sits in its batch holding its lock, not yet published,
// while the second validates: the held lock is all that shows it.
func WriteSkew(base *sim.Config, build Builder, batch bool) Report {
	const x, y = ovKeyBase, ovKeyBase + 1
	var read atomic.Int32
	return twoWorkers(base, build, "write-skew", batch, true, func(id int, c *sim.Clock, run func(fn func(tx engine.Tx) error) error) error {
		key := x + uint64(id)
		handed := false
		return run(func(tx engine.Tx) error {
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
			return tx.Write(key, Val(key, uint64(id), 1))
		})
	})
}
