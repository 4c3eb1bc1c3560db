// Package engine defines the common contract implemented by every OLTP
// engine in the repository (monolithic, shared-nothing, Aurora, PolarDB,
// Socrates, Taurus, PolarDB Serverless, LegoBase, PilotDB, Snowflake-KV) so
// that workloads, failure drills, and experiments run unchanged across
// architectures, and the one commit pipeline (commit.go) that nine of the
// ten share: an engine supplies four hooks — where a read is served, where
// the log becomes durable, where pages are materialised, which caches must
// hear about it. A commit prepares (its records reserved in the log, seen
// by no reader, and made durable) and then commits (the records decided,
// visible and applied). Each of the nine embeds that compute node, a
// *Pipeline, and with it Execute, Stats, Crash, Close and the rest.
package engine

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/disagglab/disagg/internal/engine/history"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/sim/admission"
	"github.com/disagglab/disagg/internal/sim/profile"
	"github.com/disagglab/disagg/internal/wal"
)

// Tx is the per-transaction handle given to workload closures.
type Tx interface {
	// Read returns the current value of key.
	Read(key uint64) ([]byte, error)
	// Write stages an update of key to val (visible at commit). val is
	// copied, so the caller may reuse it once Write returns; what is
	// stored has the layout's value size (heap.Layout.Fit).
	Write(key uint64, val []byte) error
}

// Engine is a transactional KV engine over a fixed keyspace of fixed-size
// values (the heap.Layout record model).
type Engine interface {
	// Name identifies the architecture in experiment tables.
	Name() string
	// Execute runs fn as one transaction on the worker's clock,
	// committing on nil return. Conflicts surface as ErrConflict (the
	// caller may retry with a fresh transaction).
	Execute(c *sim.Clock, fn func(tx Tx) error) error
	// Stats exposes the engine's traffic counters.
	Stats() *Stats
}

// Recoverer is implemented by engines that support crash-recovery drills.
type Recoverer interface {
	// Crash simulates losing all volatile compute-node state.
	Crash()
	// Recover rebuilds a usable compute node, charging recovery work to
	// the clock, and returns the recovery time.
	Recover(c *sim.Clock) (time.Duration, error)
}

// Reader is implemented by engines with read replicas.
type Reader interface {
	// ReadReplica executes a read-only transaction on replica idx.
	ReadReplica(c *sim.Clock, idx int, fn func(tx Tx) error) error
}

// Stamper is implemented by transaction handles that deliver the engine's
// commit timestamp (commit-record LSN or commit sequence number) to a
// destination registered from inside the transaction: the handle is only
// valid until Execute returns, so the stamp cannot be asked for afterwards.
// StagedTx implements it; engines stamp at their durability point. Run
// uses it to fill history records: a stamped-but-errored attempt is
// "durable but unacknowledged" — its effects may legally surface later.
type Stamper interface {
	StampTo(dst *uint64)
}

// Checkpointer is implemented by engines that bound crash recovery: a
// checkpoint makes durable page state cover every acked commit up to a
// recovery horizon, publishes the horizon, and truncates log state below
// it — so Recover replays only the post-horizon tail instead of the full
// history.
type Checkpointer interface {
	// Checkpoint runs one checkpoint round on the caller's clock: flush
	// durable page state, publish the new recovery horizon, truncate log
	// state below it. Safe to call concurrently with transactions; a
	// commit acked during the round lands above the captured horizon and
	// survives in the retained log tail.
	Checkpoint(c *sim.Clock) error
	// RecoveryHorizon reports the published horizon: every commit at or
	// below it is covered by checkpointed page state, and recovery replays
	// only records above it.
	RecoveryHorizon() wal.LSN
}

// GroupCommitter is implemented by engines whose commit path can ride a
// shared group flush (sim.Batcher): concurrent committers are combined
// into one replicated log append and wake with the same durable LSN.
type GroupCommitter interface {
	// EnableGroupCommit turns on commit batching: flushes trigger at
	// maxItems riders or after the virtual window, whichever first.
	EnableGroupCommit(maxItems int, window time.Duration)
}

// Capability reports which optional interfaces an engine implements, with
// the already-asserted views filled in. It consolidates the scattered
// `e.(engine.Recoverer)`-style type assertions the conformance suite,
// chaos drills, harness, and fleet router previously each did on their
// own: call Caps once, then branch on the fields.
type Capability struct {
	// Recoverer is non-nil when the engine supports crash-recovery drills.
	Recoverer Recoverer
	// Reader is non-nil when the engine has read replicas.
	Reader Reader
	// GroupCommitter is non-nil when the commit path can ride a shared
	// group flush.
	GroupCommitter GroupCommitter
	// Checkpointer is non-nil when the engine can bound recovery by
	// checkpointing and truncating its logs.
	Checkpointer Checkpointer
}

// Caps discovers e's optional capabilities.
func Caps(e Engine) Capability {
	var c Capability
	c.Recoverer, _ = e.(Recoverer)
	c.Reader, _ = e.(Reader)
	c.GroupCommitter, _ = e.(GroupCommitter)
	c.Checkpointer, _ = e.(Checkpointer)
	return c
}

// DeliverStamp asks tx, from inside its transaction, to write its commit
// stamp to dst when the engine reaches its durability point; dst stays 0 if
// it never does or the handle is not a Stamper. The capability lives on Tx
// handles, not engines, so it is discovered per-transaction rather than
// through Caps.
func DeliverStamp(tx Tx, dst *uint64) {
	if s, ok := tx.(Stamper); ok {
		s.StampTo(dst)
	}
}

// Common engine errors.
var (
	ErrConflict    = errors.New("engine: transaction conflict")
	ErrReadOnly    = errors.New("engine: read-only replica")
	ErrUnavailable = errors.New("engine: service unavailable")
	// ErrShed is returned by Run when admission control refuses the
	// transaction before it reaches the engine: the circuit breaker is
	// open or the load shedder's in-flight watermark is full. Shed work
	// charges no virtual time — fast-fail is the point.
	ErrShed = errors.New("engine: shed by admission control")
)

// errDown is a crashed compute node's refusal (Shed): callers see
// ErrUnavailable, and Run records a shed, as the node's Stats count it.
var errDown = fmt.Errorf("%w: compute node down", ErrUnavailable)

// Unavail maps a substrate failure surfaced during commit to the engine
// error contract: the caller sees ErrUnavailable either way, but an
// admission-control shed keeps its sim.ErrAdmission sentinel in the chain.
// Deliberate load shedding must stay distinguishable from an outage — a
// circuit breaker watching ErrUnavailable would otherwise count a gate's
// targeted sheds as node failures and convert them into blanket refusal.
func Unavail(err error) error {
	if errors.Is(err, sim.ErrAdmission) {
		return fmt.Errorf("%w: %w", ErrUnavailable, err)
	}
	return ErrUnavailable
}

// Stats counts cross-component traffic attributable to the engine. All
// fields are atomic; Stats is shared freely.
type Stats struct {
	// Attempts counts transaction executions offered to the engine: every
	// Execute/ReadReplica entry plus every Run-level admission refusal.
	// Each attempt lands in exactly one of Commits, Aborts, or Shed —
	// Attempts == Commits + Aborts + Shed is the accounting invariant the
	// conformance suite enforces.
	Attempts atomic.Int64
	Commits  atomic.Int64
	Aborts   atomic.Int64
	// Shed counts attempts refused without doing work: engine-side
	// unavailability (crashed node) and Run-level admission refusals
	// (open breaker, full shedder, replica routing to a non-Reader).
	Shed        atomic.Int64
	NetBytes    atomic.Int64 // bytes crossing the network fabric
	LogBytes    atomic.Int64 // bytes of log shipped
	PageBytes   atomic.Int64 // bytes of full pages shipped
	StorageOps  atomic.Int64
	CacheHits   atomic.Int64
	CacheMisses atomic.Int64
	// Group-commit counters (zero unless EnableGroupCommit was called).
	GroupCommits   atomic.Int64 // commits that rode a shared flush
	GroupFlushes   atomic.Int64 // combined flushes issued
	FlushOnSize    atomic.Int64 // flushes triggered by a full batch
	FlushOnTimeout atomic.Int64 // flushes triggered by the virtual window
	// Retry/backoff counters (filled by Run).
	Retries     atomic.Int64 // conflict re-executions Run performed, each after a backoff
	BackoffWait atomic.Int64 // total virtual ns spent backing off
	// Indeterminates counts recorded attempts whose commit fate is
	// unknown: the transaction reached its engine's durability point
	// (commit stamp assigned) but the commit was never acknowledged, or
	// it failed in a way the engine cannot prove had no effect. Filled by
	// Run when history recording is on; a sub-count of Aborts, not a new
	// leg of the Attempts == Commits + Aborts + Shed invariant.
	Indeterminates atomic.Int64
	// Coherence counters (zero unless the engine wires a
	// coherence.Directory): invalidation notices delivered to holder
	// tiers at commit publishes, and cached copies rejected by
	// commit-stamp validation.
	Invalidations atomic.Int64
	StaleHits     atomic.Int64
}

// Reset zeroes every counter.
func (s *Stats) Reset() {
	s.Attempts.Store(0)
	s.Commits.Store(0)
	s.Aborts.Store(0)
	s.Shed.Store(0)
	s.NetBytes.Store(0)
	s.LogBytes.Store(0)
	s.PageBytes.Store(0)
	s.StorageOps.Store(0)
	s.CacheHits.Store(0)
	s.CacheMisses.Store(0)
	s.GroupCommits.Store(0)
	s.GroupFlushes.Store(0)
	s.FlushOnSize.Store(0)
	s.FlushOnTimeout.Store(0)
	s.Retries.Store(0)
	s.BackoffWait.Store(0)
	s.Indeterminates.Store(0)
	s.Invalidations.Store(0)
	s.StaleHits.Store(0)
}

// BytesPerCommit reports average network bytes per committed transaction —
// the E1 headline metric.
func (s *Stats) BytesPerCommit() float64 {
	c := s.Commits.Load()
	if c == 0 {
		return 0
	}
	return float64(s.NetBytes.Load()) / float64(c)
}

// RunOpts controls how Run executes a transaction. The zero value means
// "one attempt on the primary", so Run(e, c, RunOpts{}, fn) is exactly
// e.Execute(c, fn).
type RunOpts struct {
	// Retries is the number of automatic re-executions after ErrConflict
	// (so the transaction runs at most Retries+1 times). Other errors
	// pass through immediately. Every retry first waits out
	// admission.Wait's backoff on the clock: zero-delay retrying livelocks
	// the virtual-time model (failed attempts add meter demand without
	// advancing the clock).
	Retries int
	// Replica, when > 0, runs the transaction read-only on read replica
	// Replica-1 (the engine must implement Reader). 0 targets the
	// primary. A replica read that conflicts retries on the *same*
	// replica with backoff (replica state only converges with time, so
	// backing off is also what makes the retry likely to succeed); after
	// Retries/Budget are exhausted the error surfaces to the caller,
	// which may re-route. Requesting a replica from an engine without
	// read replicas sheds immediately with ErrUnavailable.
	Replica int
	// Budget, when non-nil, is the per-client retry budget: each Run
	// earns it, each retry spends from it, and a dry budget surfaces the
	// last error instead of retrying. Share one Budget across a client's
	// workers to bound global retry amplification.
	Budget *admission.Budget
	// Breaker, when non-nil, converts sustained ErrUnavailable into
	// fast-fail: while open, Run sheds immediately with ErrShed instead
	// of dispatching to a dead engine; a half-open probe closes it again.
	Breaker *admission.Breaker
	// Shed, when non-nil, bounds in-flight transactions: arrivals past
	// its watermark fail immediately with ErrShed, charging no virtual
	// time.
	Shed *admission.Shedder
	// Record, when non-nil, is the history sink: Run records one
	// history.Op per call with one attempt per execution (retry lineage
	// explicit), capturing every read and write with virtual timestamps,
	// the replica routing, and the per-attempt outcome and commit stamp.
	// The recorded history feeds history.Check after the workload
	// quiesces. Recording costs one map-free wrapper per attempt and an
	// event append per access.
	Record *history.Recorder
	// Session identifies the issuing client/worker in the recorded
	// history (program order within a session is meaningful to the
	// checker). Ignored unless Record is set.
	Session int
	// Profile, when non-nil, profiles every Run call end to end: the
	// transaction executes under a fresh span tree whose analysis
	// (critical-path component attribution, tail-exemplar retention, SLO
	// observation) is folded into the profiler at completion. A nil
	// Profile costs one branch — the disabled path stays zero-alloc.
	Profile *profile.Profiler
}

// Run executes fn as one transaction on e per opts. It is the single
// entry point workloads, experiments, and the conformance suite use
// (cluster.Fleet wraps it per routed member in fleet mode); Execute is the
// engine-side primitive, not a client API.
//
// Run maintains the engine accounting invariant: every call adds, per
// attempt, exactly one of Commits/Aborts (inside the engine) or Shed
// (here, for admission refusals) to the engine's Stats, and Attempts
// counts them all.
//
// Run begins with a sim.Yield: under sim.RunGroup each transaction is a turn,
// started by whichever worker is earliest in virtual time.
func Run(e Engine, c *sim.Clock, opts RunOpts, fn func(tx Tx) error) error {
	sim.Yield(c)
	if opts.Profile == nil {
		return run(e, c, opts, fn)
	}
	ptx := opts.Profile.Begin(c)
	err := run(e, c, opts, fn)
	ptx.End(err)
	return err
}

// run is Run's body; the wrapper brackets it with the profiler so every
// return path lands in exactly one profiled transaction.
func run(e Engine, c *sim.Clock, opts RunOpts, fn func(tx Tx) error) error {
	st := e.Stats()
	var op *history.Op
	if opts.Record != nil {
		op = opts.Record.Begin(opts.Session, opts.Replica)
	}
	shed := func() {
		st.Attempts.Add(1)
		st.Shed.Add(1)
		c.Emit(sim.Event{T: c.Now(), Kind: sim.EvShed, Site: "txn"})
		if op != nil {
			op.NewAttempt(c.Now()).Finish(history.Shed, c.Now(), 0, ErrShed)
		}
	}
	if !opts.Breaker.Allow(c) {
		shed()
		return ErrShed
	}
	if opts.Shed != nil {
		if !opts.Shed.TryEnter() {
			shed()
			return ErrShed
		}
		defer opts.Shed.Exit()
	}
	exec := e.Execute
	if opts.Replica > 0 {
		r := Caps(e).Reader
		if r == nil {
			shed()
			return ErrUnavailable
		}
		idx := opts.Replica - 1
		exec = func(c *sim.Clock, fn func(tx Tx) error) error {
			return r.ReadReplica(c, idx, fn)
		}
	}
	opts.Budget.Earn()
	var err error
	for attempt := 0; ; attempt++ {
		if op == nil {
			err = exec(c, fn)
		} else {
			err = recordAttempt(op, st, c, exec, fn)
		}
		// A shed that surfaces as unavailable (engine.Unavail preserving
		// sim.ErrAdmission) is the gate doing its job, not an outage — it
		// must not push the breaker toward open.
		opts.Breaker.Record(c, errors.Is(err, ErrUnavailable) && !errors.Is(err, sim.ErrAdmission))
		if !errors.Is(err, ErrConflict) || attempt >= opts.Retries {
			return err
		}
		if !opts.Budget.TrySpend() {
			return err
		}
		st.Retries.Add(1)
		c.Emit(sim.Event{T: c.Now(), Kind: sim.EvRetry, Site: "txn", Note: "conflict"})
		// Bracket the wait so the profiler attributes it to the
		// "backoff" component rather than residual time.
		sp := c.StartSpan("backoff")
		d := admission.Wait(c, attempt)
		c.FinishSpan(sp, 0)
		st.BackoffWait.Add(int64(d))
	}
}

// recTx mirrors every successful access into the attempt record. Values
// are reduced to register fingerprints at capture time, so recording adds
// no retention of value buffers.
type recTx struct {
	inner Tx
	att   *history.Attempt
	c     *sim.Clock
}

func (t *recTx) Read(key uint64) ([]byte, error) {
	v, err := t.inner.Read(key)
	if err == nil {
		t.att.Read(key, history.HashVal(v), t.c.Now())
	}
	return v, err
}

func (t *recTx) Write(key uint64, val []byte) error {
	err := t.inner.Write(key, val)
	if err == nil {
		t.att.Write(key, history.HashVal(val), t.c.Now())
	}
	return err
}

// recordAttempt runs one execution of fn under a recording wrapper and
// classifies its outcome.
func recordAttempt(op *history.Op, st *Stats, c *sim.Clock,
	exec func(*sim.Clock, func(tx Tx) error) error, fn func(tx Tx) error) error {
	att := op.NewAttempt(c.Now())
	var stamp uint64
	var fnErr error
	err := exec(c, func(tx Tx) error {
		DeliverStamp(tx, &stamp)
		fnErr = fn(&recTx{inner: tx, att: att, c: c})
		return fnErr
	})
	att.Finish(classifyOutcome(err, fnErr, stamp), c.Now(), stamp, err)
	if att.Outcome == history.Indeterminate {
		st.Indeterminates.Add(1)
	}
	return err
}

// classifyOutcome maps an attempt's error to its history outcome. The
// rule that makes the checker sound: an engine stamps the transaction at
// its durability point, so stamp==0 proves the attempt left no state a
// reader (or crash recovery) could ever surface, while a stamped error is
// "durable but unacknowledged" and its writes may legally appear later.
func classifyOutcome(err, fnErr error, stamp uint64) history.Outcome {
	switch {
	case err == nil:
		return history.Committed
	case errors.Is(err, errDown):
		return history.Shed
	case stamp != 0:
		return history.Indeterminate
	case errors.Is(err, ErrConflict), errors.Is(err, ErrReadOnly):
		return history.Aborted
	case fnErr != nil && errors.Is(err, fnErr):
		// The transaction function itself failed (user abort or a
		// propagated read error): the engine discards the staging buffer
		// without entering its commit path.
		return history.Aborted
	default:
		// Unavailability or an unrecognized engine error without a
		// stamp: almost certainly effect-free, but "almost" is not a
		// soundness argument — stay conservative.
		return history.Indeterminate
	}
}
