// Package history records what transactions actually did — every
// begin/read/write/commit/abort, with virtual timestamps, replica routing
// and retry lineage — and checks the recorded history for isolation
// anomalies (Adya's G0/G1a/G1b/G1c, lost update, write skew) by building
// the write-read / write-write / read-write dependency graph per key and
// searching it for cycles.
//
// The recorder is the event model; the checker lives in checker.go. The
// package deliberately depends on nothing but the standard library so the
// engine package (and anything else) can import it freely.
//
// Value model: registers. Every recorded value is reduced to a 64-bit
// fingerprint (HashVal); the all-zero value — the initial state of every
// key in the heap layout — maps to fingerprint 0. The checker requires
// workloads to write globally unique non-zero values so each read maps to
// exactly one recorded write (the Elle trick for recoverability on
// register histories).
package history

import (
	"sync"
	"time"
)

// Outcome is the fate of one transaction attempt.
type Outcome uint8

// Attempt outcomes. The distinction between Aborted and Indeterminate is
// load-bearing for the checker: only writes of *definitely* aborted
// attempts may never be observed (G1a); an indeterminate attempt — one
// that failed past its engine's durability point, like a timed-out commit
// in a real system — may surface later without that being an anomaly.
const (
	// Open marks an attempt that never finished (recorder torn down
	// mid-flight). The checker treats it like Indeterminate.
	Open Outcome = iota
	// Committed: the engine acknowledged the commit.
	Committed
	// Aborted: the attempt definitely had no effect (user abort, or a
	// conflict before the durability point).
	Aborted
	// Indeterminate: the attempt failed with unknown outcome (commit-path
	// unavailability, or any error after the durability point).
	Indeterminate
	// Shed: admission control or a crashed node refused the attempt
	// before it ran; it performed no reads or writes.
	Shed
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	case Indeterminate:
		return "indeterminate"
	case Shed:
		return "shed"
	default:
		return "open"
	}
}

// EventKind distinguishes reads from writes.
type EventKind uint8

// Event kinds.
const (
	ReadEvent EventKind = iota
	WriteEvent
)

// Event is one read or write inside an attempt. Val is the HashVal
// fingerprint of the value read or written (0 = the all-zero initial
// value).
type Event struct {
	Kind EventKind
	Key  uint64
	Val  uint64
	At   time.Duration // virtual time of the access
}

// Attempt is one execution of an op's transaction body. A retried
// transaction has several attempts under one Op — retry lineage is
// explicit, so an aborted-then-retried transaction can never masquerade
// as two logical operations.
type Attempt struct {
	// Index is the attempt's position in the op (0 = first execution).
	Index int
	// Begin/End bracket the attempt in the worker's virtual time.
	Begin, End time.Duration
	// Outcome is the attempt's fate.
	Outcome Outcome
	// Stamp is the engine-assigned commit timestamp (commit-record LSN or
	// commit sequence number), 0 if the attempt never reached the
	// engine's durability point. A non-zero stamp on a non-committed
	// attempt marks it "durable but unacknowledged".
	Stamp uint64
	// Err is the attempt's error string, empty on commit.
	Err string
	// Events are the attempt's reads and writes in program order.
	Events []Event
}

// Read records a read of key observing val.
func (a *Attempt) Read(key, val uint64, at time.Duration) {
	a.Events = append(a.Events, Event{Kind: ReadEvent, Key: key, Val: val, At: at})
}

// Write records a (staged) write of val to key.
func (a *Attempt) Write(key, val uint64, at time.Duration) {
	a.Events = append(a.Events, Event{Kind: WriteEvent, Key: key, Val: val, At: at})
}

// Finish seals the attempt.
func (a *Attempt) Finish(o Outcome, at time.Duration, stamp uint64, err error) {
	a.Outcome = o
	a.End = at
	a.Stamp = stamp
	if err != nil {
		a.Err = err.Error()
	}
}

// Op is one logical client operation: a single engine.Run call, with all
// its attempts.
type Op struct {
	// ID is the recorder-wide op identifier; IDs are assigned in Begin
	// order, so within one session (one sequential worker) ascending IDs
	// are program order.
	ID int
	// Session identifies the issuing client/worker.
	Session int
	// Replica is the routing target (0 = primary, n>0 = read replica n-1),
	// mirroring engine.RunOpts.Replica.
	Replica int
	// Attempts in execution order. The last attempt carries the op's
	// final outcome.
	Attempts []*Attempt
}

// NewAttempt opens the next attempt at virtual time `at`.
func (o *Op) NewAttempt(at time.Duration) *Attempt {
	a := &Attempt{Index: len(o.Attempts), Begin: at, End: at}
	o.Attempts = append(o.Attempts, a)
	return a
}

// Final returns the op's last attempt, or nil if none was opened.
func (o *Op) Final() *Attempt {
	if len(o.Attempts) == 0 {
		return nil
	}
	return o.Attempts[len(o.Attempts)-1]
}

// Recorder collects ops from concurrent workers. Begin is safe for
// concurrent use; each returned Op must then be populated by a single
// goroutine (the worker that owns the transaction), matching how
// engine.Run drives it. Checking happens after the workload quiesces.
type Recorder struct {
	mu  sync.Mutex
	ops []*Op
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Begin registers a new op for session routed at replica.
func (r *Recorder) Begin(session, replica int) *Op {
	r.mu.Lock()
	op := &Op{ID: len(r.ops), Session: session, Replica: replica}
	r.ops = append(r.ops, op)
	r.mu.Unlock()
	return op
}

// Ops returns the recorded ops in begin order. Callers must not mutate
// ops that may still be in flight.
func (r *Recorder) Ops() []*Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Op(nil), r.ops...)
}

// Counts reports recorder volume: logical ops, attempts, and events.
func (r *Recorder) Counts() (ops, attempts, events int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ops = len(r.ops)
	for _, o := range r.ops {
		attempts += len(o.Attempts)
		for _, a := range o.Attempts {
			events += len(a.Events)
		}
	}
	return ops, attempts, events
}

// HashVal reduces a value to its 64-bit register fingerprint: 0 for the
// all-zero (never-written) value, an FNV-1a hash otherwise. A workload
// whose writes are distinct byte strings gets distinct fingerprints with
// overwhelming probability; the checker independently verifies uniqueness
// across recorded writes.
func HashVal(v []byte) uint64 {
	zero := true
	for _, b := range v {
		if b != 0 {
			zero = false
			break
		}
	}
	if zero {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range v {
		h ^= uint64(b)
		h *= prime64
	}
	if h == 0 { // reserve 0 for the initial value
		h = offset64
	}
	return h
}
