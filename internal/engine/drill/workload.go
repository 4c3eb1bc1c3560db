package drill

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/disagglab/disagg/internal/cluster"
	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/history"
	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/sim/profile"
)

// Workload shape: each worker owns keysEach keys, so every key has exactly
// one writer and a per-key total order of intended writes — which is what
// makes the invariants checkable under concurrency. A worker's keys sit
// keyStride apart, one per page (64 values fill a 4 KiB page), and every
// page holds one key of each worker, so commits fan invalidations out per
// page to every cache holding it. A phase is Ops operations per worker; the
// drill's phases are drillOps long, since it sweeps every seed under every
// profile.
const (
	Workers   = 4
	Ops       = 48
	drillOps  = 6
	keysEach  = 4
	keyStride = 64
	KeyBase   = 10_000
	Retries   = 25

	// flightEvents bounds each worker's always-on flight recorder: the
	// last N substrate events (ops, fault decisions, retries, sheds,
	// checkpoint rounds) are retained and dumped on invariant failure.
	flightEvents = 256
)

// Layout is the table layout the drill builds every engine with.
func Layout() heap.Layout {
	l, err := heap.NewLayout(4096, 64)
	if err != nil {
		panic(err) // constant arguments: only a bug fails here
	}
	return l
}

// mix64 is a splitmix64-style finalizer used for value checksums.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rand is a splitmix64 stream of workload draws. Seeding it is free,
// where a math/rand source costs more to seed than a phase costs to draw.
type rand uint64

func newRand(seed int64, id int) *rand {
	r := rand(mix64(uint64(seed)) + uint64(id)*0x9e3779b97f4a7c15)
	return &r
}

// Intn returns a draw in [0, n).
func (r *rand) Intn(n int) int {
	*r += 0x9e3779b97f4a7c15
	return int(mix64(uint64(*r)) % uint64(n))
}

// Val encodes (key, worker, seq, checksum) into a Layout-sized value. The
// checksum ties all three together, so a torn or fabricated value is
// detectable on read.
func Val(key, worker, seq uint64) []byte {
	v := make([]byte, Layout().ValSize)
	binary.LittleEndian.PutUint64(v[0:], key)
	binary.LittleEndian.PutUint64(v[8:], worker)
	binary.LittleEndian.PutUint64(v[16:], seq)
	binary.LittleEndian.PutUint64(v[24:], mix64(key^mix64(worker<<32^seq)))
	return v
}

// decode splits a value; ok reports whether the checksum validates. zero
// reports an all-zero (never-written) value.
func decode(v []byte) (key, worker, seq uint64, zero, ok bool) {
	if len(v) < 32 {
		return 0, 0, 0, false, false
	}
	zero = true
	for _, b := range v {
		if b != 0 {
			zero = false
			break
		}
	}
	if zero {
		return 0, 0, 0, true, true
	}
	key = binary.LittleEndian.Uint64(v[0:])
	worker = binary.LittleEndian.Uint64(v[8:])
	seq = binary.LittleEndian.Uint64(v[16:])
	sum := binary.LittleEndian.Uint64(v[24:])
	return key, worker, seq, zero, sum == mix64(key^mix64(worker<<32^seq))
}

// keyState is one key's intended history. Only the owner writes it; every
// worker reads it to hold foreign reads to the key's acked floor.
type keyState struct {
	key    uint64
	owner  int
	issued atomic.Uint64 // highest seq handed to a write (acked or not)
	acked  atomic.Uint64 // highest seq whose commit was acknowledged
}

// runner runs fn as one transaction on key. opts.Replica > 0 asks for the
// read-only path, a read replica.
type runner func(c *sim.Clock, key uint64, opts engine.RunOpts, fn func(tx engine.Tx) error) error

// Workload is the drill's seeded workload across its phases: the per-key
// histories, the recorded history when rec is set, and the violations
// observed in flight and by the verifier passes.
type Workload struct {
	run     runner
	replica bool // the runner offers a read-only path
	// routed is set when run routes a transaction to its key's owner (a
	// fleet; owner reports that member now), which serves only its own keys
	// fresh: every transaction then keeps to one key, and the multi-key
	// shapes run as their one-key part, but for a write of two keys owner
	// gives one member.
	routed bool
	owner  func(key uint64) int
	rec    *history.Recorder
	keys   []*keyState // worker-major: keys[w*keysEach+i]

	// crashed is set once the engine has crashed and recovered: a failover
	// may leave the old primary, one of the read replicas, down for good.
	crashed bool

	// box aggregates the flight recorders, one per worker kept across
	// phases and one per verifier pass; a report with a violation carries
	// every retained timeline.
	box    *profile.Blackbox
	flight [Workers]*profile.FlightRecorder

	commits, writeErrs, readErrs atomic.Int64
	// finished counts the workload operations the workers have ended, and
	// idle the workers of the phase that are handing the turn over or done:
	// a multi-key transaction hands the turn over until finished moves or
	// every worker is idle.
	finished atomic.Int64
	idle     atomic.Int32

	mu  sync.Mutex
	rep Report // label, seed and violations so far; mu guards it while workers run
}

// newWorkload is the empty history of the drill's keys, driven through run.
// Its violations are labeled label and carry seed as their replay hint.
func newWorkload(run runner, replica bool, label string, seed int64) *Workload {
	w := &Workload{run: run, replica: replica, box: profile.NewBlackbox(), rep: Report{Label: label, Seed: seed}}
	for o := 0; o < Workers; o++ {
		for i := 0; i < keysEach; i++ {
			w.keys = append(w.keys, &keyState{key: KeyBase + uint64(i*keyStride+o), owner: o})
		}
	}
	return w
}

// NewWorkload is the empty workload driven through engine.Run on e, its
// read-only path e's first read replica.
func NewWorkload(e engine.Engine, label string, seed int64) *Workload {
	run := func(c *sim.Clock, _ uint64, opts engine.RunOpts, fn func(tx engine.Tx) error) error {
		return engine.Run(e, c, opts, fn)
	}
	return newWorkload(run, engine.Caps(e).Reader != nil, label, seed)
}

// NewFleetWorkload is the empty workload driven through f, every
// transaction routed to its key's shard owner.
func NewFleetWorkload(f *cluster.Fleet, label string, seed int64) *Workload {
	run := func(c *sim.Clock, key uint64, opts engine.RunOpts, fn func(tx engine.Tx) error) error {
		return f.Run(c, key, cluster.RunOpts{RunOpts: opts}, fn)
	}
	w := newWorkload(run, false, label, seed)
	w.routed, w.owner = true, f.Owner
	return w
}

// violate records a violation of the workload's contract.
func (w *Workload) violate(format string, args ...any) {
	w.mu.Lock()
	w.rep.fail(format, args...)
	w.mu.Unlock()
}

// Report is what the workload has seen so far: its counters, its
// violations and, when there is one, every flight timeline.
func (w *Workload) Report() Report {
	w.mu.Lock()
	rep := w.rep
	rep.Violations = slices.Clone(rep.Violations)
	w.mu.Unlock()
	rep.Commits, rep.WriteErrs, rep.ReadErrs = w.commits.Load(), w.writeErrs.Load(), w.readErrs.Load()
	if !rep.Ok() {
		rep.Dump = fmt.Sprintf("flight-recorder timelines under profile %q:\n%s", rep.Label, w.box.Dump())
	}
	return rep
}

// check applies the per-key invariants to one observed value. floor is the
// key's acked seq loaded before the read was issued: a value below it is a
// stale serve, whatever tier it hid in. No value may be torn (checksum) or
// come from outside the intended history (owner and seq bounds).
func (w *Workload) check(where string, st *keyState, floor uint64, v []byte) {
	k, o, seq, zero, ok := decode(v)
	switch {
	case !ok:
		w.violate("%s: key %d: torn/garbled value %x", where, st.key, v[:min(len(v), 32)])
	case zero && floor > 0:
		w.violate("%s: key %d: lost acked write seq %d (value is zero)", where, st.key, floor)
	case zero:
	case k != st.key || o != uint64(st.owner):
		w.violate("%s: key %d: foreign value (key=%d worker=%d)", where, st.key, k, o)
	case seq > st.issued.Load():
		w.violate("%s: key %d: fabricated seq %d (issued %d)", where, st.key, seq, st.issued.Load())
	case seq < floor:
		w.violate("%s: key %d: stale seq %d < acked %d", where, st.key, seq, floor)
	}
}

// access runs one recorded transaction for session on the path replica: a
// checked read of each key in reads, then a write of vals[i] to each
// writes[i]. It is routed by the first written key, else by the first read
// one. A transaction that reads or writes more than one key hands the turn
// over between its operations (handOver).
func (w *Workload) access(c *sim.Clock, session, replica int, reads, writes []*keyState, vals [][]byte, where string) error {
	var floors [2]uint64 // a transaction reads at most two keys
	for i, st := range reads {
		floors[i] = st.acked.Load()
	}
	route := reads
	if len(writes) > 0 {
		route = writes
	}
	hand := len(reads) > 1 || len(writes) > 1
	opts := engine.RunOpts{Retries: Retries, Replica: replica, Record: w.rec, Session: session}
	return w.run(c, route[0].key, opts, func(tx engine.Tx) error {
		for i, st := range reads {
			if hand && i > 0 {
				w.handOver(c, len(writes) > 0)
			}
			got, err := tx.Read(st.key)
			if err != nil {
				return err
			}
			w.check(where, st, floors[i], got)
		}
		for i, st := range writes {
			if hand && (i > 0 || len(reads) > 0) {
				w.handOver(c, true)
			}
			if err := tx.Write(st.key, vals[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// handOver is a workload worker's turn boundary between the operations of
// a multi-key transaction. A writing transaction yields: it stays in flight
// beside the others, so two that read each other's written keys can both
// reach commit (write skew). A read-only one waits until another worker has
// finished an operation, or until every worker is idle: a bare yield lets
// run only the workers behind it in virtual time, seldom far enough behind
// to commit between its reads (read skew).
func (w *Workload) handOver(c *sim.Clock, writes bool) {
	if writes {
		sim.Yield(c)
		return
	}
	mark := w.finished.Load()
	w.idle.Add(1)
	sim.Wait(c, func() bool { return w.finished.Load() != mark || w.idle.Load() == Workers })
	w.idle.Add(-1)
}

// write issues the next seq of every key in writes, all in one transaction
// of their owner, after checked reads of reads: a blind write when there are
// none, a read-modify-write when reads is the one written key. An
// unacknowledged write's outcome is unknown (it may still surface, like a
// timed-out commit in a real system), so its seqs stay issued-only; but it
// surfaces whole or not at all, which the history holds it to.
func (w *Workload) write(c *sim.Clock, writes []*keyState, reads ...*keyState) {
	var seqs [2]uint64 // a transaction writes at most two keys
	vals := make([][]byte, len(writes))
	for i, st := range writes {
		seqs[i] = st.issued.Add(1)
		vals[i] = Val(st.key, uint64(st.owner), seqs[i])
	}
	where := "read-modify-write"
	switch {
	case len(writes) > 1:
		where = "write-two"
	case len(reads) > 1:
		where = "read-two-write-one"
	}
	if err := w.access(c, writes[0].owner, 0, reads, writes, vals, where); err != nil {
		w.writeErrs.Add(1)
		return
	}
	for i, st := range writes {
		st.acked.Store(seqs[i])
	}
	w.commits.Add(1)
}

// read is one checked read-only transaction over keys on the primary or
// the read-only path.
func (w *Workload) read(c *sim.Clock, session, replica int, keys ...*keyState) {
	where := "read"
	if replica > 0 {
		where = "replica read"
	}
	if len(keys) > 1 {
		where = "two-key " + where
	}
	if w.access(c, session, replica, keys, nil, nil, where) != nil {
		w.readErrs.Add(1)
	}
}

// Extend runs one more phase of the seeded workload: each worker issues ops
// operations — read-modify-write or blind write of an own key, a read of a
// foreign key (every other one on the read-only path when there is one), a
// read of an own key on the read-only path, or one of three multi-key
// shapes that hand the turn over between their operations (handOver): a
// write of two own keys on different pages, a read of two keys of one
// foreign worker, and a read of an own and a foreign key then a write of
// the own key — advancing the per-key sequences where they left off. Every
// read is checked in flight. The multi-key shapes are built as Elle's
// rw-register transactions are (Kingsbury and Alvaro, VLDB 2020): with
// them, a history holds read skew, write skew and half a transaction when
// an engine lets any through. In a fleet the two written keys must share a
// shard owner, else the shape writes one.
//
// bg, when non-nil, is one more member of the workers' group. Its next
// blocks until a worker has begun another operation and returns how many
// have begun in this phase, or 0 once every worker has finished; bg returns
// once it reads 0 or has no more to do.
func (w *Workload) Extend(seed int64, ops int, bg func(c *sim.Clock, next func() int64)) {
	var begun atomic.Int64
	var left atomic.Int32
	left.Store(Workers)
	w.idle.Store(0)
	members := Workers
	if bg != nil {
		members++
	}
	sim.RunGroup(members, func(id int, c *sim.Clock) int {
		if id == Workers {
			bg(c, func() int64 {
				mark := begun.Load()
				sim.Wait(c, func() bool { return left.Load() == 0 || begun.Load() != mark })
				if left.Load() == 0 {
					return 0
				}
				return begun.Load()
			})
			return 0
		}
		defer left.Add(-1)
		defer w.idle.Add(1)
		if w.flight[id] == nil {
			w.flight[id] = w.box.Recorder(fmt.Sprintf("worker %d", id), flightEvents)
		}
		c.SetEvents(w.flight[id])
		rng := newRand(seed, id)
		mine := w.keys[id*keysEach : (id+1)*keysEach]
		for op := 0; op < ops; op++ {
			begun.Add(1)
			// Every draw is made whatever the roll, so an engine with and one
			// without a read-only path issue the same writes.
			roll := rng.Intn(100)
			// twin, the key after own, is drawn from no stream of its own, so
			// every other shape draws what it drew before twin existed.
			oi := rng.Intn(keysEach)
			own, twin := mine[oi], mine[(oi+1)%keysEach]
			other := (id + 1 + rng.Intn(Workers-1)) % Workers
			fi := rng.Intn(keysEach)
			foreign := w.keys[other*keysEach+fi]
			sibling := w.keys[other*keysEach+(fi+1+rng.Intn(keysEach-1))%keysEach]
			one, two := []*keyState{own}, []*keyState{own, twin}
			rw, pair := []*keyState{own, foreign}, []*keyState{foreign, sibling}
			if w.routed {
				rw, pair = rw[:1], pair[:1]
				if w.owner(own.key) != w.owner(twin.key) {
					two = one
				}
			}
			switch {
			case roll < 40:
				w.write(c, one, own)
			case roll < 50:
				w.write(c, one)
			case roll < 58:
				w.write(c, two)
			case roll < 70:
				w.write(c, one, rw...)
			case roll < 80:
				w.read(c, id, 0, pair...)
			case !w.replica:
				w.read(c, id, 0, foreign)
			case roll < 92:
				w.read(c, id, op%2, foreign)
			default:
				w.read(c, id, 1, own)
			}
			w.finished.Add(1)
		}
		return ops
	})
}

// Verify is the verifier session: it re-reads every key on every read path
// (with bounded retries, on a healed fabric), recorded as session Workers,
// and records what it finds wrong as a violation, naming the pass by
// "final read" and after (" after crash"). It reads one key a transaction, as a
// fleet serves fresh only the keys of the member it routes to; session
// order still ties its reads into one history, where half a transaction
// surfaced is a cycle.
func (w *Workload) Verify(after string) {
	c := sim.NewClock()
	c.SetEvents(w.box.Recorder(fmt.Sprintf("verify pass %d", w.box.Size()), flightEvents))
	paths := 1
	if w.replica {
		paths = 2
	}
	for i, st := range w.keys {
		for replica := 0; replica < paths; replica++ {
			where := fmt.Sprintf("final read%s (replica=%d)", after, replica)
			var err error
			for attempt := 0; attempt < 3; attempt++ {
				if err = w.access(c, Workers, replica, w.keys[i:i+1], nil, nil, where); err == nil {
					break
				}
			}
			// Every read must succeed, but a failover after the crash may
			// leave a read-only path down: it refuses, serving nothing stale.
			if err != nil && (replica == 0 || !w.crashed || !errors.Is(err, engine.ErrUnavailable)) {
				w.violate("%s: key %d: %v", where, st.key, err)
			}
		}
	}
}

// Diff re-reads every key from a and b and records a violation for each
// key whose bytes differ: fault-free and with one writer per key, two
// engines that ran the same seeded workload must converge.
func (w *Workload) Diff(a, b engine.Engine) {
	c := sim.NewClock()
	get := func(e engine.Engine, key uint64) (v []byte) {
		engine.Run(e, c, engine.RunOpts{Retries: Retries}, func(tx engine.Tx) (err error) {
			v, err = tx.Read(key)
			return err
		})
		return v
	}
	for _, st := range w.keys {
		if va, vb := get(a, st.key), get(b, st.key); !bytes.Equal(va, vb) {
			_, _, seqA, _, _ := decode(va)
			_, _, seqB, _, _ := decode(vb)
			w.violate("key %d: seq %d diverges from the baseline's seq %d", st.key, seqA, seqB)
		}
	}
}

// CrashRecover drills e through a crash/recover cycle on a healed fabric
// and verifies again: acked writes must survive recovery, and with a
// recorded history the durable LSN the node learned again must cover every
// acked commit (ackedStamp). It reports false, with a violation, when
// recovery fails; an engine that is no Recoverer is left as it is.
func (w *Workload) CrashRecover(e engine.Engine) bool {
	r := engine.Caps(e).Recoverer
	if r == nil {
		return true
	}
	r.Crash()
	w.crashed = true
	if _, err := r.Recover(sim.NewClock()); err != nil {
		w.violate("recovery failed: %v", err)
		return false
	}
	if w.rec != nil {
		if acked, ok := w.ackedStamp(); ok && uint64(r.DurableLSN()) < acked {
			w.violate("recovered durable LSN %d below acked commit %d", r.DurableLSN(), acked)
		}
	}
	w.Verify(" after crash")
	return true
}

// ackedStamp is the highest commit stamp of an acked write in the recorded
// history. With no acked write, or one without a stamp, the check would pass
// unseen: ackedStamp reports false and records that as a violation.
func (w *Workload) ackedStamp() (high uint64, ok bool) {
	for _, op := range w.rec.Ops() {
		for _, a := range op.Attempts {
			i := slices.IndexFunc(a.Events, func(ev history.Event) bool { return ev.Kind == history.WriteEvent })
			if a.Outcome != history.Committed || i < 0 {
				continue
			}
			if a.Stamp == 0 {
				w.violate("op %d: acked write of key %d carries no commit stamp: the recovered durable LSN cannot be checked", op.ID, a.Events[i].Key)
				return 0, false
			}
			high = max(high, a.Stamp)
		}
	}
	if high == 0 {
		w.violate("no acked write in the recorded history: the recovered durable LSN cannot be checked")
	}
	return high, high > 0
}
