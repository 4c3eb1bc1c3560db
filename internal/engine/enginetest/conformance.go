package enginetest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/history"
	"github.com/disagglab/disagg/internal/engine/monolithic"
	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/sim/fault"
	"github.com/disagglab/disagg/internal/sim/profile"
	"github.com/disagglab/disagg/internal/wal"
)

// seedFlag reseeds every randomized conformance workload, so a failing run
// is replayable exactly: go test -run Conformance -seed=<n>. The seed is
// logged by every failing subtest.
var seedFlag = flag.Int64("seed", 20260806, "seed for randomized conformance/chaos workloads")

// Seed reports the suite seed (the -seed flag).
func Seed() int64 { return *seedFlag }

// isoSeedsFlag is the schedule-exploration width: the drill, the contended
// storm and the batched drill sweep this many derived seeds per fabric
// profile, so each engine is checked against that many distinct
// interleavings and fault schedules. A failing seed is printed with every
// violation for exact replay.
var isoSeedsFlag = flag.Int("isoseeds", 8, "seeds swept per Drill, Contended and Batched/Drill profile")

// isoSeed derives the i-th sweep seed from the suite seed.
func isoSeed(base int64, i int) int64 { return base + int64(i)*7919 }

// Factory builds a fresh engine on the given substrate config. The suite
// attaches fault injectors through cfg.Fault, so engines must thread cfg
// into every simulated component they build.
type Factory func(t *testing.T, cfg *sim.Config) engine.Engine

// durableLSNer is implemented by engines exposing their durable watermark;
// the suite checks it never moves backwards across recovery.
type durableLSNer interface{ DurableLSN() wal.LSN }

// Conformance workload shape: each worker owns confKeysEach keys, so every
// key has exactly one writer and a per-key total order of intended writes —
// which is what makes the invariants checkable under concurrency. A worker's
// keys sit confKeyStride apart, one per page (64 values fill a 4 KiB page),
// and every page holds one key of each worker, so commits fan invalidations
// out per page to every cache holding it. A phase is confOps operations per
// worker; the drill's phases are drillOps long, since it sweeps every seed
// under every profile.
const (
	confWorkers   = 4
	confOps       = 48
	drillOps      = 6
	confKeysEach  = 4
	confKeyStride = 64
	confKeyBase   = 10_000
	confRetries   = 25

	// confFlightEvents bounds each worker's always-on flight recorder:
	// the last N substrate events (ops, fault decisions, retries, sheds,
	// checkpoint rounds) are retained and dumped on invariant failure.
	confFlightEvents = 256
)

// mix64 is a splitmix64-style finalizer used for value checksums.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// confRand is a splitmix64 stream of workload draws. Seeding it is free,
// where a math/rand source costs more to seed than a phase costs to draw.
type confRand uint64

func newConfRand(seed int64, id int) *confRand {
	r := confRand(mix64(uint64(seed)) + uint64(id)*0x9e3779b97f4a7c15)
	return &r
}

// Intn returns a draw in [0, n).
func (r *confRand) Intn(n int) int {
	*r += 0x9e3779b97f4a7c15
	return int(mix64(uint64(*r)) % uint64(n))
}

// confVal encodes (key, worker, seq, checksum) into a layout-sized value.
// The checksum ties all three together, so a torn or fabricated value is
// detectable on read.
func confVal(layout heap.Layout, key uint64, worker, seq uint64) []byte {
	v := make([]byte, layout.ValSize)
	binary.LittleEndian.PutUint64(v[0:], key)
	binary.LittleEndian.PutUint64(v[8:], worker)
	binary.LittleEndian.PutUint64(v[16:], seq)
	binary.LittleEndian.PutUint64(v[24:], mix64(key^mix64(worker<<32^seq)))
	return v
}

// confDecode splits a value; ok reports whether the checksum validates.
// zero reports an all-zero (never-written) value.
func confDecode(v []byte) (key, worker, seq uint64, zero, ok bool) {
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

// conformanceResult is the workload's state across its phases: the per-key
// histories, the recorded history when rec is set, and the violations
// observed in flight.
type conformanceResult struct {
	layout  heap.Layout
	run     runner
	replica bool // the runner offers a read-only path
	rec     *history.Recorder
	keys    []*keyState // worker-major: keys[w*confKeysEach+i]

	// crashed is set once the engine has crashed and recovered: a failover
	// may leave the old primary, one of the read replicas, down for good.
	crashed bool

	// box aggregates the flight recorders, one per worker kept across
	// phases and one per verifier pass; on an invariant failure the suite
	// dumps every retained timeline.
	box    *profile.Blackbox
	flight [confWorkers]*profile.FlightRecorder

	commits, writeErrs, readErrs atomic.Int64

	mu         sync.Mutex
	violations []string
}

func (r *conformanceResult) violate(format string, args ...any) {
	r.mu.Lock()
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// newConformanceResult is the empty history of the conformance keys, driven
// through run.
func newConformanceResult(layout heap.Layout, run runner, replica bool) *conformanceResult {
	res := &conformanceResult{layout: layout, run: run, replica: replica, box: profile.NewBlackbox()}
	for w := 0; w < confWorkers; w++ {
		for i := 0; i < confKeysEach; i++ {
			res.keys = append(res.keys, &keyState{key: confKeyBase + uint64(i*confKeyStride+w), owner: w})
		}
	}
	return res
}

// engineResult is newConformanceResult driven through engine.Run on e, its
// read-only path e's first read replica.
func engineResult(e engine.Engine, layout heap.Layout) *conformanceResult {
	run := func(c *sim.Clock, _ uint64, opts engine.RunOpts, fn func(tx engine.Tx) error) error {
		return engine.Run(e, c, opts, fn)
	}
	return newConformanceResult(layout, run, engine.Caps(e).Reader != nil)
}

// check applies the per-key invariants to one observed value. floor is the
// key's acked seq loaded before the read was issued: a value below it is a
// stale serve, whatever tier it hid in. No value may be torn (checksum) or
// come from outside the intended history (owner and seq bounds).
func (r *conformanceResult) check(where string, st *keyState, floor uint64, v []byte) {
	k, w, seq, zero, ok := confDecode(v)
	switch {
	case !ok:
		r.violate("%s: key %d: torn/garbled value %x", where, st.key, v[:min(len(v), 32)])
	case zero && floor > 0:
		r.violate("%s: key %d: lost acked write seq %d (value is zero)", where, st.key, floor)
	case zero:
	case k != st.key || w != uint64(st.owner):
		r.violate("%s: key %d: foreign value (key=%d worker=%d)", where, st.key, k, w)
	case seq > st.issued.Load():
		r.violate("%s: key %d: fabricated seq %d (issued %d)", where, st.key, seq, st.issued.Load())
	case seq < floor:
		r.violate("%s: key %d: stale seq %d < acked %d", where, st.key, seq, floor)
	}
}

// access runs one recorded transaction for session on st's key: a checked
// read when read is set, then a write of v when v is non-nil.
func (r *conformanceResult) access(c *sim.Clock, session int, st *keyState, replica int, read bool, v []byte, where string) error {
	floor := st.acked.Load()
	opts := engine.RunOpts{Retries: confRetries, Replica: replica, Record: r.rec, Session: session}
	return r.run(c, st.key, opts, func(tx engine.Tx) error {
		if read {
			got, err := tx.Read(st.key)
			if err != nil {
				return err
			}
			r.check(where, st, floor, got)
		}
		if v == nil {
			return nil
		}
		return tx.Write(st.key, v)
	})
}

// write issues the next seq of st as a read-modify-write or a blind write.
// An unacknowledged write's outcome is unknown (it may still surface, like a
// timed-out commit in a real system), so its seq stays issued-only.
func (r *conformanceResult) write(c *sim.Clock, st *keyState, rmw bool) {
	seq := st.issued.Add(1)
	v := confVal(r.layout, st.key, uint64(st.owner), seq)
	if err := r.access(c, st.owner, st, 0, rmw, v, "read-modify-write"); err != nil {
		r.writeErrs.Add(1)
		return
	}
	st.acked.Store(seq)
	r.commits.Add(1)
}

// read is one checked single-key read on the primary or the read-only path.
func (r *conformanceResult) read(c *sim.Clock, session int, st *keyState, replica int) {
	where := "read"
	if replica > 0 {
		where = "replica read"
	}
	if r.access(c, session, st, replica, true, nil, where) != nil {
		r.readErrs.Add(1)
	}
}

// runConformanceWorkload runs one confOps workload phase on e from an empty
// history.
func runConformanceWorkload(e engine.Engine, layout heap.Layout, seed int64) *conformanceResult {
	res := engineResult(e, layout)
	extendConformanceWorkload(res, seed, confOps, nil)
	return res
}

// extendConformanceWorkload runs one more phase of the seeded workload on
// res: each worker issues ops operations — read-modify-write or blind write
// of an own key, a read of a foreign key (every other one on the read-only
// path when there is one), or a read of an own key on the read-only path —
// advancing the per-key sequences where they left off. Every read is
// checked in flight.
//
// bg, when non-nil, is one more member of the workers' group. Its next
// blocks until a worker has begun another operation and returns how many
// have begun in this phase, or 0 once every worker has finished; bg returns
// once it reads 0 or has no more to do.
func extendConformanceWorkload(res *conformanceResult, seed int64, ops int, bg func(c *sim.Clock, next func() int64)) {
	var begun atomic.Int64
	var left atomic.Int32
	left.Store(confWorkers)
	members := confWorkers
	if bg != nil {
		members++
	}
	sim.RunGroup(members, func(id int, c *sim.Clock) int {
		if id == confWorkers {
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
		if res.flight[id] == nil {
			res.flight[id] = res.box.Recorder(fmt.Sprintf("worker %d", id), confFlightEvents)
		}
		c.SetEvents(res.flight[id])
		rng := newConfRand(seed, id)
		for op := 0; op < ops; op++ {
			begun.Add(1)
			// Every draw is made whatever the roll, so an engine with and one
			// without a read-only path issue the same writes.
			roll := rng.Intn(100)
			own := res.keys[id*confKeysEach+rng.Intn(confKeysEach)]
			other := (id + 1 + rng.Intn(confWorkers-1)) % confWorkers
			foreign := res.keys[other*confKeysEach+rng.Intn(confKeysEach)]
			switch {
			case roll < 55:
				res.write(c, own, true)
			case roll < 70:
				res.write(c, own, false)
			case !res.replica:
				res.read(c, id, foreign, 0)
			case roll < 90:
				res.read(c, id, foreign, op%2)
			default:
				res.read(c, id, own, 1)
			}
		}
		return ops
	})
}

// verifyFinalState is the verifier session: it re-reads every key on every
// read path (with bounded retries, on a healed fabric), recorded as session
// confWorkers, and returns the violations — those recorded in flight too.
// Reads are single-key on purpose: the engines offer no multi-key read
// snapshots, so a multi-key verifier transaction could legitimately observe
// a fractured state.
func verifyFinalState(res *conformanceResult) []string {
	c := sim.NewClock()
	c.SetEvents(res.box.Recorder(fmt.Sprintf("verify pass %d", res.box.Size()), confFlightEvents))
	paths := 1
	if res.replica {
		paths = 2
	}
	for _, st := range res.keys {
		for replica := 0; replica < paths; replica++ {
			where := fmt.Sprintf("final read (replica=%d)", replica)
			var err error
			for attempt := 0; attempt < 3; attempt++ {
				if err = res.access(c, confWorkers, st, replica, true, nil, where); err == nil {
					break
				}
			}
			// Every read must succeed, but a failover after the crash may
			// leave a read-only path down: it refuses, serving nothing stale.
			if err != nil && (replica == 0 || !res.crashed || !errors.Is(err, engine.ErrUnavailable)) {
				res.violate("%s: key %d: %v", where, st.key, err)
			}
		}
	}
	res.mu.Lock()
	defer res.mu.Unlock()
	return append([]string(nil), res.violations...)
}

// reportViolations fails the test with every violation plus the replay
// seed.
func reportViolations(t *testing.T, seed int64, profile string, violations []string) {
	t.Helper()
	if len(violations) == 0 {
		return
	}
	for _, v := range violations {
		t.Errorf("%s", v)
	}
	t.Errorf("%d invariant violation(s) under profile %q — replay with: go test -run Conformance -seed=%d", len(violations), profile, seed)
}

// crashRecoverVerify drills the engine through a crash/recover cycle on a
// healed fabric and re-verifies: acked writes must survive recovery, and
// the durable LSN must not move backwards.
func crashRecoverVerify(t *testing.T, e engine.Engine, res *conformanceResult, seed int64, profile string) {
	t.Helper()
	r := engine.Caps(e).Recoverer
	if r == nil {
		return
	}
	var before wal.LSN
	d, hasLSN := e.(durableLSNer)
	if hasLSN {
		before = d.DurableLSN()
	}
	r.Crash()
	res.crashed = true
	if _, err := r.Recover(sim.NewClock()); err != nil {
		t.Fatalf("recovery under profile %q failed: %v (replay: -seed=%d)", profile, err, seed)
	}
	if hasLSN {
		if after := d.DurableLSN(); after < before {
			res.violate("recovery LSN moved backwards: %d -> %d", before, after)
		}
	}
	reportViolations(t, seed, profile+"+crash", verifyFinalState(res))
}

// eachProfile runs fn as subtest prefix+"Clean" on a clean fabric (p nil),
// then as prefix+"Fault/<name>" under every standard fault profile.
func eachProfile(t *testing.T, prefix string, fn func(t *testing.T, p *fault.Profile)) {
	t.Run(prefix+"Clean", func(t *testing.T) { fn(t, nil) })
	for _, p := range fault.Profiles() {
		t.Run(prefix+"Fault/"+p.Name, func(t *testing.T) { fn(t, &p) })
	}
}

// eachSeed runs fn as subtest "seed<i>" for each of the -isoseeds seeds
// derived from seed.
func eachSeed(t *testing.T, seed int64, fn func(t *testing.T, seed int64)) {
	for i := 0; i < *isoSeedsFlag; i++ {
		seed := isoSeed(seed, i)
		t.Run(fmt.Sprintf("seed%d", i), func(t *testing.T) { fn(t, seed) })
	}
}

// faultConfig is a fresh substrate config with a stats registry and, unless
// p is nil, p's injector attached; label names the fabric in messages.
func faultConfig(p *fault.Profile, seed int64) (cfg *sim.Config, inj *fault.Injector, label string) {
	cfg = sim.DefaultConfig()
	cfg.Stats = sim.NewRegistry()
	if p == nil {
		return cfg, nil, "clean"
	}
	inj = fault.New(seed, *p)
	cfg.Fault = inj
	return cfg, inj, p.Name
}

// RunConformance executes the full cross-engine suite: the semantic tests
// (Run), a differential check against the monolithic baseline on the same
// seeded workload, the drill (Drill, and Batched/Drill on group-commit
// engines) and the contended storm under a clean fabric and every standard
// fault profile, and the lost-update, log-lifecycle and group-commit
// regressions.
//
// factory must build a FRESH engine on the provided config each call (the
// suite attaches a fault.Injector via cfg.Fault).
func RunConformance(t *testing.T, factory Factory) {
	seed := Seed()
	t.Logf("conformance seed=%d (override with -seed)", seed)

	t.Run("Semantics", func(t *testing.T) {
		Run(t, func(t *testing.T) engine.Engine { return factory(t, sim.DefaultConfig()) })
	})

	t.Run("Differential", func(t *testing.T) {
		layout := Layout(t)
		e := factory(t, sim.DefaultConfig())
		base := monolithic.New(sim.DefaultConfig(), layout, 64)
		resE := runConformanceWorkload(e, layout, seed)
		resB := runConformanceWorkload(base, layout, seed)
		reportViolations(t, seed, "differential/engine", verifyFinalState(resE))
		reportViolations(t, seed, "differential/baseline", verifyFinalState(resB))
		// Fault-free and with one writer per key, both engines must
		// converge to byte-identical final values.
		diffs := diffFinalStates(e, base, resE)
		for _, d := range diffs {
			t.Errorf("%s", d)
		}
		if len(diffs) > 0 {
			t.Errorf("engine diverged from monolithic baseline on seed %d", seed)
		}
	})

	eachProfile(t, "Drill/", func(t *testing.T, p *fault.Profile) {
		eachSeed(t, seed, func(t *testing.T, seed int64) { runDrill(t, factory, p, seed, false) })
	})
	eachProfile(t, "Contended/", func(t *testing.T, p *fault.Profile) {
		eachSeed(t, seed, func(t *testing.T, seed int64) { runContended(t, factory, p, seed) })
	})
	t.Run("Isolation/LostUpdate", func(t *testing.T) { runLostUpdate(t, factory) })
	t.Run("Isolation/ReadSkew", func(t *testing.T) { runReadSkew(t, factory) })

	t.Run("Recovery/ConcurrentCheckpoint", func(t *testing.T) {
		runConcurrentCheckpoint(t, factory, seed)
	})
	t.Run("Recovery/TornTruncation", func(t *testing.T) {
		runTornTruncation(t, factory, seed)
	})
	t.Run("Recovery/FailedDurable", func(t *testing.T) {
		runFailedDurable(t, factory, seed)
	})

	// Batched variants: engines supporting group commit re-run the drill
	// with batching enabled, so fault replays also cover grouped flushes
	// (one substrate fault decision shared by every rider).
	if engine.Caps(factory(t, sim.DefaultConfig())).GroupCommitter == nil {
		return
	}
	t.Run("Batched/Semantics", func(t *testing.T) {
		Run(t, func(t *testing.T) engine.Engine { return batched(factory(t, sim.DefaultConfig())) })
	})
	t.Run("Batched/Chaos", func(t *testing.T) {
		RunChaos(t, func(t *testing.T) engine.Engine { return batched(factory(t, sim.DefaultConfig())) })
	})
	eachProfile(t, "Batched/Drill/", func(t *testing.T, p *fault.Profile) {
		eachSeed(t, seed, func(t *testing.T, seed int64) { runDrill(t, factory, p, seed, true) })
	})
	t.Run("Batched/Isolation/LostUpdate", func(t *testing.T) {
		runLostUpdate(t, func(t *testing.T, cfg *sim.Config) engine.Engine { return batched(factory(t, cfg)) })
	})
	t.Run("Batched/Isolation/WriteSkew", func(t *testing.T) {
		runWriteSkew(t, func(t *testing.T, cfg *sim.Config) engine.Engine { return batched(factory(t, cfg)) })
	})
	t.Run("Batched/TimeoutFlushDurable", func(t *testing.T) {
		timeoutFlushDurable(t, factory)
	})
	t.Run("Batched/FlushFailureNotAcked", func(t *testing.T) {
		flushFailureNotAcked(t, factory, seed, fault.Profile{Name: "kill-appends", Drop: 1, Sites: fault.AppendSites})
	})
	t.Run("Batched/TornGroupFlush", func(t *testing.T) {
		flushFailureNotAcked(t, factory, seed, fault.Profile{Name: "torn-group", Torn: 1, Sites: fault.AppendSites})
	})
}

// Group-commit parameters for the batched suite variants. MaxItems equals
// confWorkers so seeded runs see both full-group (size) flushes and
// timeout flushes when stragglers leave groups partially filled.
const (
	batchGroupSize = confWorkers
	batchWindow    = 50 * time.Microsecond
)

// batched enables group commit on an engine built by a conformance
// factory. Callers have already checked the engine is a GroupCommitter.
func batched(e engine.Engine) engine.Engine {
	engine.Caps(e).GroupCommitter.EnableGroupCommit(batchGroupSize, batchWindow)
	return e
}

// timeoutFlushDurable is the flush-on-timeout regression: a lone commit
// can never fill a group, so it must be released by the window — charged
// as real commit latency — and still be durable across crash/recovery.
func timeoutFlushDurable(t *testing.T, factory Factory) {
	t.Helper()
	layout := Layout(t)
	e := batched(factory(t, sim.DefaultConfig()))
	c := sim.NewClock()
	key := uint64(confKeyBase)
	want := confVal(layout, key, 0, 1)
	if err := writeKey(e, c, engine.RunOpts{Retries: confRetries}, key, want); err != nil {
		t.Fatalf("lone batched commit: %v", err)
	}
	if got := e.Stats().FlushOnTimeout.Load(); got == 0 {
		t.Error("lone commit was not released by a timeout flush")
	}
	if e.Stats().GroupCommits.Load() == 0 {
		t.Error("commit did not ride the group-commit path")
	}
	if c.Now() < batchWindow {
		t.Errorf("commit latency %v does not include the %v batching window", c.Now(), batchWindow)
	}
	crashRecover(t, e)
	got, err := readKey(e, c, engine.RunOpts{Retries: confRetries}, key)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("timeout-flushed commit lost: got %x", got[:16])
	}
}

// flushFailureNotAcked is the flush-on-crash / torn-group-flush
// regression: with every durable append failing (dropped or torn
// mid-batch), no rider in any group may be acknowledged — a group flush
// either commits for all riders or errors for all. After healing, the
// engine must make progress again and fresh commits must survive
// crash/recovery.
func flushFailureNotAcked(t *testing.T, factory Factory, seed int64, p fault.Profile) {
	t.Helper()
	layout := Layout(t)
	inj := fault.New(seed, p)
	cfg := sim.DefaultConfig()
	cfg.Fault = inj
	e := batched(factory(t, cfg))
	res := runConformanceWorkload(e, layout, seed)
	if n := res.commits.Load(); n != 0 {
		t.Errorf("%d commit(s) acked while every durable append failed (profile %q)", n, p.Name)
	}
	if res.writeErrs.Load() == 0 {
		t.Fatal("workload issued no writes — the regression is vacuous")
	}
	// Read-only transactions also count as Commits, so the write-path
	// check is on GroupCommits: no rider may have cleared a failed flush.
	if got := e.Stats().GroupCommits.Load(); got != 0 {
		t.Errorf("engine counted %d group commits under total append failure", got)
	}
	// Healed: nothing may surface as acked-but-lost or torn.
	inj.Heal()
	reportViolations(t, seed, "batched/"+p.Name, verifyFinalState(res))
	// The engine must still accept commits on the healed fabric...
	c := sim.NewClock()
	key := uint64(confKeyBase - 1)
	want := confVal(layout, key, 0, 1)
	if err := writeKey(e, c, engine.RunOpts{Retries: confRetries}, key, want); err != nil {
		t.Fatalf("healed engine cannot commit: %v", err)
	}
	// ...and those commits must be genuinely durable.
	crashRecover(t, e)
	got, err := readKey(e, c, engine.RunOpts{Retries: confRetries}, key)
	if err != nil {
		t.Fatalf("read back after recovery: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-heal commit lost after recovery: got %x", got[:16])
	}
}

// diffFinalStates reads every workload key from both engines and reports
// byte-level differences.
func diffFinalStates(a, b engine.Engine, res *conformanceResult) []string {
	var diffs []string
	c := sim.NewClock()
	opts := engine.RunOpts{Retries: confRetries}
	for _, st := range res.keys {
		va, _ := readKey(a, c, opts, st.key)
		vb, _ := readKey(b, c, opts, st.key)
		if !bytes.Equal(va, vb) {
			_, _, seqA, _, _ := confDecode(va)
			_, _, seqB, _, _ := confDecode(vb)
			diffs = append(diffs, fmt.Sprintf("key %d: engine seq %d != baseline seq %d", st.key, seqA, seqB))
		}
	}
	return diffs
}
