package enginetest

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/disagglab/disagg/internal/engine"
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

// Factory builds a fresh engine on the given substrate config. The suite
// attaches fault injectors through cfg.Fault, so engines must thread cfg
// into every simulated component they build.
type Factory func(t *testing.T, cfg *sim.Config) engine.Engine

// durableLSNer is implemented by engines exposing their durable watermark;
// the suite checks it never moves backwards across recovery.
type durableLSNer interface{ DurableLSN() wal.LSN }

// Conformance workload shape: each worker owns a disjoint key range, so
// every key has exactly one writer and a per-key total order of intended
// writes — which is what makes the invariants checkable under concurrency.
const (
	confWorkers   = 4
	confOps       = 48
	confKeysEach  = 8
	confKeyBase   = 10_000
	confRetries   = 25
	confWriteFrac = 70 // percent of ops that are writes

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

// keyState is the per-key intended history. Only the owning worker mutates
// it during the workload; verification reads it afterwards.
type keyState struct {
	owner  int
	issued uint64 // highest seq handed to a write (acked or not)
	acked  uint64 // highest seq whose commit was acknowledged
}

// conformanceResult captures a finished workload: the per-key histories
// plus violations observed in flight (read-your-writes, torn values).
type conformanceResult struct {
	layout heap.Layout
	keys   map[uint64]*keyState

	// box aggregates the workers' flight recorders; on an invariant
	// failure the suite dumps every retained timeline. rounds counts
	// workload extensions (recorder labels stay distinguishable).
	box    *profile.Blackbox
	rounds int

	mu         sync.Mutex
	violations []string
	writeErrs  int
	readErrs   int
	commits    int
}

func (r *conformanceResult) violate(format string, args ...any) {
	r.mu.Lock()
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

func workerKeys(id int) (lo, hi uint64) {
	lo = confKeyBase + uint64(id)*confKeysEach
	return lo, lo + confKeysEach
}

// checkValue applies the per-key invariants to one observed value.
// Committed writes must be visible (seq >= acked), no value may be torn
// (checksum), and no value may come from outside the intended history
// (owner and seq bounds). where names the observation point in messages.
func checkValue(res *conformanceResult, key uint64, st *keyState, v []byte, where string) {
	k, w, seq, zero, ok := confDecode(v)
	if !ok {
		res.violate("%s: key %d: torn/garbled value %x", where, key, v[:32])
		return
	}
	if zero {
		if st.acked > 0 {
			res.violate("%s: key %d: lost acked write seq %d (value is zero)", where, key, st.acked)
		}
		return
	}
	if k != key || w != uint64(st.owner) {
		res.violate("%s: key %d: foreign value (key=%d worker=%d)", where, key, k, w)
		return
	}
	if seq > st.issued {
		res.violate("%s: key %d: fabricated seq %d (issued %d)", where, key, seq, st.issued)
		return
	}
	if seq < st.acked {
		res.violate("%s: key %d: stale seq %d < acked %d", where, key, seq, st.acked)
	}
}

// runConformanceWorkload drives the seeded concurrent workload: each worker
// issues a deterministic mix of writes (fresh seq per key) and reads
// (validated in flight for read-your-writes and value integrity) over its
// own key range. Transient errors are tolerated and counted; the per-key
// history records which writes were acknowledged.
func runConformanceWorkload(e engine.Engine, layout heap.Layout, seed int64) *conformanceResult {
	res := newConformanceResult(layout)
	extendConformanceWorkload(e, res, seed)
	return res
}

// newConformanceResult is the empty history of the conformance key ranges.
func newConformanceResult(layout heap.Layout) *conformanceResult {
	res := &conformanceResult{layout: layout, keys: make(map[uint64]*keyState), box: profile.NewBlackbox()}
	for id := 0; id < confWorkers; id++ {
		lo, hi := workerKeys(id)
		for k := lo; k < hi; k++ {
			res.keys[k] = &keyState{owner: id}
		}
	}
	return res
}

// extendConformanceWorkload continues a workload on the same engine and
// history: each worker issues another confOps operations over its own
// keys, advancing the per-key sequences where they left off. The recovery
// drills use it to land commits between checkpoint rounds, so the
// crash/recover verification spans checkpointed pages, the retained log
// tail, and everything in between.
func extendConformanceWorkload(e engine.Engine, res *conformanceResult, seed int64) {
	extendConformanceWorkloadBeside(e, res, seed, nil)
}

// extendConformanceWorkloadBeside is extendConformanceWorkload with bg, when
// non-nil, as one more member of the workers' group. bg's next blocks until
// a worker has finished another operation and reports whether any worker is
// still running; bg returns once it reports false.
func extendConformanceWorkloadBeside(e engine.Engine, res *conformanceResult, seed int64, bg func(c *sim.Clock, next func() bool)) {
	layout := res.layout
	res.rounds++
	round := res.rounds
	var ops atomic.Int64
	var left atomic.Int32
	left.Store(confWorkers)
	members := confWorkers
	if bg != nil {
		members++
	}
	sim.RunGroup(members, func(id int, c *sim.Clock) int {
		if id == confWorkers {
			bg(c, func() bool {
				mark := ops.Load()
				sim.Wait(c, func() bool { return left.Load() == 0 || ops.Load() != mark })
				return left.Load() > 0
			})
			return 0
		}
		defer left.Add(-1)
		c.SetEvents(res.box.Recorder(fmt.Sprintf("round %d worker %d", round, id), confFlightEvents))
		rng := sim.NewRand(seed, id)
		lo, _ := workerKeys(id)
		done := 0
		for op := 0; op < confOps; op++ {
			ops.Add(1)
			key := lo + uint64(rng.Intn(confKeysEach))
			st := res.keys[key]
			if rng.Intn(100) < confWriteFrac {
				st.issued++
				seq := st.issued
				v := confVal(layout, key, uint64(id), seq)
				if err := writeKey(e, c, engine.RunOpts{Retries: confRetries}, key, v); err != nil {
					// Unacknowledged commit: outcome unknown (it may
					// still surface — like a timed-out commit in a real
					// system). The history keeps seq as issued-only.
					res.mu.Lock()
					res.writeErrs++
					res.mu.Unlock()
					continue
				}
				st.acked = seq
				res.mu.Lock()
				res.commits++
				res.mu.Unlock()
				done++
				continue
			}
			got, err := readKey(e, c, engine.RunOpts{Retries: confRetries}, key)
			if err != nil {
				res.mu.Lock()
				res.readErrs++
				res.mu.Unlock()
				continue
			}
			checkValue(res, key, st, got, "workload read")
			done++
		}
		return done
	})
}

// verifyFinalState re-reads every workload key (with bounded retries, on a
// healed fabric) and applies the invariants, returning the violations. It
// also appends any violations recorded during the workload itself.
func verifyFinalState(e engine.Engine, res *conformanceResult) []string {
	c := sim.NewClock()
	if res.box != nil {
		c.SetEvents(res.box.Recorder(fmt.Sprintf("verify pass %d", res.box.Size()), confFlightEvents))
	}
	for key, st := range res.keys {
		var got []byte
		var err error
		for attempt := 0; attempt < 3; attempt++ {
			if got, err = readKey(e, c, engine.RunOpts{Retries: confRetries}, key); err == nil {
				break
			}
		}
		if err != nil {
			res.violate("final read: key %d: %v", key, err)
			continue
		}
		checkValue(res, key, st, got, "final read")
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
	if _, err := r.Recover(sim.NewClock()); err != nil {
		t.Fatalf("recovery under profile %q failed: %v (replay: -seed=%d)", profile, err, seed)
	}
	if hasLSN {
		if after := d.DurableLSN(); after < before {
			res.violate("recovery LSN moved backwards: %d -> %d", before, after)
		}
	}
	reportViolations(t, seed, profile+"+crash", verifyFinalState(e, res))
}

// RunConformance executes the full cross-engine suite: the semantic tests
// (Run), a differential check against the monolithic baseline on the same
// seeded workload, and the seeded chaos workloads — one per standard fault
// profile — each followed by invariant verification on a healed fabric and
// a crash/recovery drill.
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
		reportViolations(t, seed, "differential/engine", verifyFinalState(e, resE))
		reportViolations(t, seed, "differential/baseline", verifyFinalState(base, resB))
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

	t.Run("SiteLint", func(t *testing.T) {
		runSiteLint(t, factory, seed)
	})

	for _, p := range fault.Profiles() {
		p := p
		t.Run("Fault/"+p.Name, func(t *testing.T) {
			runFaultProfile(t, factory, p, seed, false)
		})
	}

	// Overload: a hot-key contention storm under each fault profile with
	// the full admission stack engaged (backoff, retry budget, shedder) —
	// checks liveness (bounded virtual makespan; the pre-fix zero-delay
	// retry loop livelocked here) and attempts-accounting conservation.
	for _, p := range fault.Profiles() {
		p := p
		t.Run("Overload/"+p.Name, func(t *testing.T) {
			runOverloadProfile(t, factory, p, seed)
		})
	}

	// Isolation: the history-checked variants. Every transaction of a
	// seeded workload is recorded (reads, writes, retry lineage, commit
	// stamps) and the history is checked for dependency cycles and Adya
	// anomalies — on a clean fabric, under every fault profile, and under
	// hot-key contention with the admission stack.
	t.Run("Isolation/Clean", func(t *testing.T) { runIsolation(t, factory, nil, false, false) })
	for _, p := range fault.Profiles() {
		p := p
		t.Run("Isolation/Fault/"+p.Name, func(t *testing.T) {
			runIsolation(t, factory, &p, false, false)
		})
	}
	t.Run("Isolation/Contended", func(t *testing.T) { runIsolation(t, factory, nil, true, false) })

	// Coherence: the cross-tier stale-read probe — one writer bumping a
	// hot key set, concurrent readers (primary and replica paths) holding
	// the engine to a floor captured before each read. A value decoding
	// below the floor is a stale cache serve, whatever tier it hid in.
	t.Run("Coherence/Clean", func(t *testing.T) { runCoherenceProbe(t, factory, nil, false) })
	for _, p := range fault.Profiles() {
		p := p
		t.Run("Coherence/Fault/"+p.Name, func(t *testing.T) {
			runCoherenceProbe(t, factory, &p, false)
		})
	}

	// Recovery: the log-lifecycle drills. Checkpoint rounds interleave
	// with commits (clean, under every fault profile, and racing the
	// workload from a concurrent goroutine), truncation is held open by a
	// dedicated fault profile, and every variant ends in a crash/recover
	// cycle that must surface all acked commits — from checkpointed pages
	// and from the retained log tail alike — and no write the durable tier
	// refused.
	t.Run("Recovery/Clean", func(t *testing.T) { runRecoveryDrill(t, factory, nil, seed) })
	for _, p := range fault.Profiles() {
		p := p
		t.Run("Recovery/Fault/"+p.Name, func(t *testing.T) {
			runRecoveryDrill(t, factory, &p, seed)
		})
	}
	t.Run("Recovery/ConcurrentCheckpoint", func(t *testing.T) {
		runConcurrentCheckpoint(t, factory, seed)
	})
	t.Run("Recovery/TornTruncation", func(t *testing.T) {
		runTornTruncation(t, factory, seed)
	})
	t.Run("Recovery/FailedDurable", func(t *testing.T) {
		runFailedDurable(t, factory, seed)
	})

	// Batched variants: engines supporting group commit re-run the seeded
	// suite with batching enabled, so fault replays also cover grouped
	// flushes (one substrate fault decision shared by every rider).
	if engine.Caps(factory(t, sim.DefaultConfig())).GroupCommitter == nil {
		return
	}
	t.Run("Isolation/Batched", func(t *testing.T) { runIsolation(t, factory, nil, false, true) })
	t.Run("Coherence/Batched", func(t *testing.T) { runCoherenceProbe(t, factory, nil, true) })
	t.Run("Batched/Semantics", func(t *testing.T) {
		Run(t, func(t *testing.T) engine.Engine { return batched(factory(t, sim.DefaultConfig())) })
	})
	t.Run("Batched/Chaos", func(t *testing.T) {
		RunChaos(t, func(t *testing.T) engine.Engine { return batched(factory(t, sim.DefaultConfig())) })
	})
	for _, p := range fault.Profiles() {
		p := p
		t.Run("Batched/Fault/"+p.Name, func(t *testing.T) {
			runFaultProfile(t, factory, p, seed, true)
		})
	}
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

// runFaultProfile drives one seeded chaos workload under the profile,
// verifies invariants on a healed fabric, and drills crash/recovery —
// with or without group commit enabled.
func runFaultProfile(t *testing.T, factory Factory, p fault.Profile, seed int64, batch bool) {
	t.Helper()
	layout := Layout(t)
	inj := fault.New(seed, p)
	cfg := sim.DefaultConfig()
	cfg.Fault = inj
	// Per-site telemetry shares the fault injector's site labels;
	// on an invariant failure the table shows where latency and
	// bytes went under this profile.
	cfg.Stats = sim.NewRegistry()
	e := factory(t, cfg)
	label := p.Name
	if batch {
		e = batched(e)
		label = "batched/" + p.Name
	}
	res := runConformanceWorkload(e, layout, seed)
	// Verification runs on a healed fabric: the invariants are
	// about what the engine acknowledged, not about reads racing
	// live faults.
	inj.Heal()
	t.Logf("profile %s: commits=%d writeErrs=%d readErrs=%d faults={drops=%d dups=%d tears=%d delays=%d}",
		label, res.commits, res.writeErrs, res.readErrs,
		inj.Drops.Load(), inj.Dups.Load(), inj.Tears.Load(), inj.Delays.Load())
	if res.commits == 0 {
		t.Errorf("no transaction committed under profile %q (seed %d): fault rates starve the workload", label, seed)
	}
	reportViolations(t, seed, label, verifyFinalState(e, res))
	crashRecoverVerify(t, e, res, seed, label)
	checkConservation(t, e, label, seed)
	if t.Failed() {
		t.Logf("per-site telemetry under profile %q:\n%s", label, cfg.Stats.String())
		t.Logf("flight-recorder timelines under profile %q:\n%s", label, res.box.Dump())
	}
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
	if res.commits != 0 {
		t.Errorf("%d commit(s) acked while every durable append failed (profile %q)", res.commits, p.Name)
	}
	if res.writeErrs == 0 {
		t.Fatal("workload issued no writes — the regression is vacuous")
	}
	// Read-only transactions also count as Commits, so the write-path
	// check is on GroupCommits: no rider may have cleared a failed flush.
	if got := e.Stats().GroupCommits.Load(); got != 0 {
		t.Errorf("engine counted %d group commits under total append failure", got)
	}
	// Healed: nothing may surface as acked-but-lost or torn.
	inj.Heal()
	reportViolations(t, seed, "batched/"+p.Name, verifyFinalState(e, res))
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
	for key := range res.keys {
		va, _ := readKey(a, c, opts, key)
		vb, _ := readKey(b, c, opts, key)
		if !bytes.Equal(va, vb) {
			_, _, seqA, _, _ := confDecode(va)
			_, _, seqB, _, _ := confDecode(vb)
			diffs = append(diffs, fmt.Sprintf("key %d: engine seq %d != baseline seq %d", key, seqA, seqB))
		}
	}
	return diffs
}
