package enginetest

import (
	"bytes"
	"flag"
	"fmt"
	"testing"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/drill"
	"github.com/disagglab/disagg/internal/engine/monolithic"
	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/sim/fault"
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

// eachProfile runs fn as subtest prefix+"Clean" on a clean fabric (p nil),
// then as prefix+"Fault/<name>" under every standard fault profile.
func eachProfile(t *testing.T, prefix string, fn func(t *testing.T, p *fault.Profile)) {
	t.Run(prefix+"Clean", func(t *testing.T) { fn(t, nil) })
	for _, p := range fault.Profiles() {
		t.Run(prefix+"Fault/"+p.Name, func(t *testing.T) { fn(t, &p) })
	}
}

// eachCell runs fn as subtest "seed<i>" of each of eachProfile's subtests,
// for each of the -isoseeds seeds derived from seed, and reports what it
// returns.
func eachCell(t *testing.T, prefix string, seed int64, fn func(t *testing.T, p *fault.Profile, seed int64) drill.Report) {
	eachProfile(t, prefix, func(t *testing.T, p *fault.Profile) {
		for i := 0; i < *isoSeedsFlag; i++ {
			seed := isoSeed(seed, i)
			t.Run(fmt.Sprintf("seed%d", i), func(t *testing.T) { report(t, fn(t, p, seed)) })
		}
	})
}

// build adapts factory to the drill's builder. The drill builds on its own
// layout, which is Layout.
func build(t *testing.T, factory Factory) drill.Builder {
	return func(cfg *sim.Config, _ heap.Layout) engine.Engine { return factory(t, cfg) }
}

// runWorkload runs one drill.Ops phase of the drill's workload on e from an
// empty history.
func runWorkload(e engine.Engine, label string, seed int64) *drill.Workload {
	w := drill.NewWorkload(e, label, seed)
	w.Extend(seed, drill.Ops, nil)
	return w
}

// report fails t with every violation of rep, each with its replay flag,
// and logs the run's counters and, on a violation, its telemetry and
// flight timelines.
func report(t *testing.T, rep drill.Report) {
	t.Helper()
	if rep.Log != "" {
		t.Logf("%s", rep.Log)
	}
	if rep.Ok() {
		return
	}
	for _, v := range rep.Violations {
		t.Errorf("%s", v)
	}
	if rep.Dump != "" {
		t.Logf("%s", rep.Dump)
	}
}

// RunConformance executes the full cross-engine suite: the semantic tests
// (Run), a differential check against the monolithic baseline on the same
// seeded workload, the drill (Drill, and Batched/Drill on group-commit
// engines) and the contended storm under a clean fabric and every standard
// fault profile, the crash/recover cycles (Chaos) and the hook-retention
// guard, the durable mark's loss and re-learning, and the lost-update,
// log-lifecycle and group-commit regressions.
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
		e := factory(t, sim.DefaultConfig())
		base := monolithic.New(sim.DefaultConfig(), Layout(t), 64)
		we := runWorkload(e, "differential/engine", seed)
		wb := runWorkload(base, "differential/baseline", seed)
		we.Verify("")
		wb.Verify("")
		// Fault-free and with one writer per key, both engines must
		// converge to byte-identical final values.
		we.Diff(e, base)
		report(t, we.Report())
		report(t, wb.Report())
	})

	eachCell(t, "Drill/", seed, func(t *testing.T, p *fault.Profile, seed int64) drill.Report {
		return drill.Run(sim.DefaultConfig(), build(t, factory), p, seed, false)
	})
	eachCell(t, "Contended/", seed, func(t *testing.T, p *fault.Profile, seed int64) drill.Report {
		return drill.Contended(sim.DefaultConfig(), build(t, factory), p, seed)
	})
	t.Run("Isolation/LostUpdate", func(t *testing.T) {
		report(t, drill.LostUpdate(sim.DefaultConfig(), build(t, factory), false))
	})
	t.Run("Isolation/ReadSkew", func(t *testing.T) {
		report(t, drill.ReadSkew(sim.DefaultConfig(), build(t, factory), false))
	})

	t.Run("Chaos", func(t *testing.T) {
		runChaos(t, func(t *testing.T) engine.Engine { return factory(t, sim.DefaultConfig()) }, true)
	})
	t.Run("WarmRecover", func(t *testing.T) {
		runChaos(t, func(t *testing.T) engine.Engine { return factory(t, sim.DefaultConfig()) }, false)
	})
	t.Run("HooksMayNotKeepRecs", func(t *testing.T) {
		recsRetentionGuard(t, func() engine.Engine { return factory(t, sim.DefaultConfig()) })
	})
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
		Run(t, func(t *testing.T) engine.Engine { return drill.Batched(factory(t, sim.DefaultConfig())) })
	})
	t.Run("Batched/Chaos", func(t *testing.T) {
		runChaos(t, func(t *testing.T) engine.Engine { return drill.Batched(factory(t, sim.DefaultConfig())) }, true)
	})
	eachCell(t, "Batched/Drill/", seed, func(t *testing.T, p *fault.Profile, seed int64) drill.Report {
		return drill.Run(sim.DefaultConfig(), build(t, factory), p, seed, true)
	})
	t.Run("Batched/Isolation/LostUpdate", func(t *testing.T) {
		report(t, drill.LostUpdate(sim.DefaultConfig(), build(t, factory), true))
	})
	t.Run("Batched/Isolation/WriteSkew", func(t *testing.T) {
		report(t, drill.WriteSkew(sim.DefaultConfig(), build(t, factory), true))
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

// timeoutFlushDurable is the flush-on-timeout regression: a lone commit
// can never fill a group, so it must be released by the window — charged
// as real commit latency — and still be durable across crash/recovery.
func timeoutFlushDurable(t *testing.T, factory Factory) {
	t.Helper()
	e := drill.Batched(factory(t, sim.DefaultConfig()))
	c := sim.NewClock()
	key := uint64(drill.KeyBase)
	want := drill.Val(key, 0, 1)
	if err := writeKey(e, c, engine.RunOpts{Retries: drill.Retries}, key, want); err != nil {
		t.Fatalf("lone batched commit: %v", err)
	}
	if got := e.Stats().FlushOnTimeout.Load(); got == 0 {
		t.Error("lone commit was not released by a timeout flush")
	}
	if e.Stats().GroupCommits.Load() == 0 {
		t.Error("commit did not ride the group-commit path")
	}
	if c.Now() < drill.BatchWindow {
		t.Errorf("commit latency %v does not include the %v batching window", c.Now(), drill.BatchWindow)
	}
	recoverNode(t, e, true)
	got, err := readKey(e, c, engine.RunOpts{Retries: drill.Retries}, key)
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
	cfg, inj, label := drill.FaultConfig(sim.DefaultConfig(), &p, seed)
	e := drill.Batched(factory(t, cfg))
	w := runWorkload(e, "batched/"+label, seed)
	rep := w.Report()
	if rep.Commits != 0 {
		t.Errorf("%d commit(s) acked while every durable append failed (profile %q)", rep.Commits, p.Name)
	}
	if rep.WriteErrs == 0 {
		t.Fatal("workload issued no writes — the regression is vacuous")
	}
	// Read-only transactions also count as Commits, so the write-path
	// check is on GroupCommits: no rider may have cleared a failed flush.
	if got := e.Stats().GroupCommits.Load(); got != 0 {
		t.Errorf("engine counted %d group commits under total append failure", got)
	}
	// Healed: nothing may surface as acked-but-lost or torn.
	inj.Heal()
	w.Verify("")
	report(t, w.Report())
	// The engine must still accept commits on the healed fabric...
	c := sim.NewClock()
	key := uint64(drill.KeyBase - 1)
	want := drill.Val(key, 0, 1)
	if err := writeKey(e, c, engine.RunOpts{Retries: drill.Retries}, key, want); err != nil {
		t.Fatalf("healed engine cannot commit: %v", err)
	}
	// ...and those commits must be genuinely durable.
	recoverNode(t, e, true)
	got, err := readKey(e, c, engine.RunOpts{Retries: drill.Retries}, key)
	if err != nil {
		t.Fatalf("read back after recovery: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-heal commit lost after recovery: got %x", got[:16])
	}
}
