package enginetest

import (
	"testing"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/sim/fault"
)

// The recovery drills exercise the log-lifecycle subsystem end to end:
// checkpoint rounds bound the log while commits keep landing, then a
// crash/recover cycle must surface every acked commit — those covered by
// checkpointed page state and those still in the retained log tail. The
// drills deliberately target the windows the checkpoint ordering protects:
// commits acked during a round, a crash right after a round, and a crash
// in the publish→truncate window (held open by failing every truncation
// RPC).

// ckptRetries bounds checkpoint retries under fault profiles; a round can
// legitimately fail when drops cost it quorum or tear its snapshot upload.
const ckptRetries = 5

// checkpointWithRetry runs checkpoint rounds until one succeeds, returning
// the last error (nil on success). Retrying is safe by construction: a
// failed flush leaves the horizon unchanged and a failed truncation is
// idempotent debt the next round retires.
func checkpointWithRetry(cp engine.Checkpointer, c *sim.Clock) error {
	var err error
	for i := 0; i < ckptRetries; i++ {
		if err = cp.Checkpoint(c); err == nil {
			return nil
		}
	}
	return err
}

// runConcurrentCheckpoint races checkpoint rounds against the live
// workload from a separate goroutine — the regime the capture-before-flush
// ordering exists for: a commit acked while a round's flush runs lands
// above the captured horizon and must survive in the retained tail.
func runConcurrentCheckpoint(t *testing.T, factory Factory, seed int64) {
	t.Helper()
	layout := Layout(t)
	e := factory(t, sim.DefaultConfig())
	cp := engine.Caps(e).Checkpointer
	if cp == nil {
		t.Skip("engine does not implement Checkpointer")
	}

	// The checkpointer is one more member of the workload's group: a round,
	// then a wait until a worker has begun another operation, until the
	// workload is done — so rounds interleave with live commits.
	rounds := 0
	var firstErr error
	checkpointer := func(c *sim.Clock, next func() int64) {
		for {
			if err := cp.Checkpoint(c); err != nil && firstErr == nil {
				firstErr = err
			}
			rounds++
			if next() == 0 {
				return
			}
		}
	}
	res := engineResult(e, layout)
	extendConformanceWorkload(res, seed, confOps, checkpointer)
	extendConformanceWorkload(res, seed+1, confOps, checkpointer)

	if firstErr != nil {
		t.Errorf("concurrent checkpoint on clean fabric: %v", firstErr)
	}
	t.Logf("checkpoint rounds racing the workload: %d (horizon %d)", rounds, cp.RecoveryHorizon())
	// Whatever horizon the racing rounds published must still be covered
	// by durable state — and a final quiesced round must succeed.
	if err := cp.Checkpoint(sim.NewClock()); err != nil {
		t.Errorf("quiesced checkpoint after the race: %v", err)
	}
	if cp.RecoveryHorizon() == 0 {
		t.Error("no recovery horizon published after racing rounds plus a quiesced round")
	}
	reportViolations(t, seed, "recovery/concurrent", verifyFinalState(res))
	crashRecoverVerify(t, e, res, seed, "recovery/concurrent")
	checkConservation(t, e, "recovery/concurrent", seed)
}

// runFailedDurable makes one write the durable tier refuses — every durable
// append is dropped — then heals, checkpoints, crashes and recovers where
// the engine can, and reads the key back: it must hold the value from
// before the refused write. The refused write's records used to stay in
// the authoritative log, where a heal, a checkpoint's redo, recovery and
// the next page miss all took them for committed. An engine whose durable
// tier has no append site commits the write and skips.
func runFailedDurable(t *testing.T, factory Factory, seed int64) {
	t.Helper()
	layout := Layout(t)
	inj := fault.New(seed, fault.Profile{Name: "refuse-appends", Drop: 1, Sites: fault.AppendSites})
	inj.Heal()
	cfg := sim.DefaultConfig()
	cfg.Fault = inj
	e := factory(t, cfg)
	c := sim.NewClock()
	key := uint64(confKeyBase)
	write := func(seq uint64) error {
		return writeKey(e, c, engine.RunOpts{}, key, confVal(layout, key, 0, seq))
	}
	if err := write(1); err != nil {
		t.Fatalf("write on a clean fabric: %v", err)
	}
	inj.Enable()
	err := write(2)
	inj.Heal()
	if err == nil {
		t.Skip("the durable tier has no append site: the write committed")
	}
	if cp := engine.Caps(e).Checkpointer; cp != nil {
		if err := checkpointWithRetry(cp, c); err != nil {
			t.Fatalf("checkpoint after the refused write: %v", err)
		}
	}
	crashRecover(t, e)
	got, err := readKey(e, c, engine.RunOpts{Retries: confRetries}, key)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if _, _, seq, _, ok := confDecode(got); !ok || seq != 1 {
		t.Fatalf("key %d reads seq %d (checksum ok %v) after a refused write of seq 2, want 1 (seed %d)", key, seq, ok, seed)
	}
}

// tornTruncationProfile drops every distributed truncation RPC while
// leaving the rest of the fabric clean: the round's flush and horizon
// publish succeed, but the log below the horizon survives — the
// crash-in-the-publish→truncate-window scenario, held open
// deterministically. Engines whose truncation is purely node-local see no
// injectable site and simply complete the round; the drill still verifies
// their recovery with a fresh horizon.
func tornTruncationProfile() fault.Profile {
	return fault.Profile{
		Name: "torn-truncation",
		Drop: 1,
		Sites: []string{
			"logstore.truncate",
			"raft.compact",
			"obj.delete",
		},
	}
}

// runTornTruncation checkpoints with every truncation RPC failing, crashes
// in the held-open window (log retained below the published horizon —
// recovery must not double-apply or refuse it), then heals and verifies
// the next round retires the truncation debt.
func runTornTruncation(t *testing.T, factory Factory, seed int64) {
	t.Helper()
	layout := Layout(t)
	inj := fault.New(seed, tornTruncationProfile())
	inj.Heal() // the workload runs clean; only the truncation step is faulted
	cfg := sim.DefaultConfig()
	cfg.Fault = inj
	cfg.Stats = sim.NewRegistry()
	e := factory(t, cfg)
	cp := engine.Caps(e).Checkpointer
	if cp == nil {
		t.Skip("engine does not implement Checkpointer")
	}
	if engine.Caps(e).Recoverer == nil {
		t.Skip("engine does not implement Recoverer")
	}

	res := runConformanceWorkload(e, layout, seed)
	inj.Enable()
	err := cp.Checkpoint(sim.NewClock())
	if h := cp.RecoveryHorizon(); h == 0 {
		// Only truncation sites are faulted, so a missing horizon means
		// the flush path touched a truncation site — a layering bug.
		t.Errorf("horizon did not publish under truncation-only faults (err=%v)", err)
	}
	inj.Heal()

	crashRecoverVerify(t, e, res, seed, "recovery/torn-truncation")

	// Healed: more commits, and the next round must retire the retained
	// log debt (truncation is idempotent and retryable).
	extendConformanceWorkload(res, seed+1, confOps, nil)
	if err := checkpointWithRetry(cp, sim.NewClock()); err != nil {
		t.Errorf("healed checkpoint did not retire truncation debt: %v", err)
	}
	crashRecoverVerify(t, e, res, seed, "recovery/torn-truncation+healed")
	checkConservation(t, e, "recovery/torn-truncation", seed)
	if t.Failed() {
		t.Logf("per-site telemetry:\n%s", cfg.Stats.String())
		t.Logf("flight-recorder timelines:\n%s", res.box.Dump())
	}
}
