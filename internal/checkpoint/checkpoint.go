// Package checkpoint implements the log-lifecycle subsystem that bounds
// crash recovery across every engine: a checkpoint coordinator that
// captures a durable recovery horizon, flushes page state to cover it,
// publishes the horizon, and only then truncates log state below it —
// Socrates makes the log a first-class tiered service precisely so its
// tail stays bounded (§2.2), and the disaggregation surveys name bounded
// recovery as a core requirement.
//
// The ordering the coordinator enforces is the whole correctness
// argument:
//
//  1. Capture the horizon BEFORE flushing. A commit acked while the
//     flush runs lands above the captured horizon, so truncation never
//     discards records whose page updates the flush may have missed —
//     the flush→truncate race the monolithic engine originally lost
//     acked commits to.
//  2. Flush page state covering every LSN <= horizon. After this step
//     recovery can start from checkpointed pages instead of LSN 0.
//  3. Publish the horizon (the ARIES master record: it survives compute
//     crashes alongside the checkpointed pages).
//  4. Truncate log state below horizon+1, everywhere the engine keeps
//     log: wal.Log, log stores, replicas, raft.
//
// A crash between any two steps is safe: before publish the old horizon
// and the full log are intact; after publish but before (or during a
// torn) truncation the log merely retains extra records — recovery
// replays from the horizon either way and truncation retries
// idempotently on the next round.
package checkpoint

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/wal"
)

// Round describes one engine-specific checkpoint round. The coordinator
// supplies the ordering and horizon bookkeeping; the engine supplies
// what "durable", "flush", and "truncate" mean on its substrate.
type Round struct {
	// Durable returns the engine's current durable LSN: every commit at
	// or below it has been acknowledged durable. Captured once, before
	// Flush runs.
	Durable func() wal.LSN
	// Flush makes durable page state cover every LSN <= horizon,
	// charging the I/O to the clock. After a successful Flush, recovery
	// starting from checkpointed pages needs no record at or below
	// horizon.
	Flush func(c *sim.Clock, horizon wal.LSN) error
	// Truncate discards log state below horizon+1 on every log-bearing
	// component, charging the truncation RPCs to the clock. Truncation
	// failures are non-fatal to the checkpoint (the horizon is already
	// published; retained extra log is waste, not corruption) but are
	// surfaced so callers can count them.
	Truncate func(c *sim.Clock, horizon wal.LSN) error
}

// Coordinator runs checkpoint rounds for one engine and owns the
// published recovery horizon. Telemetry is charged per site:
// "<site>.flush" and "<site>.truncate" land in the config's sim.Registry
// alongside the engine's other substrate operations.
type Coordinator struct {
	cfg  *sim.Config
	site string

	// runMu serializes rounds: two concurrent checkpoints would race
	// their flush→truncate windows against each other.
	runMu sync.Mutex

	mu      sync.Mutex
	horizon wal.LSN

	// Rounds counts completed checkpoint rounds; TruncateErrs counts
	// rounds whose truncation step failed after the horizon published
	// (retried by the next round).
	Rounds       atomic.Int64
	TruncateErrs atomic.Int64
}

// New creates a coordinator charging telemetry under site (e.g.
// "ckpt.aurora").
func New(cfg *sim.Config, site string) *Coordinator {
	return &Coordinator{cfg: cfg, site: site}
}

// Horizon reports the published recovery horizon (0 before the first
// checkpoint). Every commit at or below it is covered by checkpointed
// page state.
func (co *Coordinator) Horizon() wal.LSN {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.horizon
}

// publish raises the horizon (monotonic).
func (co *Coordinator) publish(h wal.LSN) {
	co.mu.Lock()
	if h > co.horizon {
		co.horizon = h
	}
	co.mu.Unlock()
}

// Checkpoint runs one round: capture, flush, publish, truncate. Between a
// successful flush and the publish it reaches sim.PointFlushed.
// A round whose target does not advance past the published horizon is a
// no-op. Flush errors abort the round with the horizon unchanged;
// truncate errors are returned after the horizon has published (the
// round still counts — recovery is already bounded, only log space is
// still owed).
func (co *Coordinator) Checkpoint(c *sim.Clock, r Round) error {
	co.runMu.Lock()
	defer co.runMu.Unlock()
	target := r.Durable()
	if target <= co.Horizon() {
		return nil
	}
	op := co.cfg.Begin(c, co.site+".flush")
	if err := r.Flush(c, target); err != nil {
		op.End(0)
		return err
	}
	op.End(int64(target - co.Horizon()))
	co.cfg.Reach(c, sim.PointFlushed)
	co.publish(target)
	co.Rounds.Add(1)
	if c.Events() != nil {
		c.Emit(sim.Event{T: c.Now(), Kind: sim.EvCheckpoint, Site: co.site,
			Note: fmt.Sprintf("horizon=%d", target)})
	}
	top := co.cfg.Begin(c, co.site+".truncate")
	err := r.Truncate(c, target)
	top.End(int64(target))
	if err != nil {
		co.TruncateErrs.Add(1)
	}
	return err
}
