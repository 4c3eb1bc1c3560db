package cluster_test

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/disagglab/disagg/internal/autoscale"
	"github.com/disagglab/disagg/internal/cluster"
	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/aurora"
	"github.com/disagglab/disagg/internal/engine/sharednothing"
	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/sim/profile"
)

// mustLayout builds the standard 4 KiB-page / 64-byte-value layout.
func mustLayout(t *testing.T) heap.Layout {
	t.Helper()
	layout, err := heap.NewLayout(4096, 64)
	if err != nil {
		t.Fatal(err)
	}
	return layout
}

func TestShardMapDeterministicAcrossJoinOrder(t *testing.T) {
	a := cluster.NewShardMap(64, 0, 1, 2, 3)
	b := cluster.NewShardMap(64)
	for _, id := range []int{3, 1, 0, 2} { // any join order
		b.Add(id)
	}
	for slot := 0; slot < 64; slot++ {
		if a.OwnerOfSlot(slot) != b.OwnerOfSlot(slot) {
			t.Fatalf("slot %d: owner %d vs %d — assignment depends on join order",
				slot, a.OwnerOfSlot(slot), b.OwnerOfSlot(slot))
		}
	}
}

func TestShardMapAddMovesSlotsOnlyToNewcomer(t *testing.T) {
	m := cluster.NewShardMap(256, 0, 1, 2)
	before := make([]int, 256)
	for s := range before {
		before[s] = m.OwnerOfSlot(s)
	}
	moved := m.Add(7)
	if len(moved) == 0 {
		t.Fatal("newcomer won no slots (weights degenerate)")
	}
	movedSet := map[int]bool{}
	for _, s := range moved {
		movedSet[s] = true
		if got := m.OwnerOfSlot(s); got != 7 {
			t.Fatalf("moved slot %d went to %d, not the newcomer", s, got)
		}
	}
	for s := 0; s < 256; s++ {
		if !movedSet[s] && m.OwnerOfSlot(s) != before[s] {
			t.Fatalf("slot %d moved between survivors (%d -> %d)", s, before[s], m.OwnerOfSlot(s))
		}
	}
}

func TestShardMapRemoveMovesOnlyVictimSlots(t *testing.T) {
	m := cluster.NewShardMap(256, 0, 1, 2, 3)
	before := make([]int, 256)
	for s := range before {
		before[s] = m.OwnerOfSlot(s)
	}
	gainers := map[int]bool{}
	moved := m.Remove(2, gainers)
	for _, s := range moved {
		if before[s] != 2 {
			t.Fatalf("slot %d moved but belonged to %d, not the removed member", s, before[s])
		}
		if got := m.OwnerOfSlot(s); got == 2 || got < 0 {
			t.Fatalf("slot %d still owned by %d after removal", s, got)
		}
		if !gainers[m.OwnerOfSlot(s)] {
			t.Fatalf("gainer %d of slot %d not reported", m.OwnerOfSlot(s), s)
		}
	}
	for s := 0; s < 256; s++ {
		if before[s] != 2 && m.OwnerOfSlot(s) != before[s] {
			t.Fatalf("survivor slot %d moved (%d -> %d)", s, before[s], m.OwnerOfSlot(s))
		}
	}
}

func TestShardMapNoOrphans(t *testing.T) {
	m := cluster.NewShardMap(128, 0)
	check := func(stage string) {
		t.Helper()
		members := map[int]bool{}
		for _, id := range m.Members() {
			members[id] = true
		}
		for s := 0; s < 128; s++ {
			own := m.OwnerOfSlot(s)
			if !members[own] {
				t.Fatalf("%s: slot %d owned by %d, not a member", stage, s, own)
			}
		}
	}
	check("initial")
	for id := 1; id <= 5; id++ {
		m.Add(id)
		check("after add")
	}
	for _, id := range []int{3, 0, 5} {
		m.Remove(id, nil)
		check("after remove")
	}
	// Keys route to slots in range and stably.
	for key := uint64(0); key < 1000; key++ {
		s := m.SlotOf(key)
		if s < 0 || s >= 128 {
			t.Fatalf("key %d hashed to slot %d", key, s)
		}
		if m.SlotOf(key) != s {
			t.Fatal("SlotOf is not stable")
		}
	}
}

// auroraSpec builds a shared-volume aurora fleet spec for tests.
func auroraSpec(cfg *sim.Config, layout heap.Layout) cluster.Spec {
	var root *aurora.Engine
	return cluster.Spec{
		Name: "aurora",
		New: func(id int) engine.Engine {
			if id == 0 {
				root = aurora.New(cfg, layout, 64, 1)
				return root
			}
			return aurora.Peer(root, id, 64)
		},
	}
}

// TestFleetSmoke is the -race smoke test: concurrent workers drive keyed
// writes through the router while the fleet scales out and a member
// crashes mid-run; afterwards every acked write must be readable and the
// fleet-wide accounting must conserve.
func TestFleetSmoke(t *testing.T) {
	cfg := sim.DefaultConfig()
	layout := mustLayout(t)
	f := cluster.New(auroraSpec(cfg, layout), sim.NewClock(), 2)

	const workers = 4
	const opsEach = 40
	type ack struct {
		key uint64
		seq uint64
	}
	ackCh := make(chan ack, workers*opsEach)
	var unavailable atomic.Int64
	sim.RunGroup(workers, func(id int, c *sim.Clock) int {
		done := 0
		for i := 0; i < opsEach; i++ {
			key := uint64(1000 + id*opsEach + i)
			seq := uint64(i + 1)
			v := make([]byte, layout.ValSize)
			for b := 0; b < 8; b++ {
				v[b] = byte(seq >> (8 * b))
			}
			err := f.Run(c, key, cluster.RunOpts{RunOpts: engine.RunOpts{Retries: 8}}, func(tx engine.Tx) error {
				return tx.Write(key, v)
			})
			if err != nil {
				if errors.Is(err, engine.ErrUnavailable) {
					unavailable.Add(1)
				}
				continue
			}
			ackCh <- ack{key, seq}
			done++
			// Membership churn mid-stream, from two workers.
			if id == 0 && i == 10 {
				f.ScaleTo(c, 3)
			}
			if id == 1 && i == 25 {
				if err := f.Crash(c, 1); err != nil && !errors.Is(err, cluster.ErrNoMembers) {
					t.Errorf("crash: %v", err)
				}
			}
		}
		return done
	})
	close(ackCh)

	if got := f.Size(); got < 1 {
		t.Fatalf("fleet size = %d", got)
	}
	tot := f.Totals()
	if !tot.Conserved() {
		t.Fatalf("fleet accounting broken: attempts %d != commits %d + aborts %d + shed %d",
			tot.Attempts, tot.Commits, tot.Aborts, tot.Shed)
	}
	// Every acked write must be readable through the (post-failover)
	// router.
	c := sim.NewClock()
	for a := range ackCh {
		var got []byte
		err := f.Run(c, a.key, cluster.RunOpts{RunOpts: engine.RunOpts{Retries: 8}}, func(tx engine.Tx) error {
			v, rerr := tx.Read(a.key)
			got = v
			return rerr
		})
		if err != nil {
			t.Fatalf("read back key %d: %v", a.key, err)
		}
		var seq uint64
		for b := 0; b < 8; b++ {
			seq |= uint64(got[b]) << (8 * b)
		}
		if seq != a.seq {
			t.Fatalf("key %d: acked seq %d, read %d after failover", a.key, a.seq, seq)
		}
	}
	t.Logf("smoke: commits=%d aborts=%d shed=%d unavailable-surfaced=%d",
		tot.Commits, tot.Aborts, tot.Shed, unavailable.Load())
}

// TestCrashMidRunLandsBeforeTheWorkersFinish crashes a member from one
// worker halfway through its stream while three others keep writing with
// group commit on, so dispatches park inside a batch holding the membership
// lock. The crash must wait only for the dispatches in flight — new ones
// queue behind it — and so land while the others are still about halfway,
// not after they drain.
func TestCrashMidRunLandsBeforeTheWorkersFinish(t *testing.T) {
	cfg := sim.DefaultConfig()
	layout := mustLayout(t)
	spec := auroraSpec(cfg, layout)
	build := spec.New
	spec.New = func(id int) engine.Engine {
		e := build(id)
		e.(engine.GroupCommitter).EnableGroupCommit(4, 50*time.Microsecond)
		return e
	}
	f := cluster.New(spec, sim.NewClock(), 2)
	const workers, opsEach = 4, 40
	var othersDone atomic.Int32
	othersAtCrash := int32(-1)
	sim.RunGroup(workers, func(id int, c *sim.Clock) int {
		v := make([]byte, layout.ValSize)
		for i := 0; i < opsEach; i++ {
			if id == 0 && i == opsEach/2 {
				if err := f.Crash(c, 1); err != nil {
					t.Errorf("crash: %v", err)
				}
				othersAtCrash = othersDone.Load()
			}
			key := uint64(1000 + id*opsEach + i)
			f.Run(c, key, cluster.RunOpts{RunOpts: engine.RunOpts{Retries: 8}}, func(tx engine.Tx) error {
				return tx.Write(key, v)
			})
			if id != 0 {
				othersDone.Add(1)
			}
		}
		return opsEach
	})
	// The workers move in virtual-time lockstep, so at worker 0's halfway
	// point each other worker is at most one op past its own.
	if limit := int32((workers - 1) * (opsEach/2 + 1)); othersAtCrash < 0 || othersAtCrash > limit {
		t.Fatalf("crash landed after the others finished %d ops, want at most %d of %d",
			othersAtCrash, limit, (workers-1)*opsEach)
	}
	if got := f.Size(); got != 1 {
		t.Fatalf("fleet size %d after the crash, want 1", got)
	}
}

// TestFleetReadOnlyRouting exercises least-loaded/session-affinity reads:
// an acked write on the shard owner must be visible to a read-only
// session routed to any other member (the refresh closes the watermark
// gap).
func TestFleetReadOnlyRouting(t *testing.T) {
	cfg := sim.DefaultConfig()
	layout := mustLayout(t)
	f := cluster.New(auroraSpec(cfg, layout), sim.NewClock(), 3)
	c := sim.NewClock()
	key := uint64(4242)
	want := make([]byte, layout.ValSize)
	want[0] = 0xAB
	if err := f.Run(c, key, cluster.RunOpts{RunOpts: engine.RunOpts{Retries: 4}}, func(tx engine.Tx) error {
		return tx.Write(key, want)
	}); err != nil {
		t.Fatal(err)
	}
	// Several sessions: each pins a member; all must see the commit.
	for sess := 0; sess < 6; sess++ {
		var got []byte
		err := f.Run(c, key, cluster.RunOpts{
			RunOpts:  engine.RunOpts{Retries: 4, Session: sess},
			ReadOnly: true,
		}, func(tx engine.Tx) error {
			v, rerr := tx.Read(key)
			got = v
			return rerr
		})
		if err != nil {
			t.Fatalf("session %d read: %v", sess, err)
		}
		if got[0] != 0xAB {
			t.Fatalf("session %d: stale read %x (cross-member refresh failed)", sess, got[0])
		}
	}
}

func TestControllerScalesOutAndBackIn(t *testing.T) {
	cfg := sim.DefaultConfig()
	layout := mustLayout(t)
	f := cluster.New(auroraSpec(cfg, layout), sim.NewClock(), 1)
	ctl := cluster.NewController(f, autoscale.NewReactive())
	ctl.Max = 4

	// Saturate the lone member: its meter observes 3x more busy time
	// than the window (clock at 1ms, 3ms demanded).
	c := sim.NewClock()
	c.Advance(time.Millisecond)
	f.Members()[0].Meter.Observe(c, 3*time.Millisecond)
	res := ctl.Tick(c)
	if res.Telemetry.Util <= 1 {
		t.Fatalf("util = %v, want oversubscribed", res.Telemetry.Util)
	}
	if got := f.Size(); got < 2 {
		t.Fatalf("controller did not scale out: size %d (%s)", got, res.Decision.Reason)
	}
	if len(res.Added) == 0 || res.WarmTime <= 0 {
		t.Fatalf("scale-out charged no warm work: %+v", res)
	}

	// Idle windows: scale back in, but never below one member.
	for i := 0; i < 4; i++ {
		c.Advance(time.Millisecond)
		res = ctl.Tick(c)
	}
	if got := f.Size(); got >= 4 {
		t.Fatalf("controller did not scale in after idle windows: size %d", got)
	}
	if f.Size() < 1 {
		t.Fatalf("fleet fell below one member: %d", f.Size())
	}
}

func TestPartitionedFleetRescales(t *testing.T) {
	cfg := sim.DefaultConfig()
	layout := mustLayout(t)
	var e *sharednothing.Engine
	spec := cluster.Spec{
		Name: "shared-nothing",
		New: func(id int) engine.Engine {
			e = sharednothing.New(cfg, layout, 1)
			return e
		},
		Rescale: func(c *sim.Clock, n int) int64 { return e.Rebalance(c, n) },
	}
	c := sim.NewClock()
	f := cluster.New(spec, c, 2)
	if e.Partitions() != 2 {
		t.Fatalf("partitions = %d", e.Partitions())
	}
	// Write some data, then rescale: data must move (the elasticity tax).
	for key := uint64(0); key < 64; key++ {
		v := make([]byte, layout.ValSize)
		if err := f.Run(c, key, cluster.RunOpts{RunOpts: engine.RunOpts{Retries: 4}}, func(tx engine.Tx) error {
			return tx.Write(key, v)
		}); err != nil {
			t.Fatal(err)
		}
	}
	f.ScaleTo(c, 4)
	if e.Partitions() != 4 {
		t.Fatalf("partitions after scale = %d", e.Partitions())
	}
	if e.MovedBytes.Load() == 0 {
		t.Fatal("rescale moved no data — shared-nothing elasticity should pay the movement tax")
	}
	// Crash drills are unsupported on partitioned fleets.
	if err := f.Crash(c, 0); !errors.Is(err, cluster.ErrUnsupported) {
		t.Fatalf("crash on partitioned fleet: %v", err)
	}
}

// TestFleetSLOSurfacedThroughController attaches a latency objective to
// a fleet, drives transactions through the router (some fast, some
// failing), and checks the controller's tick surfaces the window's burn
// rate — and that a fleet without an objective is distinguishable from
// one burning at 0x.
func TestFleetSLOSurfacedThroughController(t *testing.T) {
	cfg := sim.DefaultConfig()
	layout := mustLayout(t)
	f := cluster.New(auroraSpec(cfg, layout), sim.NewClock(), 1)
	ctl := cluster.NewController(f, autoscale.NewReactive())

	c := sim.NewClock()
	if res := ctl.Tick(c); res.SLOAttached {
		t.Fatalf("tick reports an objective before SetSLO: %+v", res.SLO)
	}

	// 90% objective: with 8 clean commits and 2 forced failures the
	// window's error fraction is 0.2 and the burn 2x.
	f.SetSLO(profile.SLO{Target: 50 * time.Millisecond, Objective: 0.9, Window: 10 * time.Millisecond})
	v := make([]byte, layout.ValSize)
	boom := errors.New("boom")
	for i := 0; i < 10; i++ {
		key := uint64(100 + i)
		fail := i >= 8
		err := f.Run(c, key, cluster.RunOpts{RunOpts: engine.RunOpts{Retries: 2}}, func(tx engine.Tx) error {
			if fail {
				return boom
			}
			return tx.Write(key, v)
		})
		if fail != (err != nil) {
			t.Fatalf("op %d: err = %v, want failure=%v", i, err, fail)
		}
	}

	res := ctl.Tick(c)
	if !res.SLOAttached {
		t.Fatalf("objective attached but tick reports none")
	}
	if res.SLO.Good != 8 || res.SLO.Bad != 2 {
		t.Fatalf("window counted good=%d bad=%d, want 8/2", res.SLO.Good, res.SLO.Bad)
	}
	if res.SLO.Burn < 1.9 || res.SLO.Burn > 2.1 {
		t.Fatalf("burn = %.2fx, want ~2x (errFrac 0.2 against a 0.1 budget)", res.SLO.Burn)
	}

	// A tick far past the window sees an empty (healthy) window.
	c.Advance(time.Second)
	if res := ctl.Tick(c); !res.SLOAttached || res.SLO.Bad != 0 || res.SLO.Burn != 0 {
		t.Fatalf("stale window leaked into the snapshot: %+v", res.SLO)
	}
}
