package cluster_test

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/disagglab/disagg/internal/autoscale"
	"github.com/disagglab/disagg/internal/cluster"
	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/aurora"
	"github.com/disagglab/disagg/internal/engine/drill"
	"github.com/disagglab/disagg/internal/engine/sharednothing"
	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/sim"
)

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

// A fleet transaction writes only within the shard of the member it was
// routed to: members keep separate lock tables, so a write to another
// member's key fails and the transaction commits nothing.
func TestFleetRefusesACrossShardWrite(t *testing.T) {
	cfg := sim.DefaultConfig()
	layout := drill.Layout()
	c := sim.NewClock()
	f := cluster.New(auroraSpec(cfg, layout), c, 2)
	shards := cluster.NewShardMap(cluster.DefaultSlots, 0, 1) // the fleet's map: rendezvous hashing ignores join order
	keys := [2]uint64{}
	for k, found := uint64(0), 0; found < 3; k++ {
		if o := shards.Owner(k); found&(1<<o) == 0 {
			keys[o] = k
			found |= 1 << o
		}
	}
	v := make([]byte, layout.ValSize)
	v[0] = 1
	writeBoth := func(tx engine.Tx) error {
		for _, k := range keys {
			if err := tx.Write(k, v); err != nil {
				return err
			}
		}
		return nil
	}
	opts := cluster.RunOpts{Retries: 4}
	if err := f.Run(c, keys[0], opts, writeBoth); !errors.Is(err, cluster.ErrCrossShard) {
		t.Fatalf("a write to member 0's key %d and member 1's key %d: err %v, want ErrCrossShard", keys[0], keys[1], err)
	}
	for _, k := range keys {
		if err := f.Run(c, k, opts, func(tx engine.Tx) error {
			got, err := tx.Read(k)
			if err == nil && got[0] != 0 {
				t.Errorf("key %d reads %d after the refused transaction, want 0", k, got[0])
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}

}

// TestFleetSmoke is the -race smoke test: concurrent workers drive keyed
// writes through the router while the fleet scales out and a member
// crashes mid-run; afterwards every acked write must be readable and the
// fleet-wide accounting must conserve.
func TestFleetSmoke(t *testing.T) {
	cfg := sim.DefaultConfig()
	layout := drill.Layout()
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
			err := f.Run(c, key, cluster.RunOpts{Retries: 8}, func(tx engine.Tx) error {
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
		err := f.Run(c, a.key, cluster.RunOpts{Retries: 8}, func(tx engine.Tx) error {
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

// leaver counts how often the fleet crashes and detaches a member.
type leaver struct {
	*aurora.Engine
	crashes, detaches int
}

func (l *leaver) Crash()  { l.crashes++; l.Engine.Crash() }
func (l *leaver) Detach() { l.detaches++; l.Engine.Detach() }

// TestCrashMidRunLandsBeforeTheWorkersFinish crashes a member from one
// worker halfway through its stream while three others keep writing with
// group commit on, so dispatches park inside a batch holding the membership
// lock. The crash must wait only for the dispatches in flight — new ones
// queue behind it — and so land while the others are still about halfway,
// not after they drain. It crashes the member once, and the member leaves
// the coherence directory as a drained one does, so nothing its in-flight
// transactions load after the crash draws invalidation fan-out.
func TestCrashMidRunLandsBeforeTheWorkersFinish(t *testing.T) {
	layout := drill.Layout()
	spec := auroraSpec(sim.DefaultConfig(), layout)
	build := spec.New
	var peer *leaver
	spec.New = func(id int) engine.Engine {
		e := build(id)
		e.(engine.GroupCommitter).EnableGroupCommit(4, 50*time.Microsecond)
		if id == 1 {
			peer = &leaver{Engine: e.(*aurora.Engine)}
			return peer
		}
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
			f.Run(c, key, cluster.RunOpts{Retries: 8}, func(tx engine.Tx) error {
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
	if peer.crashes != 1 || peer.detaches != 1 {
		t.Fatalf("the crashed member was crashed %d times and detached %d times, want once each", peer.crashes, peer.detaches)
	}
}

func TestControllerScalesOutAndBackIn(t *testing.T) {
	cfg := sim.DefaultConfig()
	layout := drill.Layout()
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

// A member that is no engine.Recoverer cannot learn the durable mark, so
// it cannot attach: building the fleet panics and names the engine.
func TestFleetRefusesAMemberThatCannotRecover(t *testing.T) {
	defer func() {
		if p, _ := recover().(string); !strings.Contains(p, "shared-nothing") {
			t.Fatalf("panic %q, want one naming shared-nothing", p)
		}
	}()
	cluster.New(cluster.Spec{Name: "shared-nothing", New: func(int) engine.Engine {
		return sharednothing.New(sim.DefaultConfig(), drill.Layout(), 2)
	}}, sim.NewClock(), 1)
}
