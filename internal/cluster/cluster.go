// Package cluster implements the elastic compute fleet of §4: N live
// engine instances of one architecture running over one shared storage
// substrate, with transaction routing, live scale-out/in, and failover.
//
// The fleet is the single entry point in fleet mode — workloads call
// Fleet.Run instead of engine.Run, and the Router maps each transaction to
// the key's shard owner (a rendezvous-hash shard map, so per-member lock
// tables stay sufficient — one writer per key).
//
// Elasticity is the payoff disaggregation buys (arXiv:2411.01269): a
// scaled-out member is stateless — it attaches to the shared log/volume,
// registers its cache with the architecture's coherence directory, learns
// the durable watermark (charged to the virtual clock as recovery work),
// and starts taking traffic. Scale-in drains a member back out with only
// shard reassignment; no data moves. A shared-nothing engine has no shared
// substrate to attach to: it rescales by physically moving its partitions
// (sharednothing.Engine.Rebalance, the elasticity tax E4 and E28 measure),
// not through a fleet.
//
// Failover reuses the same machinery: Crash on a member routes its
// keyspace to survivors (who warm via engine.Recoverer), in-flight
// transactions on the dead node fail fast through the admission stack and
// re-route, and the fleet-wide accounting invariant
// Attempts == Commits + Aborts + Shed holds because every attempt still
// lands in exactly one member's Stats.
package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/sim"
)

// Cluster errors.
var (
	// ErrNoMembers is returned when routing finds no active member.
	ErrNoMembers = errors.New("cluster: no active members")
	// ErrCrossShard is returned for a fleet write to another member's key.
	ErrCrossShard = errors.New("cluster: write outside the routed member's shard")
)

// Spec describes how to build one architecture's fleet members. The
// cluster package is engine-agnostic: the per-architecture wiring (root
// constructor, Peer attachment) lives in the caller's closure.
type Spec struct {
	// Name labels the fleet in logs and experiment tables.
	Name string
	// New builds member id. Id 0 is the root and owns the storage
	// substrate; higher ids must attach to the SAME substrate (the
	// architecture's Peer constructor). Every member must be an
	// engine.Recoverer: attaching is learning the durable mark. Called
	// under the fleet's membership lock.
	New func(id int) engine.Engine
	// ComputeCost, when positive, models each member as a finite compute
	// node: every dispatched transaction first charges this much service
	// demand through the member's Meter under processor-sharing semantics,
	// so an oversubscribed member stretches its transactions' virtual
	// latency (the saturation a scale-out relieves). When zero the meter
	// only observes — telemetry without a compute bottleneck — which keeps
	// conformance timing identical to direct engine.Run.
	ComputeCost time.Duration
}

// memberState tracks a member's lifecycle.
type memberState int32

const (
	stateActive memberState = iota
	stateCrashed
	stateRetired
)

// Member is one compute node of the fleet.
type Member struct {
	ID int
	E  engine.Engine

	rec   engine.Recoverer // E, asserted once when the member attaches
	state atomic.Int32
	// Meter accumulates the member's virtual busy time (capacity 1: one
	// compute node) via non-charging Observe calls — the ρ/queue telemetry
	// the Controller feeds into autoscale decisions.
	Meter *sim.Meter
	// WarmTime is the recovery time charged when the member attached or
	// took over shards (0 for the root).
	WarmTime time.Duration
}

// Active reports whether the member is routable.
func (m *Member) Active() bool { return memberState(m.state.Load()) == stateActive }

// detacher is the optional engine hook for leaving the shared coherence
// directory when the member leaves the fleet.
type detacher interface{ Detach() }

// Fleet runs N members of one architecture over a shared substrate.
//
// Locking: mu is held in R mode for the full dispatch of every
// transaction and in W mode for membership changes (scale-out/in,
// failover). Membership changes therefore quiesce in-flight dispatches,
// which is what makes "flip the shard map, then warm the gainers" atomic
// with respect to traffic: no transaction can be executing on the old
// owner while the new owner starts taking writes for a moved slot.
//
// Dispatches and membership changes run inside sim.RunGroup workers, and a
// dispatch may wait for its turn (a lock, a group commit) while holding R.
// A worker that blocked its goroutine on mu would then stall the whole
// group, so no fleet path blocks on mu: each try-locks and sim.Waits
// (rlock, lock). A pending membership change holds new dispatches back, so
// it lands as soon as the in-flight ones finish.
//
// A member is crashed once, by Crash, before the write lock: its in-flight
// transactions shed and re-route. Every leaver, crashed or drained, then
// detaches from the coherence directory under the write lock, so a page an
// in-flight transaction loads into a dead member's cache after the crash
// draws no invalidation fan-out.
type Fleet struct {
	spec Spec

	mu      sync.RWMutex
	writers atomic.Int32 // membership changes waiting for mu
	// members is every member ever, crashed and retired included, at the
	// index of its id. It only grows, so a retired member's meter stays in
	// Meters and autoscale.MeterSource deltas never go negative.
	members []*Member
	shard   *ShardMap
}

// New builds a fleet with n initial members (n < 1 is treated as 1),
// warming members 1..n-1 on the caller's clock.
func New(spec Spec, c *sim.Clock, n int) *Fleet {
	f := &Fleet{spec: spec, shard: NewShardMap(DefaultSlots)}
	for range max(n, 1) {
		f.newMemberLocked(c)
	}
	return f
}

// newMemberLocked spawns the next member, warms it and gives it its shard
// slots. Callers hold mu (or are the constructor).
func (f *Fleet) newMemberLocked(c *sim.Clock) *Member {
	id := len(f.members)
	e := f.spec.New(id)
	r, ok := e.(engine.Recoverer)
	if !ok {
		panic(fmt.Sprintf("cluster: %s cannot join fleet %q: it is no engine.Recoverer, so it cannot learn the durable mark", e.Name(), f.spec.Name))
	}
	m := &Member{ID: id, E: e, rec: r, Meter: sim.NewMeter(1)}
	if id > 0 {
		// Attaching is recovery work: learn the substrate's durable
		// watermark, charged to the virtual clock.
		if d, err := r.Recover(c); err == nil {
			m.WarmTime = d
		}
	}
	f.members = append(f.members, m)
	f.shard.Add(id)
	return m
}

// Size reports the active member count.
func (f *Fleet) Size() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.activeLocked())
}

// Members returns every member ever created, in id order (crashed and
// retired included — their Stats still count toward fleet totals).
func (f *Fleet) Members() []*Member {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return slices.Clone(f.members)
}

// Owner reports the member a transaction on key routes to now, or -1 when
// the fleet has no member. A membership change may move the key later.
func (f *Fleet) Owner(key uint64) int { return f.shard.Owner(key) }

// Meters returns every member's meter, in id order, for
// autoscale.MeterSource.
func (f *Fleet) Meters() []*sim.Meter {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]*sim.Meter, len(f.members))
	for i, m := range f.members {
		out[i] = m.Meter
	}
	return out
}

// RunOpts are one fleet transaction's options: the engine.RunOpts the
// routed member runs it with.
type RunOpts = engine.RunOpts

// failoverRetries bounds Run's re-routing after a member failure mid-run.
// Each re-route consults the shard map again, so a transaction caught on a
// crashing member lands on the survivor that took over its slot.
const failoverRetries = 3

// Run executes fn as one transaction on the member that owns key. It is
// the fleet-mode replacement for engine.Run: same per-attempt accounting
// (delegated to the routed member's Stats), plus routing, telemetry, and
// failover re-routing. Members keep separate lock tables, so a write to a
// key another member owns fails with ErrCrossShard (cross-shard
// transactions are the shared-nothing engine's department).
//
// Run is one turn of its sim.RunGroup worker: it yields on entry, before
// taking the membership lock, and the yield at engine.Run's entry is held
// back while the lock is held.
func (f *Fleet) Run(c *sim.Clock, key uint64, opts RunOpts, fn func(tx engine.Tx) error) error {
	sim.Yield(c)
	var lastErr error
	lastMember := -1
	for attempt := 0; attempt <= failoverRetries; attempt++ {
		m, err := f.dispatch(c, key, opts, fn)
		if err == nil {
			return nil
		}
		lastErr = err
		if m == nil {
			return err
		}
		// Re-routing only helps when the member was lost (not an
		// admission shed, not a conflict) and the map has someone else to
		// offer; a repeat route to the same member means the failure is
		// substrate-wide, so surface it.
		if !errors.Is(err, engine.ErrUnavailable) || errors.Is(err, sim.ErrAdmission) {
			return err
		}
		if m.ID == lastMember && m.Active() {
			return err
		}
		lastMember = m.ID
	}
	return lastErr
}

// dispatch routes and executes one fleet attempt under the membership
// read lock, recording telemetry on the routed member.
func (f *Fleet) dispatch(c *sim.Clock, key uint64, opts RunOpts, fn func(tx engine.Tx) error) (*Member, error) {
	f.rlock(c)
	m := f.routeLocked(key)
	if m == nil {
		f.mu.RUnlock()
		return nil, ErrNoMembers
	}
	start := c.Now()
	if cc := f.spec.ComputeCost; cc > 0 {
		// The member's compute share: oversubscription stretches this
		// charge, and it is what the meter's busy time then reports to the
		// autoscale loop. The substrate legs inside engine.Run charge their
		// own meters, so they are not re-billed here.
		m.Meter.Charge(c, cc)
	}
	t := shardTxs.Get().(*shardTx)
	defer func() { t.Tx, t.fn = nil, nil; shardTxs.Put(t) }()
	t.fn, t.shard, t.owner = fn, f.shard, m.ID
	sim.Hold(c)
	err := engine.Run(m.E, c, opts, t.run)
	sim.Unhold(c)
	if f.spec.ComputeCost <= 0 {
		m.Meter.Observe(c, c.Now()-start)
	}
	f.mu.RUnlock()
	return m, err
}

// shardTx refuses a write to a key another member owns. The dispatch holds
// mu.R throughout, so the shard map does not move under it.
type shardTx struct {
	engine.Tx
	fn    func(tx engine.Tx) error
	run   func(tx engine.Tx) error // fn on t, bound once
	shard *ShardMap
	owner int
}

// shardTxs recycles the guards, so a fleet transaction allocates none.
var shardTxs = sync.Pool{New: func() any {
	t := new(shardTx)
	t.run = func(tx engine.Tx) error { t.Tx = tx; return t.fn(t) }
	return t
}}

func (t *shardTx) Write(key uint64, val []byte) error {
	if owner := t.shard.Owner(key); owner != t.owner {
		return fmt.Errorf("%w: key %d is member %d's, not %d's", ErrCrossShard, key, owner, t.owner)
	}
	return t.Tx.Write(key, val)
}

// tryRLock takes mu in R mode unless a membership change is pending.
func (f *Fleet) tryRLock() bool { return f.writers.Load() == 0 && f.mu.TryRLock() }

// rlock takes mu in R mode, waiting out any pending membership change.
func (f *Fleet) rlock(c *sim.Clock) {
	for !f.tryRLock() && !sim.Wait(c, f.tryRLock) {
	}
}

// lock takes mu in W mode once the in-flight dispatches have finished.
func (f *Fleet) lock(c *sim.Clock) {
	f.writers.Add(1)
	for !f.mu.TryLock() && !sim.Wait(c, f.mu.TryLock) {
	}
	f.writers.Add(-1)
}

// routeLocked picks the key's shard owner. Callers hold mu.R.
func (f *Fleet) routeLocked(key uint64) *Member {
	owner := f.shard.Owner(key)
	if owner < 0 {
		return nil
	}
	return f.members[owner]
}

// ScaleTo grows or shrinks the fleet to n active members, charging
// attach/warm work to the caller's clock. Scale-in never retires the
// root (member 0, which owns the substrate), so n is clamped to >= 1.
// It returns the member ids added or retired.
func (f *Fleet) ScaleTo(c *sim.Clock, n int) (added, retired []int) {
	n = max(n, 1)
	f.lock(c)
	defer f.mu.Unlock()
	active := f.activeLocked()
	for len(active) < n {
		m := f.newMemberLocked(c)
		added = append(added, m.ID)
		active = append(active, m)
	}
	// Retire newest-first, never the root.
	for i := len(active) - 1; len(active) > n && i > 0; i-- {
		f.retireLocked(c, active[i], stateRetired)
		retired = append(retired, active[i].ID)
		active = slices.Delete(active, i, i+1)
	}
	return added, retired
}

// Crash kills member id: volatile state is lost and its keyspace re-routes
// to survivors (who warm on the caller's clock). The crashed member's Stats
// stay in the fleet totals.
func (f *Fleet) Crash(c *sim.Clock, id int) error {
	f.rlock(c)
	active := f.activeLocked()
	f.mu.RUnlock()
	i := slices.IndexFunc(active, func(m *Member) bool { return m.ID == id })
	switch {
	case i < 0:
		return fmt.Errorf("%w: member %d not active", ErrNoMembers, id)
	case len(active) == 1:
		return fmt.Errorf("%w: cannot crash the last member", ErrNoMembers)
	}
	m := active[i]
	// Kill the node BEFORE taking the membership write lock: in-flight
	// transactions on it fail fast with ErrUnavailable (engine-side shed)
	// and their fleet.Run re-route waits for the read lock until the
	// takeover below has flipped the shard map to the survivors. This is
	// the member's one crash.
	m.state.Store(int32(stateCrashed))
	m.rec.Crash()
	f.lock(c)
	defer f.mu.Unlock()
	f.retireLocked(c, m, stateCrashed)
	return nil
}

// retireLocked removes a member from routing (crashed or drained): the
// shard map reassigns its slots, each gaining survivor warms to the
// substrate high-water mark (so takeover reads cover every commit the
// leaver acknowledged), and the leaver's cache tier detaches from the
// coherence directory. Callers hold mu.W.
func (f *Fleet) retireLocked(c *sim.Clock, m *Member, to memberState) {
	m.state.Store(int32(to))
	gainers := make(map[int]bool)
	f.shard.Remove(m.ID, gainers)
	for _, g := range f.members {
		if !gainers[g.ID] || !g.Active() {
			continue
		}
		if d, err := g.rec.Recover(c); err == nil {
			g.WarmTime += d
		}
	}
	if d, ok := m.E.(detacher); ok {
		d.Detach()
	}
}

// activeLocked lists the active members in id order. Callers hold mu.
func (f *Fleet) activeLocked() []*Member {
	var out []*Member
	for _, m := range f.members {
		if m.Active() {
			out = append(out, m)
		}
	}
	return out
}

// Totals is the fleet-wide Stats aggregate (plain values, summed over
// every member ever, so retired and crashed members' traffic stays
// accounted).
type Totals struct {
	Attempts, Commits, Aborts, Shed int64
	Retries, Indeterminates         int64
}

// Conserved reports whether the fleet-wide accounting invariant holds:
// every attempt landed in exactly one of Commits, Aborts, or Shed.
func (t Totals) Conserved() bool { return t.Attempts == t.Commits+t.Aborts+t.Shed }

// Totals sums member Stats fleet-wide.
func (f *Fleet) Totals() Totals {
	var t Totals
	for _, m := range f.Members() {
		s := m.E.Stats()
		t.Attempts += s.Attempts.Load()
		t.Commits += s.Commits.Load()
		t.Aborts += s.Aborts.Load()
		t.Shed += s.Shed.Load()
		t.Retries += s.Retries.Load()
		t.Indeterminates += s.Indeterminates.Load()
	}
	return t
}
