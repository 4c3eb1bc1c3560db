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
// shard reassignment; no data moves. The shared-nothing baseline wires in
// through the same API but must physically rebalance its partitions — the
// elasticity tax E4 measures, preserved here deliberately.
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
	// ErrUnsupported is returned for drills the architecture cannot run
	// (e.g. Crash on a fleet without engine.Recoverer).
	ErrUnsupported = errors.New("cluster: unsupported by this architecture")
	// ErrCrossShard is returned for a fleet write to another member's key.
	ErrCrossShard = errors.New("cluster: write outside the routed member's shard")
)

// Spec describes how to build one architecture's fleet members. The
// cluster package is engine-agnostic: the per-architecture wiring (root
// constructors, Peer attachment, shared-nothing rebalancing) lives in the
// caller's closures.
type Spec struct {
	// Name labels the fleet in logs and experiment tables.
	Name string
	// New builds member id. Id 0 is the root and owns the storage
	// substrate; higher ids must attach to the SAME substrate (the
	// architecture's Peer constructor). Called under the fleet's
	// membership lock.
	New func(id int) engine.Engine
	// Rescale, when non-nil, marks a partitioned (shared-nothing)
	// architecture: the fleet holds ONE engine (New(0)) and elasticity
	// re-partitions it, physically moving data. It returns the bytes
	// moved. Shared-storage fleets leave it nil.
	Rescale func(c *sim.Clock, n int) (movedBytes int64)
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

	caps  engine.Capability
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
// directory on retirement.
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
type Fleet struct {
	spec Spec

	mu      sync.RWMutex
	writers atomic.Int32    // membership changes waiting for mu
	members map[int]*Member // every member ever, incl. crashed/retired
	order   []int           // creation order, for deterministic iteration
	shard   *ShardMap
	nextID  int
	// meters is append-only (retired members' counters stop moving but
	// stay in the set) so autoscale.MeterSource deltas never go negative.
	meters []*sim.Meter
	// partitioned is the single engine of a Rescale fleet.
	partitioned *Member
	parts       int
}

// New builds a fleet with n initial members (n < 1 is treated as 1),
// warming members 1..n-1 on the caller's clock.
func New(spec Spec, c *sim.Clock, n int) *Fleet {
	if n < 1 {
		n = 1
	}
	f := &Fleet{spec: spec, members: make(map[int]*Member)}
	if spec.Rescale != nil {
		f.partitioned = f.newMemberLocked(c)
		f.parts = n
		if n > 1 {
			spec.Rescale(c, n)
		}
		return f
	}
	f.shard = NewShardMap(DefaultSlots)
	for i := 0; i < n; i++ {
		m := f.newMemberLocked(c)
		f.shard.Add(m.ID)
	}
	return f
}

// newMemberLocked spawns and warms the next member. Callers hold mu (or
// are the constructor).
func (f *Fleet) newMemberLocked(c *sim.Clock) *Member {
	id := f.nextID
	f.nextID++
	m := &Member{ID: id, E: f.spec.New(id), Meter: sim.NewMeter(1)}
	m.caps = engine.Caps(m.E)
	if id > 0 && m.caps.Recoverer != nil {
		// Attaching is recovery work: learn the substrate's durable
		// watermark, charged to the virtual clock.
		if d, err := m.caps.Recoverer.Recover(c); err == nil {
			m.WarmTime = d
		}
	}
	f.members[id] = m
	f.order = append(f.order, id)
	f.meters = append(f.meters, m.Meter)
	return m
}

// Size reports the active member count (partition count for partitioned
// fleets).
func (f *Fleet) Size() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.partitioned != nil {
		return f.parts
	}
	n := 0
	for _, id := range f.order {
		if f.members[id].Active() {
			n++
		}
	}
	return n
}

// Members returns every member ever created, in creation order (crashed
// and retired included — their Stats still count toward fleet totals).
func (f *Fleet) Members() []*Member {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]*Member, 0, len(f.order))
	for _, id := range f.order {
		out = append(out, f.members[id])
	}
	return out
}

// Meters returns the append-only meter set for autoscale.MeterSource.
func (f *Fleet) Meters() []*sim.Meter {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return append([]*sim.Meter(nil), f.meters...)
}

// RunOpts holds one fleet transaction's options: the engine.RunOpts the
// routed member runs it with.
type RunOpts struct {
	engine.RunOpts
}

// failoverRetries bounds Run's re-routing after a member failure mid-run.
// Each re-route consults the shard map again, so a transaction caught on a
// crashing member lands on the survivor that took over its slot.
const failoverRetries = 3

// Run executes fn as one transaction on the member that owns key. It is
// the fleet-mode replacement for engine.Run: same per-attempt accounting
// (delegated to the routed member's Stats), plus routing, telemetry, and
// failover re-routing. Members keep separate lock tables, so a write to a
// key another member owns fails with ErrCrossShard (cross-shard
// transactions are the shared-nothing engine's department; a partitioned
// fleet routes every key to its one engine).
//
// Run is one turn of its sim.RunGroup worker: it yields on entry, before
// taking the membership lock, and the yield at engine.Run's entry is held
// back while the lock is held.
func (f *Fleet) Run(c *sim.Clock, key uint64, opts RunOpts, fn func(tx engine.Tx) error) error {
	sim.Yield(c)
	var lastErr error
	lastMember := -1
	for attempt := 0; attempt <= failoverRetries; attempt++ {
		m, err := f.dispatch(c, key, opts.RunOpts, fn)
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
func (f *Fleet) dispatch(c *sim.Clock, key uint64, opts engine.RunOpts, fn func(tx engine.Tx) error) (*Member, error) {
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
	if f.partitioned == nil {
		t := shardTxs.Get().(*shardTx)
		defer func() { t.Tx, t.fn = nil, nil; shardTxs.Put(t) }()
		t.fn, t.shard, t.owner = fn, f.shard, m.ID
		fn = t.run
	}
	sim.Hold(c)
	err := engine.Run(m.E, c, opts, fn)
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
	if f.partitioned != nil {
		return f.partitioned
	}
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
	if n < 1 {
		n = 1
	}
	f.lock(c)
	defer f.mu.Unlock()
	if f.partitioned != nil {
		if n != f.parts {
			f.spec.Rescale(c, n)
			f.parts = n
		}
		return nil, nil
	}
	active := f.activeIDsLocked()
	for len(active) < n {
		m := f.newMemberLocked(c)
		f.shard.Add(m.ID)
		added = append(added, m.ID)
		active = append(active, m.ID)
	}
	// Retire newest-first, never the root.
	for i := len(active) - 1; len(active) > n && i > 0; i-- {
		id := active[i]
		if id == 0 {
			continue
		}
		f.retireLocked(c, id, stateRetired)
		retired = append(retired, id)
		active = append(active[:i], active[i+1:]...)
	}
	return added, retired
}

// Crash kills member id: volatile state is lost and its keyspace re-routes
// to survivors (who warm on the caller's clock). The crashed member's Stats
// stay in the fleet totals.
func (f *Fleet) Crash(c *sim.Clock, id int) error {
	f.rlock(c)
	if f.partitioned != nil {
		f.mu.RUnlock()
		return fmt.Errorf("%w: partitioned fleets do not crash members", ErrUnsupported)
	}
	m, ok := f.members[id]
	if !ok || !m.Active() {
		f.mu.RUnlock()
		return fmt.Errorf("%w: member %d not active", ErrNoMembers, id)
	}
	if m.caps.Recoverer == nil {
		f.mu.RUnlock()
		return fmt.Errorf("%w: %s has no Recoverer", ErrUnsupported, m.E.Name())
	}
	if len(f.activeIDsLocked()) == 1 {
		f.mu.RUnlock()
		return fmt.Errorf("%w: cannot crash the last member", ErrNoMembers)
	}
	f.mu.RUnlock()
	// Kill the node BEFORE taking the membership write lock: in-flight
	// transactions on it fail fast with ErrUnavailable (engine-side shed)
	// and their fleet.Run re-route waits for the read lock until the
	// takeover below has flipped the shard map to the survivors.
	m.state.Store(int32(stateCrashed))
	m.caps.Recoverer.Crash()
	f.lock(c)
	defer f.mu.Unlock()
	f.retireLocked(c, id, stateCrashed)
	return nil
}

// retireLocked removes a member from routing (crashed or drained): the
// shard map reassigns its slots, each gaining survivor warms to the
// substrate high-water mark (so takeover reads cover every commit the
// leaver acknowledged), and the leaver's cache tier detaches from the
// coherence directory. Callers hold mu.W.
func (f *Fleet) retireLocked(c *sim.Clock, id int, to memberState) {
	m := f.members[id]
	m.state.Store(int32(to))
	if to == stateCrashed && m.caps.Recoverer != nil {
		m.caps.Recoverer.Crash()
	}
	gainers := make(map[int]bool)
	f.shard.Remove(id, gainers)
	for gid := range gainers {
		g := f.members[gid]
		if g.caps.Recoverer == nil || !g.Active() {
			continue
		}
		if d, err := g.caps.Recoverer.Recover(c); err == nil {
			g.WarmTime += d
		}
	}
	if to == stateRetired {
		if d, ok := m.E.(detacher); ok {
			d.Detach()
		}
	}
}

// activeIDsLocked lists active member ids in creation order.
func (f *Fleet) activeIDsLocked() []int {
	var out []int
	for _, id := range f.order {
		if f.members[id].Active() {
			out = append(out, id)
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
	// A partitioned fleet is one engine shared by every routing path;
	// Members() has exactly one entry, so no double counting.
	return t
}
