// Package fault implements seeded, deterministic fault injection for the
// simulated disaggregated fabric. An Injector is attached to a sim.Config
// (cfg.Fault) and is consulted by every wrapped substrate operation —
// RDMA verbs (internal/rdma), device I/O (internal/device), storage-node
// RPCs (internal/storagenode) and raft appends (internal/raft) — where it
// can inject message drops, duplicate deliveries, latency spikes,
// transient EIO-style errors, network partitions, and torn (crash-point)
// WAL appends.
//
// Decisions are a pure function of (seed, site, per-site op index), so a
// failing run is replayable from its seed: the n-th operation at a given
// site always receives the same verdict. Under sim.RunGroup which worker
// issues the n-th op is fixed too, so a group run replays as a whole.
package fault

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/disagglab/disagg/internal/sim"
)

// Window is a half-open virtual-time interval [Start, End) during which a
// partition profile drops every matched operation.
type Window struct {
	Start, End time.Duration
}

// Profile declares the fault mix injected at matched sites. Probabilities
// are per-operation and disjoint (evaluated in Drop, Duplicate, Torn,
// Delay order against one uniform draw).
type Profile struct {
	Name string
	// Drop is the probability an operation fails with a transient
	// injected error before taking effect.
	Drop float64
	// Duplicate is the probability a delivery is repeated.
	Duplicate float64
	// Torn is the probability a durable append persists only a prefix
	// of its batch before failing (crash-point mid-WAL-append). Sites
	// that cannot tear treat it as Drop.
	Torn float64
	// Delay is the probability of a latency spike of up to MaxDelay.
	Delay    float64
	MaxDelay time.Duration
	// Partitions lists virtual-time windows during which every matched
	// operation is dropped (a network partition of the matched
	// component).
	Partitions []Window
	// Sites restricts injection to sites with one of these prefixes
	// (empty: all sites).
	Sites []string
}

// Matches reports whether the profile injects at the given site.
func (p *Profile) Matches(site string) bool {
	if len(p.Sites) == 0 {
		return true
	}
	for _, s := range p.Sites {
		if strings.HasPrefix(site, s) {
			return true
		}
	}
	return false
}

// FabricSites matches the message-bearing fabric paths (everything except
// pure device timing charges), the default scope for drop/dup profiles.
var FabricSites = []string{"rdma.", "logstore.", "replica.", "volume.", "raft.", "obj."}

// AppendSites matches the durable-append crash-point sites.
var AppendSites = []string{"logstore.append", "volume.ingest", "raft.append", "obj.put"}

// Injector is a deterministic sim.FaultInjector. It is safe for
// concurrent use; Heal/Enable flip injection off/on (verification phases
// heal the fabric before reading final state).
type Injector struct {
	seed    int64
	profile Profile
	enabled atomic.Bool

	mu       sync.Mutex
	counters map[string]*atomic.Uint64

	// Injected counts faults injected by kind (stats/tests).
	Drops, Dups, Tears, Delays atomic.Int64
}

// New builds an injector for the profile under the given seed.
func New(seed int64, p Profile) *Injector {
	inj := &Injector{seed: seed, profile: p, counters: make(map[string]*atomic.Uint64)}
	inj.enabled.Store(true)
	return inj
}

// Seed reports the injector's seed (logged by failing tests).
func (i *Injector) Seed() int64 { return i.seed }

// Profile reports the active profile.
func (i *Injector) Profile() Profile { return i.profile }

// Heal disables injection: the fabric behaves perfectly afterwards.
func (i *Injector) Heal() { i.enabled.Store(false) }

// Enable re-arms injection after a Heal.
func (i *Injector) Enable() { i.enabled.Store(true) }

// Total reports how many faults of all kinds have been injected.
func (i *Injector) Total() int64 {
	return i.Drops.Load() + i.Dups.Load() + i.Tears.Load() + i.Delays.Load()
}

func (i *Injector) counter(site string) *atomic.Uint64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	c, ok := i.counters[site]
	if !ok {
		c = &atomic.Uint64{}
		i.counters[site] = c
	}
	return c
}

// mix64 is a splitmix64-style finalizer: a high-quality deterministic
// hash of the (seed, site, index) triple.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func siteHash(site string) uint64 {
	// FNV-1a.
	h := uint64(14695981039346656037)
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 1099511628211
	}
	return h
}

// Error is one injected fault: its kind ("drop", "partition" or "torn
// append"), the site, the site's op index it hit and the injector's seed.
// Its text is formatted only when printed; it unwraps to sim.ErrInjected.
type Error struct {
	Kind string
	Site string
	Op   uint64
	Seed int64
}

func (e *Error) Error() string {
	return fmt.Sprintf("%v: %s at %s (op %d, seed %d)", sim.ErrInjected, e.Kind, e.Site, e.Op, e.Seed)
}

func (e *Error) Unwrap() error { return sim.ErrInjected }

// Inject implements sim.FaultInjector.
func (i *Injector) Inject(c *sim.Clock, site string) sim.FaultOutcome {
	if !i.enabled.Load() || !i.profile.Matches(site) {
		return sim.FaultOutcome{}
	}
	n := i.counter(site).Add(1)
	for _, w := range i.profile.Partitions {
		if c != nil && c.Now() >= w.Start && c.Now() < w.End {
			i.Drops.Add(1)
			return sim.FaultOutcome{Drop: true, Err: &Error{"partition", site, n, i.seed}}
		}
	}
	h := mix64(uint64(i.seed) ^ mix64(siteHash(site)^n*0x9E3779B97F4A7C15))
	u := float64(h>>11) / float64(1<<53) // uniform in [0,1)
	p := &i.profile
	switch {
	case u < p.Drop:
		i.Drops.Add(1)
		return sim.FaultOutcome{Drop: true, Err: &Error{"drop", site, n, i.seed}}
	case u < p.Drop+p.Duplicate:
		i.Dups.Add(1)
		return sim.FaultOutcome{Duplicate: true}
	case u < p.Drop+p.Duplicate+p.Torn:
		i.Tears.Add(1)
		return sim.FaultOutcome{Torn: true, Err: &Error{"torn append", site, n, i.seed}}
	case u < p.Drop+p.Duplicate+p.Torn+p.Delay:
		i.Delays.Add(1)
		if c != nil && p.MaxDelay > 0 {
			// Deterministic spike in [MaxDelay/4, MaxDelay).
			frac := float64(mix64(h)>>11) / float64(1<<53)
			c.Advance(p.MaxDelay/4 + time.Duration(frac*float64(p.MaxDelay-p.MaxDelay/4)))
		}
		return sim.FaultOutcome{}
	}
	return sim.FaultOutcome{}
}

// Profiles returns the standard chaos profiles the conformance suite runs
// every engine under. Rates are tuned so seeded workloads both observe
// real faults and still make progress within bounded retries.
func Profiles() []Profile {
	return []Profile{
		{Name: "drops", Drop: 0.05, Sites: FabricSites},
		{Name: "duplicates", Duplicate: 0.25, Sites: FabricSites},
		{Name: "delays", Delay: 0.5, MaxDelay: 2 * time.Millisecond},
		{Name: "transient-io", Drop: 0.08, Sites: []string{"logstore.", "replica.read", "obj.", "rdma.read", "rdma.call"}},
		{Name: "torn-append", Torn: 0.2, Sites: AppendSites},
		{Name: "partition", Partitions: []Window{{Start: 2 * time.Millisecond, End: 6 * time.Millisecond}}, Sites: FabricSites},
	}
}
