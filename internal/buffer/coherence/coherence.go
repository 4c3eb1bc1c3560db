// Package coherence implements the versioned-page cache-coherence layer
// shared by every cache tier (local buffer pools, remote memory pools,
// two-tier hierarchies, engine reader caches). Each engine owns one
// Directory: a per-page version map (the page's highest durable
// update-record stamp — the LSN/commitSeq the engine already produces at
// its durability point via StagedTx.StampCommit) plus a registry of which
// tiers currently hold which pages.
//
// At commit, the writer publishes the written pages' new stamps. In
// ModeInvalidate the directory fans an invalidation to every holder tier
// (Aurora-style: notices ride the log stream); in ModeBump it only bumps
// the version and holders detect staleness lazily on their next access
// (PolarDB-Serverless-style: one validation read instead of an
// invalidation broadcast). Either way a cached copy whose stamp trails the
// directory version is never served: tiers call Handle.Validate on every
// hit, so the two modes trade invalidation traffic against stale-hit
// refetches without ever trading correctness.
//
// Publications can piggyback on group commit: EnableBatching routes them
// through a sim.Batcher with the same size/window policy as the engine's
// group-commit batcher, so one durable flush = one coherence round for the
// whole group.
//
// Locking: the directory lock is ordered AFTER tier locks (a tier
// validates or notes holdings while holding its own lock) and fan-out
// happens with no directory lock held, so tiers are free to take their
// own locks in Invalidate. Callers must not hold a tier lock when calling
// Publish.
package coherence

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/sim"
)

// Mode selects how a publication reaches holder tiers.
type Mode int

const (
	// ModeInvalidate eagerly drops every holder tier's copy at the
	// durability point (invalidation notices ride the commit fan-out).
	ModeInvalidate Mode = iota
	// ModeBump only advances the directory version; holders detect the
	// stale copy on their next access via stamp validation.
	ModeBump
)

func (m Mode) String() string {
	if m == ModeBump {
		return "bump"
	}
	return "invalidate"
}

// Tier is a cache tier that can drop a page on a coherence invalidation.
// buffer.Pool and buffer.RemotePool implement it.
type Tier interface {
	Invalidate(id page.ID)
}

// PageStamp pairs a page with the commit stamp its newly durable bytes
// carry (the page's highest update-record LSN for log-structured engines).
type PageStamp struct {
	ID    page.ID
	Stamp uint64
}

// pub is one commit's publication: the written pages' new stamps plus the
// writer's own tier (excluded from fan-out — the writer applies its update
// in place and re-stamps its frame).
type pub struct {
	stamps  []PageStamp
	exclude *tierEntry
}

// tierEntry tracks one registered tier and the set of pages it holds.
type tierEntry struct {
	name string
	tier Tier

	mu    sync.Mutex
	holds map[page.ID]struct{}
}

func (e *tierEntry) note(id page.ID) {
	e.mu.Lock()
	e.holds[id] = struct{}{}
	e.mu.Unlock()
}

func (e *tierEntry) forget(id page.ID) {
	e.mu.Lock()
	delete(e.holds, id)
	e.mu.Unlock()
}

func (e *tierEntry) holding(id page.ID) bool {
	e.mu.Lock()
	_, ok := e.holds[id]
	e.mu.Unlock()
	return ok
}

// Directory is one engine's coherence directory.
type Directory struct {
	cfg  *sim.Config
	site string

	// OnInvalidate, when non-nil, is called once per fan-out round with
	// the number of invalidations delivered; engines feed
	// engine.Stats.Invalidations. Set before first use.
	OnInvalidate func(n int)
	// OnStale, when non-nil, is called once per cached copy rejected by
	// validation; engines feed engine.Stats.StaleHits. Set before first
	// use.
	OnStale func()

	mu       sync.Mutex
	mode     Mode
	tiers    []*tierEntry
	versions map[page.ID]version

	bat *sim.Batcher[pub, struct{}]

	publishes     atomic.Int64
	rounds        atomic.Int64
	invalidations atomic.Int64
	bumps         atomic.Int64
	staleHits     atomic.Int64
}

// NewDirectory creates a directory and registers its counters with the
// config's stats registry under site.
func NewDirectory(cfg *sim.Config, site string, mode Mode) *Directory {
	d := &Directory{
		cfg:      cfg,
		site:     site,
		mode:     mode,
		versions: make(map[page.ID]version),
	}
	cfg.Register(site, d.Stats)
	return d
}

// Site reports the registry site name.
func (d *Directory) Site() string { return d.site }

// Mode reports the current propagation mode.
func (d *Directory) Mode() Mode {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mode
}

// SetMode switches the propagation mode (experiments ablate the two).
func (d *Directory) SetMode(m Mode) {
	d.mu.Lock()
	d.mode = m
	d.mu.Unlock()
}

// Stats snapshots the directory counters.
func (d *Directory) Stats() sim.CoherenceStats {
	return sim.CoherenceStats{
		Publishes:     d.publishes.Load(),
		Rounds:        d.rounds.Load(),
		Invalidations: d.invalidations.Load(),
		Bumps:         d.bumps.Load(),
		StaleHits:     d.staleHits.Load(),
	}
}

// Register subscribes a tier under name and returns its handle. Tiers may
// register at any time (e.g. a scaled-out compute node's cache).
func (d *Directory) Register(name string, t Tier) *Handle {
	e := &tierEntry{name: name, tier: t, holds: make(map[page.ID]struct{})}
	d.mu.Lock()
	d.tiers = append(d.tiers, e)
	d.mu.Unlock()
	return &Handle{d: d, e: e}
}

// Deregister removes a tier's subscription (a retired compute node's
// cache leaving the fleet): it stops receiving invalidation fan-out and
// its holdings no longer draw notices. A nil or already-removed handle is
// a no-op.
func (d *Directory) Deregister(h *Handle) {
	if h == nil {
		return
	}
	d.mu.Lock()
	for i, e := range d.tiers {
		if e == h.e {
			d.tiers = append(d.tiers[:i], d.tiers[i+1:]...)
			break
		}
	}
	d.mu.Unlock()
}

// EnableBatching routes publications through a leader-combining batcher
// with the given size/window policy so concurrent committers share one
// coherence round — engines call this alongside EnableGroupCommit so one
// group-commit flush is one coherence round.
func (d *Directory) EnableBatching(maxItems int, window time.Duration) {
	b := sim.NewBatcher(d.cfg, d.site,
		sim.BatchPolicy{MaxItems: maxItems, Window: window},
		func(c *sim.Clock, pubs []pub, out []struct{}) error {
			d.round(c, pubs)
			return nil
		})
	d.mu.Lock()
	d.bat = b
	d.mu.Unlock()
}

// version is one page's directory entry: the highest stamp published for
// it and the number of stamps published for it.
type version struct{ stamp, pubs uint64 }

// Version reports the page's current directory version, its highest
// published stamp (0 if never published). Safe to call while holding a
// tier lock.
func (d *Directory) Version(id page.ID) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.versions[id].stamp
}

// Publications reports how many stamps have been published for the page.
// Unlike Version it moves on every publication, one below the page's
// highest stamp included.
func (d *Directory) Publications(id page.ID) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.versions[id].pubs
}

// Publish makes the written pages' new stamps visible at the durability
// point: versions are bumped and, in ModeInvalidate, every holder tier
// except the writer's own is told to drop its copy. Must not be called
// with a tier lock held.
func (d *Directory) Publish(c *sim.Clock, stamps []PageStamp, exclude *Handle) {
	if len(stamps) == 0 {
		return
	}
	d.publishes.Add(1)
	p := pub{stamps: stamps}
	if exclude != nil {
		p.exclude = exclude.e
	}
	d.mu.Lock()
	bat := d.bat
	d.mu.Unlock()
	if bat != nil {
		// Ride a shared coherence round (piggybacked on the group-commit
		// cadence); the flush error path is unreachable — rounds are
		// metadata, not a faultable substrate op.
		bat.Submit(c, p) //nolint:errcheck
		return
	}
	d.round(c, []pub{p})
}

// round applies a sealed group of publications: one version-map update and
// one invalidation fan-out for the whole group.
func (d *Directory) round(c *sim.Clock, pubs []pub) {
	d.rounds.Add(1)
	type target struct {
		e  *tierEntry
		id page.ID
	}
	var targets []target
	var bumped, bytes int
	d.mu.Lock()
	mode := d.mode
	for _, p := range pubs {
		for _, ps := range p.stamps {
			v := d.versions[ps.ID]
			v.pubs++
			if ps.Stamp > v.stamp {
				v.stamp = ps.Stamp
				bumped++
			}
			d.versions[ps.ID] = v
		}
	}
	if mode == ModeInvalidate {
		for _, p := range pubs {
			for _, ps := range p.stamps {
				for _, e := range d.tiers {
					if e == p.exclude {
						continue
					}
					if e.holding(ps.ID) {
						targets = append(targets, target{e: e, id: ps.ID})
					}
				}
			}
		}
	}
	d.mu.Unlock()
	d.bumps.Add(int64(bumped))
	if len(targets) > 0 {
		// Deliver the invalidations (the tier's Invalidate takes the
		// tier's own lock; no directory lock is held here). The round is
		// charged as one control-plane message burst: it is part of the
		// commit protocol, so it is observed for latency accounting but
		// never fault-injected — a dropped invalidation would be a
		// permanent stale read, which no real protocol tolerates
		// unacknowledged.
		op := d.cfg.Begin(c, d.site+".round")
		for _, t := range targets {
			t.e.tier.Invalidate(t.id)
			bytes += 16 // page id + stamp per notice
		}
		c.Advance(d.cfg.RDMARPC.Cost(bytes))
		op.End(int64(bytes))
		d.invalidations.Add(int64(len(targets)))
		if d.OnInvalidate != nil {
			d.OnInvalidate(len(targets))
		}
	}
}

// Handle is a tier's subscription to a directory.
type Handle struct {
	d *Directory
	e *tierEntry
}

// Note records that the tier now holds the page. Safe under the tier lock.
func (h *Handle) Note(id page.ID) {
	if h == nil {
		return
	}
	h.e.note(id)
}

// Forget records that the tier dropped the page. Safe under the tier lock.
func (h *Handle) Forget(id page.ID) {
	if h == nil {
		return
	}
	h.e.forget(id)
}

// Version reports the page's directory version. Safe under the tier lock.
func (h *Handle) Version(id page.ID) uint64 {
	if h == nil {
		return 0
	}
	return h.d.Version(id)
}

// Validate reports whether a cached copy carrying stamp may be served: it
// must be at least as new as the directory version. A rejection is
// counted as a stale hit. Safe under the tier lock.
func (h *Handle) Validate(id page.ID, stamp uint64) bool {
	if h == nil {
		return true
	}
	if stamp >= h.d.Version(id) {
		return true
	}
	h.d.staleHits.Add(1)
	if h.d.OnStale != nil {
		h.d.OnStale()
	}
	return false
}
