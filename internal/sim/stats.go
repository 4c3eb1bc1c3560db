package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/disagglab/disagg/internal/metrics"
)

// SiteStats aggregates all observed operations at one site: a log-bucketed
// latency histogram plus a byte counter. Safe for concurrent use.
type SiteStats struct {
	Hist  *metrics.Hist
	bytes atomic.Int64
}

// Bytes reports the total payload observed at the site.
func (s *SiteStats) Bytes() int64 { return s.bytes.Load() }

// Registry is the process-wide telemetry sink: per-site latency histograms
// and byte counters fed by Config.Begin/Op.End, plus the counter sources
// substrate constructors Register. One registry is shared by every worker in
// an experiment; it is safe for concurrent use.
type Registry struct {
	mu    sync.RWMutex
	sites map[string]*SiteStats

	smu     sync.Mutex
	sources []source

	maxEnd atomic.Int64 // latest virtual end time observed (elapsed proxy)
}

// source is one registered counter source under a site-style name: a
// contention *Meter, or the snapshot func of a batcher (func() BatcherStats),
// a page-coherence directory (func() CoherenceStats) or an admission gate
// (func() GateStats).
type source struct {
	site string
	src  any
}

// GateStats is the counter snapshot an admission gate exposes per site.
type GateStats struct {
	Admitted int64 // operations the gate let through
	Shed     int64 // operations rejected before any time was charged
}

// ShedFraction reports the share of arrivals the gate rejected.
func (g GateStats) ShedFraction() float64 {
	total := g.Admitted + g.Shed
	if total == 0 {
		return 0
	}
	return float64(g.Shed) / float64(total)
}

// CoherenceStats is the counter snapshot a page-coherence directory
// exposes per site (the type lives here so the coherence layer can
// register with the registry without an import cycle).
type CoherenceStats struct {
	Publishes     int64 // commit-point publications (one per committed write set)
	Rounds        int64 // fan-out rounds (grouped publications; == Publishes unless batched)
	Invalidations int64 // invalidation messages delivered to holder tiers
	Bumps         int64 // directory version bumps
	StaleHits     int64 // cached copies rejected by commit-stamp validation
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{sites: make(map[string]*SiteStats)}
}

// Observe records one finished operation: d of virtual latency and bytes
// of payload at site, ending at virtual time end on the worker's clock.
func (r *Registry) Observe(site string, d time.Duration, bytes int64, end time.Duration) {
	if r == nil {
		return
	}
	s := r.siteStats(site)
	s.Hist.Record(d)
	s.bytes.Add(bytes)
	r.raiseEnd(int64(end))
}

// siteStats returns site's stats, creating them on first use.
func (r *Registry) siteStats(site string) *SiteStats {
	r.mu.RLock()
	s := r.sites[site]
	r.mu.RUnlock()
	if s == nil {
		r.mu.Lock()
		s = r.sites[site]
		if s == nil {
			s = &SiteStats{Hist: metrics.NewHist()}
			r.sites[site] = s
		}
		r.mu.Unlock()
	}
	return s
}

// raiseEnd lifts maxEnd to end if end is later.
func (r *Registry) raiseEnd(end int64) {
	for {
		cur := r.maxEnd.Load()
		if end <= cur || r.maxEnd.CompareAndSwap(cur, end) {
			return
		}
	}
}

// Fold adds child's telemetry to r: child's sources after r's own, in
// child's registration order; each of child's sites' observations and bytes
// into r's site of that name; and child's latest end time. A registry that
// several concurrent parts of one run record into lists its sources in the
// order they happened to register; one child registry per part, folded in
// a fixed order, lists them in that order instead.
func (r *Registry) Fold(child *Registry) {
	if r == nil || child == nil {
		return
	}
	child.smu.Lock()
	sources := append([]source(nil), child.sources...)
	child.smu.Unlock()
	r.smu.Lock()
	r.sources = append(r.sources, sources...)
	r.smu.Unlock()
	child.mu.RLock()
	defer child.mu.RUnlock()
	for site, cs := range child.sites {
		s := r.siteStats(site)
		s.Hist.Merge(cs.Hist)
		s.bytes.Add(cs.Bytes())
	}
	r.raiseEnd(child.maxEnd.Load())
}

// Register attaches a counter source (see source for the kinds) under a
// site-style name; its row appears in Table. Constructors call this through
// Config.Register when a registry is attached.
func (r *Registry) Register(site string, src any) {
	if r == nil {
		return
	}
	r.smu.Lock()
	r.sources = append(r.sources, source{site, src})
	r.smu.Unlock()
}

// Snapshot returns the counter snapshot of kind T (BatcherStats,
// CoherenceStats or GateStats) registered under site, or a zero snapshot if
// none is.
func Snapshot[T any](r *Registry, site string) T {
	var zero T
	if r == nil {
		return zero
	}
	r.smu.Lock()
	defer r.smu.Unlock()
	for _, e := range r.sources {
		if stats, ok := e.src.(func() T); ok && e.site == site {
			return stats()
		}
	}
	return zero
}

// Site returns the stats for one site, or nil if nothing was observed.
func (r *Registry) Site(site string) *SiteStats {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.sites[site]
}

// Sites returns the observed site names, sorted.
func (r *Registry) Sites() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	out := make([]string, 0, len(r.sites))
	for s := range r.sites {
		out = append(out, s)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Elapsed reports the latest virtual end time any observation carried —
// the registry's proxy for the experiment's virtual makespan, used as the
// denominator for meter utilization.
func (r *Registry) Elapsed() time.Duration {
	if r == nil {
		return 0
	}
	return time.Duration(r.maxEnd.Load())
}

// Table renders the registry as one experiment-style table: a row per
// observed site (count, p50, p99, max, bytes) followed by a row per
// registered source that has counted anything (a meter's row is ops,
// utilization ρ, queued fraction).
func (r *Registry) Table(title string) *metrics.Table {
	t := metrics.NewTable(title, "site", "count", "p50", "p99", "max", "bytes", "ρ", "queued%")
	if r == nil {
		return t
	}
	for _, site := range r.Sites() {
		s := r.Site(site)
		t.Row(site, s.Hist.Count(), s.Hist.Quantile(0.50), s.Hist.Quantile(0.99),
			s.Hist.Max(), metrics.FormatBytes(s.Bytes()), "-", "-")
	}
	elapsed := r.Elapsed()
	r.smu.Lock()
	sources := append([]source(nil), r.sources...)
	r.smu.Unlock()
	// Rows come out grouped meters, batchers, coherence, gates, each group in
	// registration order; a source nothing has used yet has no row.
	var groups [4][][]any
	for _, e := range sources {
		switch src := e.src.(type) {
		case *Meter:
			if src.TotalOps() == 0 {
				continue
			}
			groups[0] = append(groups[0], []any{e.site, src.TotalOps(), "-", "-", "-", "-",
				fmt.Sprintf("%.2f", src.Utilization(elapsed)),
				fmt.Sprintf("%.0f%%", 100*src.QueuedFraction())})
		case func() BatcherStats:
			s := src()
			if s.Flushes == 0 {
				continue
			}
			// Batcher rows reuse the latency columns for flush-shape info:
			// count = flushes, p50 column = mean occupancy, p99 column = max
			// occupancy, max column = size/timeout split.
			groups[1] = append(groups[1], []any{e.site, s.Flushes,
				fmt.Sprintf("occ %.1f", s.MeanOccupancy()),
				fmt.Sprintf("max %d", s.MaxOccupancy),
				fmt.Sprintf("%ds/%dt", s.SizeFlushes, s.TimeoutFlushes),
				"-", "-", "-"})
		case func() CoherenceStats:
			s := src()
			if s.Publishes == 0 && s.StaleHits == 0 {
				continue
			}
			// Coherence rows reuse the latency columns for protocol-shape
			// info: count = publishes, p50 column = fan-out rounds, p99
			// column = invalidations sent, max column = version bumps, bytes
			// column = stale hits caught by validation.
			groups[2] = append(groups[2], []any{e.site, s.Publishes,
				fmt.Sprintf("rnd %d", s.Rounds),
				fmt.Sprintf("inv %d", s.Invalidations),
				fmt.Sprintf("bump %d", s.Bumps),
				fmt.Sprintf("stale %d", s.StaleHits),
				"-", "-"})
		case func() GateStats:
			s := src()
			if s.Admitted+s.Shed == 0 {
				continue
			}
			// Gate rows reuse the latency columns for admission-shape info:
			// count = arrivals, p50 column = admitted, p99 column = shed,
			// queued% column = shed fraction.
			groups[3] = append(groups[3], []any{e.site, s.Admitted + s.Shed,
				fmt.Sprintf("adm %d", s.Admitted),
				fmt.Sprintf("shed %d", s.Shed),
				"-", "-", "-",
				fmt.Sprintf("%.0f%%", 100*s.ShedFraction())})
		}
	}
	for _, rows := range groups {
		for _, row := range rows {
			t.Row(row...)
		}
	}
	return t
}

func (r *Registry) String() string { return r.Table("per-site telemetry").String() }
