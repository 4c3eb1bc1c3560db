package admission

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/disagglab/disagg/internal/sim"
)

// The gate's watermarks defend the meters' linear-penalty region: it
// sheds while a resource is more than GateMaxUtil× oversubscribed and at
// least GateMinQueued of its charges are queueing, once the caller's clock
// is past GateWarmup.
const (
	// GateMaxUtil is the meter-ρ watermark: operations are shed while the
	// resource's utilization (busy / capacity·elapsed) exceeds it. The
	// meter's processor-sharing penalty grows linearly with ρ up to its
	// cap, so the watermark is the stretch factor the gate defends. It
	// matches E25's SLO multiple: the penalty applies only to the substrate
	// leg of an op, so work admitted at ρ <= 4 still meets a deadline of 4×
	// the whole op's nominal latency.
	GateMaxUtil float64 = 4
	// GateMinQueued additionally requires the meter's queued fraction
	// (share of charges that experienced contention) to reach this level,
	// so a short ρ spike from one large transfer does not shed.
	GateMinQueued = 0.5
	// GateWarmup suppresses shedding before this much virtual time on the
	// caller's clock: early in a run elapsed is tiny and ρ estimates are
	// noise (this also exempts the substrate-internal probe clocks that
	// quorum appends use, which always sit near zero).
	GateWarmup = 200 * time.Microsecond
)

// gateSite is one site's admit/shed counters.
type gateSite struct {
	admitted atomic.Int64
	shed     atomic.Int64
}

// Gate implements sim.Admitter: a congestion-watermark admission gate
// over the contention meter each substrate choke point passes in. It
// keeps per-site counters and registers them with the config's stats
// registry (rows named "admit.<site>") as sites first appear.
//
// Shedding at the substrate is deliberately blunt — the operation fails
// with sim.ErrAdmission before any virtual time is charged, and the
// engine surfaces the failure like any other substrate error. The point
// is that refused work costs (virtually) nothing, while admitted work
// sees a meter protected from the deep-penalty region.
type Gate struct {
	cfg *sim.Config

	mu    sync.Mutex
	sites map[string]*gateSite
}

// NewGate builds a gate and attaches its per-site counters to cfg's stats
// registry. Install it with cfg.Admission = g.
func NewGate(cfg *sim.Config) *Gate {
	return &Gate{cfg: cfg, sites: make(map[string]*gateSite)}
}

// site returns (lazily creating and registering) the counters for site.
func (g *Gate) site(name string) *gateSite {
	g.mu.Lock()
	s := g.sites[name]
	if s == nil {
		s = &gateSite{}
		g.sites[name] = s
		if g.cfg != nil {
			g.cfg.Register("admit."+name, func() sim.GateStats {
				return sim.GateStats{Admitted: s.admitted.Load(), Shed: s.shed.Load()}
			})
		}
	}
	g.mu.Unlock()
	return s
}

// Admit implements sim.Admitter.
func (g *Gate) Admit(c *sim.Clock, site string, m *sim.Meter) error {
	s := g.site(site)
	if m == nil || c.Now() < GateWarmup {
		s.admitted.Add(1)
		return nil
	}
	if rho := m.Utilization(c.Now()); rho > GateMaxUtil && m.QueuedFraction() >= GateMinQueued {
		s.shed.Add(1)
		return &ShedError{site, rho}
	}
	s.admitted.Add(1)
	return nil
}

// ShedError is a gate's refusal: the site and the meter utilization ρ it
// shed at. Its text is formatted only when printed; it unwraps to
// sim.ErrAdmission.
type ShedError struct {
	Site string
	Rho  float64
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("%v: %s ρ=%.2f", sim.ErrAdmission, e.Site, e.Rho)
}

func (e *ShedError) Unwrap() error { return sim.ErrAdmission }

// Stats aggregates admit/shed counts across every site the gate has seen.
func (g *Gate) Stats() sim.GateStats {
	var out sim.GateStats
	g.mu.Lock()
	for _, s := range g.sites {
		out.Admitted += s.admitted.Load()
		out.Shed += s.shed.Load()
	}
	g.mu.Unlock()
	return out
}

// SiteStats reports one site's admit/shed counts.
func (g *Gate) SiteStats(site string) sim.GateStats {
	g.mu.Lock()
	s := g.sites[site]
	g.mu.Unlock()
	if s == nil {
		return sim.GateStats{}
	}
	return sim.GateStats{Admitted: s.admitted.Load(), Shed: s.shed.Load()}
}
