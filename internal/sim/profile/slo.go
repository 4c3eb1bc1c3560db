package profile

import (
	"fmt"
	"sync"
	"time"
)

// SLO is a latency service-level objective: at least Objective of
// transactions complete successfully within Target, judged over sliding
// windows of Window virtual time.
type SLO struct {
	Target    time.Duration // per-transaction latency objective
	Objective float64       // e.g. 0.99 — fraction that must meet Target
	Window    time.Duration // burn-rate evaluation window
}

// sloBuckets is the number of sub-buckets a window is split into; finer
// granularity tightens the window edge at the cost of a larger (still
// bounded) map.
const sloBuckets = 8

type sloBucket struct{ good, bad int64 }

// SLOTracker counts SLO-violating transactions in virtual-time buckets
// and reports the burn rate: the window's violation fraction divided by
// the objective's error budget (1 - Objective). Burn 1 means the budget
// is being spent exactly at the sustainable rate; above 1 the SLO is
// burning down. It is safe for concurrent use: workers in a RunGroup
// observe on their own clocks, which may be skewed relative to each
// other, so buckets are keyed by absolute virtual-time index and pruned
// once they fall far behind the newest observation.
type SLOTracker struct {
	slo  SLO
	gran time.Duration

	mu      sync.Mutex
	buckets map[int64]*sloBucket
	maxIdx  int64
}

// NewSLOTracker returns a tracker for the given objective. Window and
// Target must be positive; Objective must be in (0,1).
func NewSLOTracker(s SLO) *SLOTracker {
	if s.Window <= 0 || s.Target <= 0 || s.Objective <= 0 || s.Objective >= 1 {
		panic(fmt.Sprintf("profile: invalid SLO %+v", s))
	}
	gran := s.Window / sloBuckets
	if gran <= 0 {
		gran = 1
	}
	return &SLOTracker{slo: s, gran: gran, buckets: map[int64]*sloBucket{}}
}

// SLO returns the tracked objective.
func (t *SLOTracker) SLO() SLO { return t.slo }

// Observe records one transaction finishing at virtual time now with the
// given latency; ok reports whether it committed. A transaction violates
// the SLO when it failed or exceeded the latency target.
func (t *SLOTracker) Observe(now, lat time.Duration, ok bool) {
	idx := int64(now / t.gran)
	t.mu.Lock()
	b := t.buckets[idx]
	if b == nil {
		b = &sloBucket{}
		t.buckets[idx] = b
	}
	if ok && lat <= t.slo.Target {
		b.good++
	} else {
		b.bad++
	}
	if idx > t.maxIdx {
		t.maxIdx = idx
		// Prune buckets that can no longer fall inside any window ending
		// at or after the newest observation, keeping memory bounded by
		// ~2 windows regardless of run length.
		floor := t.maxIdx - 2*sloBuckets
		for k := range t.buckets {
			if k < floor {
				delete(t.buckets, k)
			}
		}
	}
	t.mu.Unlock()
}

// Status is a point-in-time SLO evaluation over the window ending at the
// evaluation time.
type Status struct {
	Good, Bad int64
	ErrFrac   float64 // violating fraction of the window's transactions
	Burn      float64 // ErrFrac / (1 - Objective); >1 burns the budget
}

// Snapshot evaluates the window (now-Window, now]. With no observations
// in the window, burn is 0.
func (t *SLOTracker) Snapshot(now time.Duration) Status {
	hi := int64(now / t.gran)
	lo := hi - sloBuckets
	var st Status
	t.mu.Lock()
	for k, b := range t.buckets {
		if k > lo && k <= hi {
			st.Good += b.good
			st.Bad += b.bad
		}
	}
	t.mu.Unlock()
	if n := st.Good + st.Bad; n > 0 {
		st.ErrFrac = float64(st.Bad) / float64(n)
		st.Burn = st.ErrFrac / (1 - t.slo.Objective)
	}
	return st
}

func (s Status) String() string {
	return fmt.Sprintf("good %d bad %d err %.3f%% burn %.2fx", s.Good, s.Bad, 100*s.ErrFrac, s.Burn)
}
