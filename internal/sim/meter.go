package sim

import (
	"sync/atomic"
	"time"
)

// Meter models a shared resource with finite service capacity (a NIC, a
// network link, a device queue, a pool of remote CPU cores) under
// processor-sharing semantics in virtual time.
//
// Because operations execute in near-zero real time, occupancy cannot be
// observed from wall-clock overlap. Instead the meter accumulates the total
// virtual busy time demanded of the resource and compares it, at each
// charge, with the caller's elapsed virtual time: utilization
// ρ = busy / (capacity × elapsed). When demand exceeds capacity (ρ > 1)
// every operation is stretched by ρ — the processor-sharing slowdown —
// capped so a badly oversubscribed resource degrades gracefully.
//
// Workers in one experiment share a virtual epoch (all clocks start at
// zero), which makes the caller's clock a valid elapsed-time proxy.
// Meter is safe for concurrent use.
type Meter struct {
	capacity   int64
	busy       atomic.Int64 // total demanded busy time, ns
	maxPenalty float64
	totalOps   atomic.Int64
	queuedOps  atomic.Int64
	epoch      atomic.Int64 // latest clock epoch seen (see Charge)
}

// NewMeter returns a meter with the given number of service slots.
// Capacity values < 1 are treated as 1.
func NewMeter(capacity int) *Meter {
	if capacity < 1 {
		capacity = 1
	}
	return &Meter{capacity: int64(capacity), maxPenalty: 16}
}

// Capacity reports the number of service slots.
func (m *Meter) Capacity() int { return int(m.capacity) }

// Charge accounts one operation of modeled duration d against the meter on
// the worker's clock, inflating d by the current utilization penalty.
// It returns the charged (possibly inflated) duration.
func (m *Meter) Charge(c *Clock, d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	// Epoch guard: a worker whose clock was Reset for a new experiment
	// phase arrives with a rewound elapsed time. Dividing the old epoch's
	// accumulated demand by the new epoch's tiny elapsed time would read
	// as a max-penalty utilization spike, so when a newer epoch first
	// touches the meter the accumulated demand rolls forward to zero.
	if e := c.epoch; e > m.epoch.Load() {
		if old := m.epoch.Load(); e > old && m.epoch.CompareAndSwap(old, e) {
			m.busy.Store(0)
		}
	}
	m.totalOps.Add(1)
	// Utilization is computed over *charged* (stretched) time on both
	// axes, which makes the steady-state penalty converge to the true
	// oversubscription ratio: with N workers each demanding at rate r on
	// capacity cap, busy grows as N·r·p while elapsed grows as r·p, so
	// ρ → N/cap and every op is stretched N/cap-fold.
	busy := m.busy.Load() + int64(d)
	elapsed := c.Now() + d
	p := float64(busy) / float64(m.capacity) / float64(elapsed)
	switch {
	case p <= 1:
		p = 1
	case p > m.maxPenalty:
		p = m.maxPenalty
	}
	if p > 1 {
		m.queuedOps.Add(1)
		d = time.Duration(float64(d) * p)
	}
	m.busy.Add(int64(d))
	c.Advance(d)
	return d
}

// Observe accounts one operation of modeled duration d against the meter
// WITHOUT advancing the caller's clock or applying a queueing penalty. It
// exists for observers that meter work whose time was already charged
// elsewhere (an engine's substrate meters advanced the clock during the
// transaction); Charge-ing it again would double-bill the worker. The
// queued flag is still derived from the instantaneous utilization so
// telemetry consumers (autoscale controllers) see congestion.
func (m *Meter) Observe(c *Clock, d time.Duration) {
	if d <= 0 {
		return
	}
	if e := c.epoch; e > m.epoch.Load() {
		if old := m.epoch.Load(); e > old && m.epoch.CompareAndSwap(old, e) {
			m.busy.Store(0)
		}
	}
	m.totalOps.Add(1)
	busy := m.busy.Add(int64(d))
	if elapsed := c.Now(); elapsed > 0 &&
		float64(busy)/float64(m.capacity)/float64(elapsed) > 1 {
		m.queuedOps.Add(1)
	}
}

// Busy reports the total virtual busy time demanded so far.
func (m *Meter) Busy() time.Duration { return time.Duration(m.busy.Load()) }

// QueuedOps reports the number of charged operations that observed
// queueing (the numerator of QueuedFraction).
func (m *Meter) QueuedOps() int64 { return m.queuedOps.Load() }

// TotalOps reports the number of operations charged.
func (m *Meter) TotalOps() int64 { return m.totalOps.Load() }

// Utilization reports ρ = busy / (capacity × elapsed) against an external
// elapsed-time reference (e.g. the experiment's virtual makespan). Values
// above 1 mean the resource was oversubscribed.
func (m *Meter) Utilization(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(m.busy.Load()) / float64(m.capacity) / float64(elapsed)
}

// QueuedFraction reports the fraction of charged operations that observed
// queueing, a cheap congestion signal for adaptive policies (e.g. Redy's
// SLO-driven configuration).
func (m *Meter) QueuedFraction() float64 {
	t := m.totalOps.Load()
	if t == 0 {
		return 0
	}
	return float64(m.queuedOps.Load()) / float64(t)
}
