package admission

import (
	"sync/atomic"
	"time"

	"github.com/disagglab/disagg/internal/sim"
)

// Breaker states.
const (
	// StateClosed passes all requests through (normal operation).
	StateClosed int32 = iota
	// StateOpen fast-fails all requests until the cooldown elapses.
	StateOpen
	// StateHalfOpen lets exactly one probe through; its outcome decides
	// whether the breaker closes or re-opens.
	StateHalfOpen
)

// Breaker is a circuit breaker over sustained unavailability: after
// threshold consecutive failures it opens and fast-fails every request
// for a virtual-time cooldown, then lets a single half-open probe decide
// whether to close again. Fast-failing converts queueing on a dead
// dependency (each attempt burning timeouts and meter time) into an
// immediate local error.
//
// Virtual time comes from the caller clocks passed to Allow: workers in a
// sim.RunGroup start at zero together, so one worker's trip time is
// comparable against another worker's now. A nil *Breaker allows all.
type Breaker struct {
	threshold int64         // consecutive failures that trip the breaker
	cooldown  time.Duration // virtual time spent open before probing

	state    atomic.Int32
	fails    atomic.Int64
	openedAt atomic.Int64 // virtual ns of the trip

	trips     atomic.Int64
	fastFails atomic.Int64
}

// NewBreaker returns a closed breaker tripping after threshold
// consecutive failures and cooling down for cooldown of virtual time.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	return &Breaker{threshold: int64(threshold), cooldown: cooldown}
}

// Allow reports whether a request may proceed at the caller's virtual
// now. In the open state it returns false until the cooldown has
// elapsed, then admits exactly one caller as the half-open probe.
func (b *Breaker) Allow(c *sim.Clock) bool {
	if b == nil {
		return true
	}
	switch b.state.Load() {
	case StateClosed:
		return true
	case StateOpen:
		if c.Now() >= time.Duration(b.openedAt.Load())+b.cooldown {
			// First caller past the cooldown becomes the probe.
			if b.state.CompareAndSwap(StateOpen, StateHalfOpen) {
				return true
			}
		}
		b.fastFails.Add(1)
		return false
	default: // StateHalfOpen: a probe is already in flight.
		b.fastFails.Add(1)
		return false
	}
}

// Record feeds one request outcome back at the caller's virtual now.
// Success closes the breaker and clears the failure streak; failure
// extends the streak and trips (or re-trips, from half-open) the breaker.
func (b *Breaker) Record(c *sim.Clock, failed bool) {
	if b == nil {
		return
	}
	if !failed {
		b.fails.Store(0)
		b.state.Store(StateClosed)
		return
	}
	n := b.fails.Add(1)
	st := b.state.Load()
	if st == StateHalfOpen || (st == StateClosed && n >= b.threshold) {
		b.openedAt.Store(int64(c.Now()))
		if b.state.Swap(StateOpen) != StateOpen {
			b.trips.Add(1)
		}
	}
}

// State reports the current breaker state.
func (b *Breaker) State() int32 {
	if b == nil {
		return StateClosed
	}
	return b.state.Load()
}

// BreakerStats is a counter snapshot of the breaker's activity.
type BreakerStats struct {
	Trips     int64 // closed/half-open -> open transitions
	FastFails int64 // requests rejected without reaching the dependency
}

// Stats snapshots the breaker's counters.
func (b *Breaker) Stats() BreakerStats {
	if b == nil {
		return BreakerStats{}
	}
	return BreakerStats{Trips: b.trips.Load(), FastFails: b.fastFails.Load()}
}
