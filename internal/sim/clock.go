// Package sim provides the virtual-time simulation core used by every
// substrate in this repository.
//
// The model is cost accounting rather than discrete-event scheduling: each
// logical worker (a client, a transaction thread, a query pipeline) owns a
// Clock that accumulates the modeled latency of every device and fabric
// operation it performs. Shared resources (NICs, links, device queues) are
// represented by Meters whose occupancy inflates the charged latency, so
// contention effects are visible without a global event queue.
//
// Concurrent workers run under RunGroup, which lets one of them run at a
// time: each is a coroutine that one driver loop resumes, and the baton
// passes only where a worker yields (Yield, at every transaction) or must
// wait for another (Wait: a lock, a batch), and always to the worker
// earliest in virtual time. Conflicts and
// retries are real, and the interleaving that produced them is a function of
// the virtual clocks, so a run replays byte for byte. A clock made by
// NewClock belongs to no group; its Waits poll instead.
package sim

import "time"

// Clock is a per-worker virtual clock. It is not safe for concurrent use;
// each worker owns exactly one Clock.
type Clock struct {
	now    time.Duration
	trace  *Trace
	events EventSink
	w      *worker // the RunGroup member owning the clock; nil: free-running
}

// NewClock returns a clock at virtual time zero, outside any group.
func NewClock() *Clock { return &Clock{} }

// Now reports the worker's current virtual time.
func (c *Clock) Now() time.Duration { return c.now }

// Advance moves the clock forward by d. Negative advances are ignored so
// that cost models may return zero/negative residuals safely.
func (c *Clock) Advance(d time.Duration) {
	if d > 0 {
		c.now += d
	}
}

// AdvanceTo moves the clock forward to t if t is later than the current
// virtual time. It is used to join on events completed by other workers
// (e.g. waiting for a quorum of acknowledgements).
func (c *Clock) AdvanceTo(t time.Duration) {
	if t > c.now {
		c.now = t
	}
}

// Fork returns a clock at c's time with no group, trace or event sink, for
// work that runs beside c (a fan-out leg, background work c does not wait
// for); the leg's latency is leg.Now() - c.Now(). See Meter.
func (c *Clock) Fork() Clock { return Clock{now: c.now} }

// SetTrace attaches a span tree to the clock: subsequent instrumented
// operations on this clock record nested spans into t. Pass nil to detach.
// A Trace must not be shared between clocks.
func (c *Clock) SetTrace(t *Trace) { c.trace = t }

// Trace returns the attached trace, if any.
func (c *Clock) Trace() *Trace { return c.trace }

// StartSpan opens a span at site in the clock's trace and returns it, or
// nil when no trace is attached. It lets layers without a Config (e.g.
// engine.Run's retry loop) bracket work the same way Config.Begin does;
// close with FinishSpan.
func (c *Clock) StartSpan(site string) *Span {
	if c == nil || c.trace == nil {
		return nil
	}
	return c.trace.push(site, c.now)
}

// FinishSpan closes a span opened by StartSpan, attributing everything the
// clock accumulated since then to it. A nil span is a no-op, so the
// StartSpan/FinishSpan pair is free when tracing is off.
func (c *Clock) FinishSpan(sp *Span, bytes int64) {
	if sp == nil || c == nil || c.trace == nil {
		return
	}
	c.trace.pop(sp, c.now, bytes)
}
