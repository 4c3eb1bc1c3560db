// Package admission is the reusable overload-control layer for the
// simulated disaggregated stack: capped jittered exponential backoff
// charged to the virtual clock, per-client retry budgets, a circuit
// breaker that converts sustained unavailability into fast-fail with
// half-open probing, queue-depth load shedding, and congestion-watermark
// admission gates fed by sim.Meter's ρ and queued-fraction signals.
//
// The pieces compose but do not require each other: engine.Run wires
// backoff/budget/breaker/shedding around transaction attempts, while Gate
// plugs into sim.Config.Admission so substrate choke points (RDMA post,
// log-store appends, quorum/raft appends) shed before charging any time.
// Everything is deterministic given the virtual clock — jitter is derived
// by hashing (virtual now, attempt), not from a seeded RNG, so reruns of
// a seeded workload replay identical backoff schedules.
package admission

import (
	"math"
	"time"

	"github.com/disagglab/disagg/internal/sim"
)

// The one backoff schedule: the delay before retry attempt n (0-based) is
// drawn from [d/2, d), where d is backoffBase·2ⁿ capped at backoffCap.
const (
	backoffBase = 5 * time.Microsecond // a few fabric round trips
	backoffCap  = 2 * time.Millisecond
)

// Delay returns the jittered delay for the given retry attempt (0-based)
// at virtual time now, without charging it anywhere. The deterministic
// full-range jitter draws from [delay/2, delay) by hashing (now, attempt):
// concurrent workers whose clocks have drifted apart — which contention
// guarantees — decorrelate, while a replay of the same seeded workload
// reproduces the exact schedule.
func Delay(now time.Duration, attempt int) time.Duration {
	d := min(math.Ldexp(float64(backoffBase), attempt), float64(backoffCap))
	// Map the hash to [0.5, 1.0) of the computed delay.
	u := float64(mix64(uint64(now)+0x9e3779b97f4a7c15*uint64(attempt+1))>>11) / float64(1<<53)
	return time.Duration(d * (0.5 + 0.5*u))
}

// Wait charges the jittered delay for attempt to the worker's virtual
// clock and returns what it charged. This is the whole point of backing
// off: failed work must consume virtual time, or the meters see infinite
// offered load at zero cost and the simulation livelocks.
func Wait(c *sim.Clock, attempt int) time.Duration {
	d := Delay(c.Now(), attempt)
	c.Advance(d)
	return d
}

// mix64 is the splitmix64 finalizer: a cheap, high-quality avalanche of a
// 64-bit value, giving deterministic jitter with no RNG state to share.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
