package sim

import (
	"testing"
	"time"
)

func TestObserveAccumulatesWithoutCharging(t *testing.T) {
	m := NewMeter(1)
	c := NewClock()
	c.Advance(10 * time.Microsecond)
	before := c.Now()
	m.Observe(c, 4*time.Microsecond)
	if c.Now() != before {
		t.Fatalf("Observe advanced the clock %v -> %v", before, c.Now())
	}
	if m.Busy() != 4*time.Microsecond || m.TotalOps() != 1 {
		t.Fatalf("busy %v ops %d, want 4µs/1", m.Busy(), m.TotalOps())
	}
	// Demand below capacity x elapsed: not queued.
	if m.QueuedOps() != 0 {
		t.Fatalf("under-utilized observe queued")
	}
	// Push demand past elapsed: the queued flag must trip.
	m.Observe(c, 20*time.Microsecond)
	if m.QueuedOps() != 1 {
		t.Fatalf("over-utilized observe not queued (busy %v, elapsed %v)", m.Busy(), c.Now())
	}
}

func TestObserveZeroAndNegativeAreNoOps(t *testing.T) {
	m := NewMeter(1)
	c := NewClock()
	c.Advance(time.Microsecond)
	m.Observe(c, 0)
	m.Observe(c, -time.Microsecond)
	if m.TotalOps() != 0 || m.Busy() != 0 {
		t.Fatalf("non-positive observe accounted: ops %d busy %v", m.TotalOps(), m.Busy())
	}
}
