package sim

import (
	"slices"
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

func TestChargeQuorumChargesTheKthFastest(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	for _, tc := range []struct {
		name string
		k    int
		want time.Duration
	}{
		{"fastest", 1, us(1)},
		{"majority", 2, us(2)},
		{"slowest", 4, us(7)},
	} {
		m := NewMeter(1)
		c := NewClock()
		c.Advance(us(100))
		acks := []time.Duration{us(7), us(2), us(5), us(1)}
		if got := m.ChargeQuorum(c, acks, tc.k); got != tc.want || c.Now() != us(100)+tc.want {
			t.Errorf("%s: charged %v, clock at %v; want %v, %v", tc.name, got, c.Now(), tc.want, us(100)+tc.want)
		}
		if !slices.IsSorted(acks) {
			t.Errorf("%s: acks %v left unsorted", tc.name, acks)
		}
	}

	// A meter another worker keeps busy stretches the quorum's ack as
	// Charge stretches any operation.
	busy, ref := NewMeter(1), NewMeter(1)
	busy.Charge(NewClock(), us(200))
	ref.Charge(NewClock(), us(200))
	c, rc := NewClock(), NewClock()
	c.Advance(us(10))
	rc.Advance(us(10))
	got := busy.ChargeQuorum(c, []time.Duration{us(9), us(3), us(6)}, 2)
	want := ref.Charge(rc, us(6))
	if got <= us(6) || got != want || c.Now() != rc.Now() {
		t.Fatalf("under a penalty: charged %v (clock %v), want Charge's %v (clock %v), above 6µs", got, c.Now(), want, rc.Now())
	}
}
