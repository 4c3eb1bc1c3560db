package autoscale

import (
	"testing"
	"time"

	"github.com/disagglab/disagg/internal/sim"
)

func TestReactiveScalesOutUnderLoad(t *testing.T) {
	p := NewReactive()
	d := p.Decide(Telemetry{At: 0, Demand: 1000}, 100)
	if d.Nodes < 10 {
		t.Fatalf("nodes = %d for demand 1000 at 100/node", d.Nodes)
	}
	// Scale back in when idle.
	d = p.Decide(Telemetry{At: time.Second, Demand: 50}, 100)
	if d.Nodes > 2 {
		t.Fatalf("nodes = %d after load dropped", d.Nodes)
	}
}

func TestReactiveSteadyState(t *testing.T) {
	p := NewReactive()
	p.Decide(Telemetry{Demand: 500}, 100) // provisions ~7
	before := p.nodes
	d := p.Decide(Telemetry{Demand: 500}, 100)
	if d.Nodes != before || d.Reason != "steady" {
		t.Fatalf("steady load changed provisioning: %+v", d)
	}
}

func TestPredictiveForecastsLinearRamp(t *testing.T) {
	p := NewPredictive(10 * time.Second)
	// Feed a perfect ramp: demand = 10*t.
	var last Decision
	for i := 0; i < 10; i++ {
		at := time.Duration(i) * time.Second
		last = p.Decide(Telemetry{At: at, Demand: float64(i * 10)}, 100)
	}
	// At t=9 demand is 90; forecast at t=19 should be ~190, so with
	// headroom 0.8 it provisions ceil(190/80)+1 ≈ 3.
	if last.Nodes < 3 {
		t.Fatalf("predictive provisioned only %d nodes ahead of the ramp", last.Nodes)
	}
}

func TestForecastDegenerateCases(t *testing.T) {
	p := NewPredictive(time.Second)
	if f := p.forecast(time.Second); f != 0 {
		t.Fatalf("empty forecast = %v", f)
	}
	p.samples = []Telemetry{{At: 0, Demand: 42}}
	if f := p.forecast(time.Hour); f != 42 {
		t.Fatalf("single-sample forecast = %v", f)
	}
	// Identical timestamps: fall back to mean.
	p.samples = []Telemetry{{At: 0, Demand: 10}, {At: 0, Demand: 20}}
	if f := p.forecast(time.Hour); f != 15 {
		t.Fatalf("degenerate forecast = %v", f)
	}
	// Falling demand never forecasts below zero.
	p.samples = []Telemetry{{At: 0, Demand: 100}, {At: time.Second, Demand: 10}}
	if f := p.forecast(time.Minute); f != 0 {
		t.Fatalf("negative forecast = %v", f)
	}
}

func TestTracePredictiveBeatsReactiveOnRamps(t *testing.T) {
	// The §4 claim distilled: with provisioning lag, a predictor that
	// sees the ramp coming violates the SLO less often. The ramp is
	// steep enough that per-interval growth outruns the reactive
	// policy's headroom.
	demands := RampTrace(40_000, 30)
	perNode := 250.0
	interval := time.Second

	vioR, _, err := Trace(NewReactive(), perNode, demands, interval)
	if err != nil {
		t.Fatal(err)
	}
	vioP, overP, err := Trace(NewPredictive(2*interval), perNode, demands, interval)
	if err != nil {
		t.Fatal(err)
	}
	if !(vioP < vioR) {
		t.Fatalf("predictive violations %.2f should be < reactive %.2f", vioP, vioR)
	}
	// Cost guard: average slack stays below half the peak fleet (the
	// 20% headroom target plus forecast error, not runaway growth).
	if peakNodes := 40_000 / perNode; overP > 0.5*peakNodes {
		t.Fatalf("predictive overprovisions wildly: %.1f nodes average slack", overP)
	}
}

func TestTraceErrors(t *testing.T) {
	if _, _, err := Trace(NewReactive(), 0, []float64{1}, time.Second); err != ErrBadCapacity {
		t.Fatalf("err = %v", err)
	}
	if v, o, err := Trace(NewReactive(), 10, nil, time.Second); err != nil || v != 0 || o != 0 {
		t.Fatal("empty trace should be zero-safe")
	}
}

func TestReactivePrefersMeasuredUtil(t *testing.T) {
	// Demand alone reads as idle, but the measured ρ says the fleet is
	// saturated (e.g. contention stretch, not raw arrival rate): the
	// policy must believe the meter.
	p := NewReactive()
	d := p.Decide(Telemetry{Demand: 10, Util: 0.95}, 100)
	if d.Nodes < 1 || d.Reason == "steady" {
		t.Fatalf("measured util 0.95 did not trigger scale-out: %+v", d)
	}
}

func TestMeterSourceWindows(t *testing.T) {
	m := sim.NewMeter(1)
	c := sim.NewClock()
	var ms MeterSource

	// Window 1: 600µs of demand over a 1ms window on 1 node.
	m.Observe(advanceTo(c, time.Millisecond), 600*time.Microsecond)
	tel := ms.Sample(c.Now(), 1, m)
	if tel.At != time.Millisecond {
		t.Fatalf("At = %v", tel.At)
	}
	if tel.Demand < 0.59 || tel.Demand > 0.61 {
		t.Fatalf("demand = %v, want ~0.6 node-equivalents", tel.Demand)
	}
	if tel.Util < 0.59 || tel.Util > 0.61 {
		t.Fatalf("util = %v, want ~0.6 on one node", tel.Util)
	}

	// Window 2: idle — deltas, not cumulative totals.
	tel = ms.Sample(advanceTo(c, 2*time.Millisecond).Now(), 1, m)
	if tel.Demand != 0 || tel.Util != 0 {
		t.Fatalf("idle window reported demand %v util %v", tel.Demand, tel.Util)
	}

	// Window 3: two nodes, 2ms aggregate busy over 1ms => demand 2.0,
	// util 1.0 across the pair.
	m2 := sim.NewMeter(1)
	m.Observe(advanceTo(c, 3*time.Millisecond), time.Millisecond)
	m2.Observe(c, time.Millisecond)
	tel = ms.Sample(c.Now(), 2, m, m2)
	if tel.Demand < 1.9 || tel.Demand > 2.1 {
		t.Fatalf("demand = %v, want ~2 node-equivalents", tel.Demand)
	}
	if tel.Util < 0.95 || tel.Util > 1.05 {
		t.Fatalf("util = %v, want ~1.0 across two nodes", tel.Util)
	}
}

// advanceTo moves the clock to an absolute virtual time (test helper).
func advanceTo(c *sim.Clock, at time.Duration) *sim.Clock {
	c.Advance(at - c.Now())
	return c
}

func TestObserveDoesNotAdvanceClock(t *testing.T) {
	m := sim.NewMeter(1)
	c := sim.NewClock()
	c.Advance(time.Millisecond)
	m.Observe(c, 500*time.Microsecond)
	if c.Now() != time.Millisecond {
		t.Fatalf("Observe advanced the clock to %v", c.Now())
	}
	if m.Busy() != 500*time.Microsecond || m.TotalOps() != 1 {
		t.Fatalf("busy %v ops %d", m.Busy(), m.TotalOps())
	}
	// Oversubscribed observations register as queued for telemetry.
	m.Observe(c, 10*time.Millisecond)
	if m.QueuedOps() == 0 {
		t.Fatal("oversubscribed Observe did not mark queueing")
	}
}

func TestRampTraceShape(t *testing.T) {
	tr := RampTrace(100, 50)
	if len(tr) != 50 {
		t.Fatalf("len = %d", len(tr))
	}
	if tr[0] != 0 || tr[25] != 100 || tr[len(tr)-1] > 5 {
		t.Fatalf("ramp shape wrong: start %v mid %v end %v", tr[0], tr[25], tr[len(tr)-1])
	}
}
