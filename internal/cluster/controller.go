package cluster

import (
	"time"

	"github.com/disagglab/disagg/internal/autoscale"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/sim/profile"
)

// Controller closes the provisioning loop of §4: each Tick samples the
// fleet's live sim.Meter telemetry (per-member virtual busy time, queued
// fraction) through autoscale.MeterSource, feeds the windowed Telemetry
// into an autoscale.Policy, and EXECUTES the decision on the fleet —
// spinning members up (attach to shared storage, warm via the coherence
// directory and durable watermark, recovery time charged to the virtual
// clock) or draining them back out. This is the redesign ISSUE 8 asks
// for: the policies that E21 only ever evaluated against offline demand
// traces now provision real engines from real ρ/queue measurements.
type Controller struct {
	Fleet  *Fleet
	Policy autoscale.Policy
	// Max caps the executed fleet size (<= 0 means unbounded); the floor
	// is always one member.
	Max int

	src autoscale.MeterSource
}

// perNode is the demand one member serves at full utilization, in the
// meter's node-equivalent units. 1.0 would mean "a member is full when its
// virtual busy time equals the window", the natural calibration for
// capacity-1 member meters; 0.8 keeps headroom, so the fleet scales out
// before members saturate.
const perNode = 0.8

// NewController wires a controller over the given policy.
func NewController(f *Fleet, p autoscale.Policy) *Controller {
	return &Controller{Fleet: f, Policy: p}
}

// TickResult reports one control interval's observation and action.
type TickResult struct {
	Telemetry autoscale.Telemetry
	Decision  autoscale.Decision
	// Target is the clamped member count the controller executed.
	Target int
	// Added and Retired are the member ids the fleet changed.
	Added, Retired []int
	// WarmTime is the recovery time charged for this tick's attach/warm
	// work (0 when membership did not change).
	WarmTime time.Duration
	// SLO is the fleet's burn-rate evaluation over the window ending at
	// this tick (zero unless Fleet.SetSLO attached an objective). It lets
	// a scaling audit line up "burn > 1" intervals with the decisions
	// taken inside them.
	SLO profile.Status
	// SLOAttached reports whether the fleet has an objective, so a zero
	// Status is distinguishable from "not tracked".
	SLOAttached bool
}

// Tick runs one control interval at virtual time c.Now(): sample, decide,
// execute. Scale work (member attach, watermark warm-up, shard takeover)
// is charged to the caller's clock — the controller's provisioning lag is
// part of the simulated story, not hidden from it.
func (ctl *Controller) Tick(c *sim.Clock) TickResult {
	f := ctl.Fleet
	nodes := f.Size()
	tel := ctl.src.Sample(c.Now(), nodes, f.Meters()...)
	dec := ctl.Policy.Decide(tel, perNode)
	target := max(dec.Nodes, 1)
	if ctl.Max > 0 && target > ctl.Max {
		target = ctl.Max
	}
	res := TickResult{Telemetry: tel, Decision: dec, Target: target}
	if t := f.SLO(); t != nil {
		res.SLO = t.Snapshot(c.Now())
		res.SLOAttached = true
	}
	if target != nodes {
		before := c.Now()
		res.Added, res.Retired = f.ScaleTo(c, target)
		res.WarmTime = c.Now() - before
	}
	return res
}
