// Package autoscale implements the "automatic resource provisioning"
// future direction of §4: a controller that watches workload telemetry
// (latency, utilization, queueing) and decides how much compute, memory,
// and storage to provision — the decision disaggregation makes cheap,
// because each resource scales independently.
//
// Two policies are provided: a reactive threshold rule (the classic
// autoscaler) and a predictive model that regresses demand over a sliding
// window and provisions ahead of it — the "recent advances in machine
// learning" §4 points at, distilled to an online linear fit, which is
// enough to show the lead-time benefit.
package autoscale

import (
	"errors"
	"fmt"
	"time"

	"github.com/disagglab/disagg/internal/sim"
)

// Telemetry is one virtual-time observation of the fleet. The controller
// builds it from live sim.Meter counters (see MeterSource); offline traces
// build it directly from a demand series. Demand is the load signal every
// policy provisions for; Util and Queued, when measured, refine the
// congestion picture beyond what Demand alone implies.
type Telemetry struct {
	// At is the virtual timestamp of the observation (a sim.Clock reading).
	At time.Duration
	// Demand is the offered load in per-node capacity units: 1.0 is one
	// fully-busy node at the nominal perNode rate (for live telemetry,
	// virtual busy-time per virtual second; for traces, txn/s or any other
	// rate the perNode capacity is denominated in).
	Demand float64
	// Util is the MEASURED fleet utilization ρ over the observation window
	// (busy / (nodes × elapsed)), or 0 when unknown (offline traces).
	// Policies prefer it to the Demand-derived estimate when present.
	Util float64
	// Queued is the fraction of operations in the window that observed
	// queueing — the congestion signal sim.Meter exposes.
	Queued float64
}

// Decision is the controller's output.
type Decision struct {
	// Nodes is the number of compute nodes to run.
	Nodes int
	// Reason explains the decision (for operator logs).
	Reason string
}

// Policy maps telemetry to provisioning decisions.
type Policy interface {
	// Decide consumes the newest observation and returns the node count to
	// provision, given each node serves perNode demand units.
	Decide(s Telemetry, perNode float64) Decision
}

// Errors.
var ErrBadCapacity = errors.New("autoscale: per-node capacity must be positive")

// Reactive's thresholds: scale out above reactiveHigh utilization, in
// below reactiveLow.
const (
	reactiveHigh = 0.8
	reactiveLow  = 0.3
)

// Reactive is the threshold autoscaler: scale out when utilization exceeds
// reactiveHigh, in when below reactiveLow. It reacts only after load has
// already changed.
type Reactive struct {
	nodes int
}

// NewReactive returns a reactive policy starting at one node.
func NewReactive() *Reactive { return &Reactive{nodes: 1} }

// Decide implements Policy. When the observation carries a measured
// utilization (live sim.Meter telemetry), that drives the threshold test;
// otherwise utilization is derived from Demand as in the offline traces.
func (r *Reactive) Decide(s Telemetry, perNode float64) Decision {
	if r.nodes < 1 {
		r.nodes = 1
	}
	util := s.Demand / (float64(r.nodes) * perNode)
	if s.Util > 0 {
		util = s.Util
	}
	switch {
	case util > reactiveHigh:
		r.nodes = int(s.Demand/(perNode*reactiveHigh)) + 1
		return Decision{Nodes: r.nodes, Reason: fmt.Sprintf("util %.2f > %.2f: scale out", util, reactiveHigh)}
	case util < reactiveLow && r.nodes > 1:
		r.nodes = int(s.Demand/(perNode*reactiveHigh)) + 1
		return Decision{Nodes: r.nodes, Reason: fmt.Sprintf("util %.2f < %.2f: scale in", util, reactiveLow)}
	default:
		return Decision{Nodes: r.nodes, Reason: "steady"}
	}
}

// Predictive regresses the last predictiveWindow samples and provisions
// the predicted demand at predictiveHeadroom utilization.
const (
	predictiveWindow   = 16
	predictiveHeadroom = 0.8
)

// Predictive fits demand(t) over a sliding window with least squares and
// provisions for the EXTRAPOLATED demand one horizon ahead, so capacity is
// ready when the load arrives.
type Predictive struct {
	horizon time.Duration // how far ahead to provision
	samples []Telemetry
	nodes   int
}

// NewPredictive returns a predictive policy provisioning horizon ahead.
func NewPredictive(horizon time.Duration) *Predictive {
	return &Predictive{horizon: horizon, nodes: 1}
}

// Decide implements Policy.
func (p *Predictive) Decide(s Telemetry, perNode float64) Decision {
	p.samples = append(p.samples, s)
	if len(p.samples) > predictiveWindow {
		p.samples = p.samples[len(p.samples)-predictiveWindow:]
	}
	predicted := p.forecast(s.At + p.horizon)
	if predicted < s.Demand {
		predicted = s.Demand // never provision below observed load
	}
	want := int(predicted/(perNode*predictiveHeadroom)) + 1
	if want < 1 {
		want = 1
	}
	p.nodes = want
	return Decision{Nodes: want, Reason: fmt.Sprintf("forecast %.0f at +%v", predicted, p.horizon)}
}

// forecast extrapolates the least-squares line through the window.
func (p *Predictive) forecast(at time.Duration) float64 {
	n := float64(len(p.samples))
	if n == 0 {
		return 0
	}
	if n == 1 {
		return p.samples[0].Demand
	}
	var sx, sy, sxx, sxy float64
	for _, s := range p.samples {
		x := s.At.Seconds()
		sx += x
		sy += s.Demand
		sxx += x * x
		sxy += x * s.Demand
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return sy / n
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n
	f := intercept + slope*at.Seconds()
	if f < 0 {
		return 0
	}
	return f
}

// MeterSource converts live sim.Meter counters into windowed Telemetry:
// each Sample call reads the meters' cumulative busy/ops/queued totals,
// differences them against the previous call, and reports the window's
// demand rate (virtual busy-time per virtual second, i.e. node-equivalents
// of load), measured utilization over the live node count, and queued
// fraction. The meter set must be delta-monotonic across calls — keep
// retired members' meters in the set (their counters simply stop moving)
// rather than dropping them, or the differencing goes negative.
//
// MeterSource is the bridge the ISSUE-8 redesign adds: policies consume
// the same Telemetry whether it came from an offline trace or from the
// running fleet's meters stamped with sim.Clock time.
type MeterSource struct {
	lastAt     time.Duration
	lastBusy   time.Duration
	lastOps    int64
	lastQueued int64
}

// Sample observes the meters at virtual time now with nodes live compute
// members and returns the telemetry for the window since the previous
// call. The first call establishes the baseline window from t=0.
func (ms *MeterSource) Sample(now time.Duration, nodes int, meters ...*sim.Meter) Telemetry {
	var busy time.Duration
	var ops, queued int64
	for _, m := range meters {
		busy += m.Busy()
		ops += m.TotalOps()
		queued += m.QueuedOps()
	}
	dt := now - ms.lastAt
	dBusy := busy - ms.lastBusy
	dOps := ops - ms.lastOps
	dQueued := queued - ms.lastQueued
	ms.lastAt, ms.lastBusy, ms.lastOps, ms.lastQueued = now, busy, ops, queued
	t := Telemetry{At: now}
	if dt <= 0 || dBusy < 0 || dOps < 0 {
		return t
	}
	t.Demand = dBusy.Seconds() / dt.Seconds()
	if nodes > 0 {
		t.Util = t.Demand / float64(nodes)
	}
	if dOps > 0 {
		t.Queued = float64(dQueued) / float64(dOps)
	}
	return t
}

// Trace evaluates a policy against a demand trace and reports (a) the
// fraction of samples where provisioned capacity was insufficient (SLO
// violations) and (b) the average overprovisioned node-fraction (cost).
// Each sample is one control interval; decisions take effect the NEXT
// interval (provisioning lag).
//
// Trace is a thin shim over the Telemetry surface: it feeds observations
// with no measured Util/Queued, so policies fall back to the demand-derived
// utilization and the E21 outputs are unchanged by the live-telemetry
// redesign.
func Trace(p Policy, perNode float64, demands []float64, interval time.Duration) (violations float64, avgOver float64, err error) {
	if perNode <= 0 {
		return 0, 0, ErrBadCapacity
	}
	nodes := 1
	bad := 0
	var over float64
	for i, d := range demands {
		// Serve this interval with the capacity provisioned before it.
		cap := float64(nodes) * perNode
		if d > cap {
			bad++
		} else if d > 0 {
			over += (cap - d) / perNode
		}
		dec := p.Decide(Telemetry{At: time.Duration(i) * interval, Demand: d}, perNode)
		nodes = dec.Nodes
	}
	n := float64(len(demands))
	if n == 0 {
		return 0, 0, nil
	}
	return float64(bad) / n, over / n, nil
}

// RampTrace builds a demand trace that ramps up, plateaus and falls — the
// diurnal pattern provisioning papers use.
func RampTrace(peak float64, steps int) []float64 {
	out := make([]float64, steps)
	for i := range out {
		frac := float64(i) / float64(steps-1)
		switch {
		case frac < 0.4: // ramp
			out[i] = peak * frac / 0.4
		case frac < 0.7: // plateau
			out[i] = peak
		default: // fall
			out[i] = peak * (1 - (frac-0.7)/0.3)
		}
	}
	return out
}
