package harness

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"github.com/disagglab/disagg/internal/autoscale"
	"github.com/disagglab/disagg/internal/cluster"
	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/aurora"
	"github.com/disagglab/disagg/internal/engine/polardb"
	"github.com/disagglab/disagg/internal/engine/sharednothing"
	"github.com/disagglab/disagg/internal/engine/socrates"
	"github.com/disagglab/disagg/internal/metrics"
	"github.com/disagglab/disagg/internal/sim"
)

func init() {
	register(Experiment{
		ID:      "E28",
		Aliases: []string{"E-elastic"},
		Title:   "Elastic compute fleet: scale-out holds the diurnal peak, failover loses nothing",
		Claim:   `§4: disaggregation makes compute stateless — a new node attaches to the shared log/volume, warms its cache through the coherence directory, and serves traffic, so a fleet can follow a diurnal demand ramp by provisioning nodes instead of over-provisioning for the peak. A fixed single node saturates at the plateau (latency stretches past any SLO and goodput collapses) while the autoscaled fleet holds p99; and because state lives in shared storage, killing a member mid-peak re-routes its keyspace to survivors without losing one acknowledged commit. The shared-nothing baseline scales through the same API but must physically move data — the elasticity tax of §1.`,
		Run:     runE28,
	})
}

const (
	e28KeyBase = 1 << 22
	// e28Peak is the diurnal peak demand in concurrent clients.
	e28Peak = 8
	// e28MaxNodes caps the autoscaled fleet.
	e28MaxNodes = 4
	// e28SLOMult sets the client deadline as a multiple of the calibrated
	// unloaded per-op fleet latency (compute charge included).
	e28SLOMult = 2
)

// e28Names are the shared-storage architectures under test.
var e28Names = []string{"aurora", "socrates", "polardb"}

// e28Spec builds one architecture's fleet spec: a root engine owning the
// substrate, peers attaching to the SAME log/volume and coherence
// directory, and a per-member compute charge so members are finite (the
// saturation a scale-out relieves).
func e28Spec(name string, cfg *sim.Config, compute time.Duration) cluster.Spec {
	layout := oltpLayout()
	switch name {
	case "aurora":
		var root *aurora.Engine
		return cluster.Spec{Name: name, ComputeCost: compute, New: func(id int) engine.Engine {
			if id == 0 {
				root = aurora.New(cfg, layout, 1024, 1)
				return root
			}
			return aurora.Peer(root, id, 1024)
		}}
	case "socrates":
		var root *socrates.Engine
		return cluster.Spec{Name: name, ComputeCost: compute, New: func(id int) engine.Engine {
			if id == 0 {
				root = socrates.New(cfg, layout, 1024, 2)
				root.SnapshotEvery = 0
				return root
			}
			return socrates.Peer(root, id, 1024)
		}}
	case "polardb":
		var root *polardb.Engine
		return cluster.Spec{Name: name, ComputeCost: compute, New: func(id int) engine.Engine {
			if id == 0 {
				root = polardb.New(cfg, layout, 1024)
				root.CheckpointEvery = 0
				return root
			}
			return polardb.Peer(root, id, 1024)
		}}
	}
	panic("unknown architecture " + name)
}

// e28Phase is one demand interval's measurement on one arm.
type e28Phase struct {
	demand   int
	nodes    int           // fleet size serving the phase
	good     int           // ops committed within SLO
	offered  int           // ops issued
	p99      time.Duration // per-op latency p99 within the phase
	dur      time.Duration // phase virtual duration (slowest worker)
	warmTime time.Duration // controller warm/attach work after the phase
}

func (p e28Phase) goodput() float64 {
	if p.dur <= 0 {
		return 0
	}
	return float64(p.good) / p.dur.Seconds()
}

// e28Key maps (client, op) to one of the client's 8 page-aligned hot keys.
// Keys are phase-independent, so caches stay warm across demand intervals
// and each key keeps a single logical writer for the whole trace.
func e28Key(id, i int) uint64 {
	return e28KeyBase + uint64(id*8+i%8)*128
}

// e28Ack records one acknowledged write for the failover audit.
type e28Ack struct {
	key uint64
	seq uint64
}

// e28RunArm drives the diurnal ramp through one fleet. When ctl is non-nil
// the controller ticks between phases (the autoscaled arm); otherwise the
// fleet stays at its initial size (the fixed arm). crashAt >= 0 fires the
// failover drill from worker 0 at that phase's midpoint. Each phase
// continues wall, where the previous phase ended, so the fleet's meters
// see one continuous timeline.
func e28RunArm(wall *sim.Clock, f *cluster.Fleet, ctl *cluster.Controller, demands []int, txns, valSize int, slo time.Duration, crashAt int) ([]e28Phase, []e28Ack, error) {
	phases := make([]e28Phase, 0, len(demands))
	var acks []e28Ack
	var ackMu sync.Mutex
	var crashErr error
	for pi, workers := range demands {
		if workers < 1 {
			workers = 1
		}
		hist := metrics.NewHist()
		met, span := runPhase(wall, workers, func(id int, c *sim.Clock) int {
			good := 0
			for i := 0; i < txns; i++ {
				if pi == crashAt && id == 0 && i == txns/2 {
					if err := f.Crash(c, 1); err != nil {
						crashErr = err
					}
				}
				// Page-aligned hot keys, 8 per client: the 128-value stride
				// puts every key on its own 8 KiB page, so two members never
				// share a page and the measurement isolates compute
				// saturation from cross-member page invalidation (which E27
				// measures on purpose).
				key := e28Key(id, i)
				v := make([]byte, valSize)
				seq := uint64(pi)<<32 | uint64(id)<<16 | uint64(i+1)
				binary.LittleEndian.PutUint64(v, seq)
				before := c.Now()
				err := f.Run(c, key, cluster.RunOpts{RunOpts: engine.RunOpts{Retries: 8}}, func(tx engine.Tx) error {
					return tx.Write(key, v)
				})
				d := c.Now() - before
				hist.Record(d)
				if err != nil {
					continue
				}
				ackMu.Lock()
				acks = append(acks, e28Ack{key, seq})
				ackMu.Unlock()
				if d <= slo {
					good++
				}
			}
			return good
		})
		ph := e28Phase{
			demand:  workers,
			nodes:   f.Size(),
			good:    met,
			offered: workers * txns,
			p99:     hist.Quantile(0.99),
			dur:     span,
		}
		if ctl != nil {
			ph.warmTime = ctl.Tick(wall).WarmTime
		}
		phases = append(phases, ph)
	}
	return phases, acks, crashErr
}

// e28Calibrate measures the unloaded per-op latency through a one-member
// fleet (no compute charge): the steady-state mean (second half of the
// run, after cold caches stop skewing it) and the warmed-up tail p99 the
// SLO is anchored to.
func e28Calibrate(name string, cfg *sim.Config, txns int) (mean, p99 time.Duration) {
	layout := oltpLayout()
	f := cluster.New(e28Spec(name, cfg, 0), sim.NewClock(), 1)
	c := sim.NewClock()
	hist := metrics.NewHist()
	var half time.Duration
	for i := 0; i < txns; i++ {
		if i == txns/2 {
			half = c.Now()
		}
		key := e28Key(0, i)
		v := make([]byte, layout.ValSize)
		binary.LittleEndian.PutUint64(v, uint64(i+1))
		before := c.Now()
		f.Run(c, key, cluster.RunOpts{RunOpts: engine.RunOpts{Retries: 8}}, func(tx engine.Tx) error {
			return tx.Write(key, v)
		})
		if i >= txns/2 {
			hist.Record(c.Now() - before)
		}
	}
	e28Retire(f)
	return (c.Now() - half) / time.Duration(txns-txns/2), hist.Quantile(0.99)
}

// e28Retire retires every member the fleet ever had, once its arm is done.
func e28Retire(f *cluster.Fleet) {
	for _, m := range f.Members() {
		retire(m.E)
	}
}

// e28Verify re-reads every acknowledged write through the fleet and
// reports how many are lost (unreadable or carrying an older sequence).
func e28Verify(c *sim.Clock, f *cluster.Fleet, acks []e28Ack) (lost int) {
	// Later acks overwrite earlier ones per key; audit the newest only.
	latest := make(map[uint64]uint64, len(acks))
	for _, a := range acks {
		if a.seq > latest[a.key] {
			latest[a.key] = a.seq
		}
	}
	for key, seq := range latest {
		var got []byte
		err := f.Run(c, key, cluster.RunOpts{RunOpts: engine.RunOpts{Retries: 8}}, func(tx engine.Tx) error {
			v, rerr := tx.Read(key)
			if rerr != nil {
				return rerr
			}
			got = v
			return nil
		})
		if err != nil || len(got) < 8 || binary.LittleEndian.Uint64(got) < seq {
			lost++
		}
	}
	return lost
}

func runE28(cfg *sim.Config, s Scale) *Result {
	r := &Result{ID: "E28", Title: "Elastic fleet vs fixed node on the diurnal ramp; mid-peak failover audit"}
	layout := oltpLayout()
	steps := pick(s, 10, 20)
	txns := pick(s, 24, 48)
	calibTxns := pick(s, 64, 128)

	// The demand trace: ramp to the peak, plateau, fall (client counts).
	trace := autoscale.RampTrace(e28Peak, steps)
	demands := make([]int, len(trace))
	for i, d := range trace {
		demands[i] = int(d + 0.5)
		if demands[i] < 1 {
			demands[i] = 1
		}
	}
	// peakAt indexes a plateau phase where the controller (which reacts a
	// phase late) has already provisioned for the full demand.
	peakAt := int(0.55 * float64(steps))

	for _, name := range e28Names {
		// Compute charge = 2x the calibrated substrate latency, making the
		// transaction compute-dominated: the processor-sharing stretch on a
		// saturated member then clears the SLO decisively, while a member
		// serving its fair share stays well inside it. The SLO anchors to
		// the unloaded p99 (not the mean): architectures with a heavy
		// substrate tail — raft appends, snapshot fetches — should not fail
		// the deadline on tail shape alone.
		nominal, tail := e28Calibrate(name, cfg, calibTxns)
		compute := 2 * nominal
		slo := time.Duration(e28SLOMult) * (tail + compute)

		// Fixed arm: one node for the whole trace.
		fixed := cluster.New(e28Spec(name, cfg, compute), sim.NewClock(), 1)
		fixedPh, _, _ := e28RunArm(sim.NewClock(), fixed, nil, demands, txns, layout.ValSize, slo, -1)
		e28Retire(fixed)

		// Autoscaled arm: reactive policy over live meters, fresh substrate.
		scaledF := cluster.New(e28Spec(name, cfg, compute), sim.NewClock(), 1)
		ctl := cluster.NewController(scaledF, autoscale.NewReactive())
		ctl.Max = e28MaxNodes
		scaledPh, _, _ := e28RunArm(sim.NewClock(), scaledF, ctl, demands, txns, layout.ValSize, slo, -1)

		t := r.table(fmt.Sprintf("E28: %s — diurnal ramp, SLO = %d x unloaded p99 %v, compute %v/op, max %d nodes",
			name, e28SLOMult, tail+compute, compute, e28MaxNodes),
			"phase", "demand", "fix nodes", "fix goodput", "fix p99", "elastic nodes", "elastic goodput", "elastic p99", "warm")
		for i := range fixedPh {
			fp, sp := fixedPh[i], scaledPh[i]
			t.Row(i, fp.demand,
				fp.nodes, fmt.Sprintf("%.0f", fp.goodput()), fp.p99,
				sp.nodes, fmt.Sprintf("%.0f", sp.goodput()), sp.p99, sp.warmTime)
		}

		fixPeak, scalePeak := fixedPh[peakAt], scaledPh[peakAt]
		fixGood := fixPeak.goodput()
		if fixGood < 1 {
			fixGood = 1 // total collapse: any elastic goodput passes
		}
		r.check(fmt.Sprintf("%s: elastic fleet holds >=2x fixed-node goodput at the peak", name),
			scalePeak.goodput() >= 2*fixGood,
			"elastic %.0f vs fixed %.0f SLO-met/s at demand %d (%.1fx)",
			scalePeak.goodput(), fixPeak.goodput(), fixPeak.demand, scalePeak.goodput()/fixGood)
		r.check(fmt.Sprintf("%s: elastic p99 stays within SLO at the peak; fixed node blows it", name),
			scalePeak.p99 <= slo && fixPeak.p99 > slo,
			"elastic p99 %v vs fixed p99 %v vs SLO %v", scalePeak.p99, fixPeak.p99, slo)
		// Size() after the final tick: phase rows record the size that
		// served each phase, so the post-trace scale-in shows up here.
		finalSize := scaledF.Size()
		r.check(fmt.Sprintf("%s: the fleet scales out for the peak and back in after it", name),
			scalePeak.nodes > 1 && finalSize < scalePeak.nodes,
			"peak %d nodes, %d after the final controller tick", scalePeak.nodes, finalSize)
		e28Retire(scaledF)

		// Failover arm: same ramp, crash member 1 mid-peak. Every
		// acknowledged commit must remain readable through the healed
		// router, and fleet accounting must conserve.
		crashF := cluster.New(e28Spec(name, cfg, compute), sim.NewClock(), 1)
		cctl := cluster.NewController(crashF, autoscale.NewReactive())
		cctl.Max = e28MaxNodes
		wall := sim.NewClock()
		crashPh, acks, crashErr := e28RunArm(wall, crashF, cctl, demands, txns, layout.ValSize, slo, peakAt)
		lost := e28Verify(wall, crashF, acks)
		tot := crashF.Totals()
		r.check(fmt.Sprintf("%s: mid-peak crash loses zero acked commits", name),
			crashErr == nil && lost == 0,
			"crash=%v, %d/%d acked writes lost; crash-phase p99 %v; survivors ended at %d nodes",
			crashErr, lost, len(acks), crashPh[peakAt].p99, crashF.Size())
		r.check(fmt.Sprintf("%s: fleet accounting conserves through failover", name),
			tot.Conserved(),
			"attempts %d = commits %d + aborts %d + shed %d", tot.Attempts, tot.Commits, tot.Aborts, tot.Shed)
		e28Retire(crashF)
	}

	// The shared-nothing contrast: same Fleet API, but elasticity must
	// physically re-partition — data moves, where shared storage moves none.
	var sn *sharednothing.Engine
	snSpec := cluster.Spec{
		Name: "shared-nothing",
		New: func(id int) engine.Engine {
			sn = sharednothing.New(cfg, layout, 1)
			return sn
		},
		Rescale: func(c *sim.Clock, n int) int64 { return sn.Rebalance(c, n) },
	}
	c := sim.NewClock()
	snF := cluster.New(snSpec, c, 1)
	for key := uint64(0); key < 256; key++ {
		v := make([]byte, layout.ValSize)
		snF.Run(c, key, cluster.RunOpts{RunOpts: engine.RunOpts{Retries: 8}}, func(tx engine.Tx) error {
			return tx.Write(key, v)
		})
	}
	before := c.Now()
	snF.ScaleTo(c, e28MaxNodes)
	outCost := c.Now() - before
	movedOut := sn.MovedBytes.Load()
	before = c.Now()
	snF.ScaleTo(c, 1)
	inCost := c.Now() - before
	t := r.table("E28: the elasticity tax — scaling 1 -> 4 -> 1 after 256 writes",
		"architecture", "data moved out", "scale-out cost", "data moved back", "scale-in cost")
	t.Row("shared-storage (aurora/socrates/polardb)", 0, "attach+warm only", 0, "detach only")
	t.Row("shared-nothing", movedOut, outCost, sn.MovedBytes.Load()-movedOut, inCost)
	r.check("shared-nothing pays the data-movement tax; shared storage moves nothing",
		movedOut > 0, "%d bytes moved scaling out", movedOut)

	r.note("demand trace: autoscale.RampTrace over %d phases, peak %d concurrent clients; %d single-key writes per client per phase", steps, e28Peak, txns)
	r.note("each member charges its calibrated-nominal compute per txn through its meter (processor sharing) — the finite resource a scale-out relieves; substrate legs bill their own meters as usual")
	r.note("the reactive controller samples live fleet meters (autoscale.MeterSource) between phases; member attach/warm recovery time is charged to the virtual clock and shown per phase")
	r.traceOp(cfg, "fleet.routed-write", func(c *sim.Clock) {
		v := make([]byte, layout.ValSize)
		if err := snF.Run(c, 7, cluster.RunOpts{RunOpts: engine.RunOpts{Retries: 8}}, func(tx engine.Tx) error {
			return tx.Write(7, v)
		}); err != nil {
			panic(err)
		}
	})
	return r
}
