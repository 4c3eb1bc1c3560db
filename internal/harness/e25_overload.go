package harness

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/drill"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/sim/admission"
	"github.com/disagglab/disagg/internal/sim/fault"
)

func init() {
	register(Experiment{
		ID:      "E25",
		Aliases: []string{"E-overload"},
		Title:   "Overload control: admission gates, retry budgets, and breakers vs the retry storm",
		Claim:   `§3/§4: disaggregation multiplies the fan-in on shared substrate services (log stores, quorum volumes, raft groups), so a saturated fabric meter stretches every commit. Clients that retry slow or failed requests with zero delay amplify offered load exactly when capacity is scarcest — goodput (SLO-met commits) collapses, and a virtual-time partition becomes a livelock because failed attempts charge no time. Admission gates at the substrate, retry budgets, clock-charged backoff, and a circuit breaker convert the collapse into a flat graceful-degradation knee.`,
		Run:     runE25,
	})
}

const (
	e25KeyBase = 1 << 21
	e25HotKeys = 8
	// e25SLOMult sets the client deadline as a multiple of the engine's
	// calibrated uncontended per-op latency: past saturation the meter
	// penalty stretches attempts beyond the deadline. The admission gate's
	// watermark, admission.GateMaxUtil, is the same multiple.
	e25SLOMult = 4
	// e25Attempts is the client-side retry cap (attempts = 1 + retries).
	e25Attempts = 12
	e25Seed     = 73
)

// e25Controls bundles the shared overload-control state for one admitted
// cell: one budget/breaker/shedder per client fleet, as a service would
// deploy them.
type e25Controls struct {
	budget  *admission.Budget
	breaker *admission.Breaker
	shed    *admission.Shedder
	gate    *admission.Gate
}

func e25NewControls(cfg *sim.Config) *e25Controls {
	return &e25Controls{
		// 10% retry ratio: a storm cannot more than ~1.1x the offered load.
		budget:  admission.NewBudget(0.1, 8),
		breaker: admission.NewBreaker(8, 2*time.Millisecond),
		shed:    admission.NewShedder(2 * cfg.NICSlots),
		gate:    admission.NewGate(cfg),
	}
}

// e25Cell is one (engine, worker-count, policy) measurement.
type e25Cell struct {
	offered  int           // ops issued by clients
	good     int           // ops committed within SLO
	commits  int64         // engine-acknowledged commits (incl. late)
	attempts int64         // engine-side attempts (storm amplification)
	shed     int64         // engine-side shed (breaker/shedder refusals)
	meanLat  time.Duration // mean engine attempt latency
	makespan time.Duration
	lastGood time.Duration // virtual time the last SLO-met op completed
	goodput  float64       // SLO-met commits per virtual second
}

// amplification is engine attempts per offered client op.
func (c e25Cell) amplification() float64 {
	if c.offered == 0 {
		return 0
	}
	return float64(c.attempts) / float64(c.offered)
}

// e25Run drives workers x txns hot-key writes through one engine.
//
// The raw arm is the pre-admission client: any attempt that errors or
// overruns the SLO is retried immediately with zero virtual delay, up to
// the attempt cap. The admitted arm routes the same offered load through
// the overload-control layer: a substrate admission gate (cfg.Admission),
// the Run-level breaker and shedder, a shared retry budget, and jittered
// exponential backoff charged to the clock — including a full backoff
// pause when an op is abandoned, so a failing client stops offering load.
func e25Run(cfg *sim.Config, build drill.Builder, workers, txns int, slo time.Duration, admit bool) (e25Cell, *e25Controls) {
	layout := oltpLayout()
	var opts engine.RunOpts
	var ctl *e25Controls
	if admit {
		acfg := cfg.Clone()
		ctl = e25NewControls(acfg)
		acfg.Admission = ctl.gate
		cfg = acfg
		opts = engine.RunOpts{
			Retries: 2,
			Budget:  ctl.budget,
			Breaker: ctl.breaker,
			Shed:    ctl.shed,
		}
	}
	e := build(cfg, layout)
	var latSum, latN atomic.Int64
	lastGood := make([]time.Duration, workers)
	res := sim.RunGroup(workers, func(id int, c *sim.Clock) int {
		rng := sim.NewRand(e25Seed, id)
		good, consecFails := 0, 0
		for i := 0; i < txns; i++ {
			key := e25KeyBase + uint64(rng.Intn(e25HotKeys))
			v := make([]byte, layout.ValSize)
			binary.LittleEndian.PutUint64(v, uint64(id)<<32|uint64(i+1))
			fn := func(tx engine.Tx) error {
				if _, err := tx.Read(key); err != nil {
					return err
				}
				return tx.Write(key, v)
			}
			if admit {
				ctl.budget.Earn()
			}
			failed := true
			for try := 0; ; try++ {
				before := c.Now()
				err := engine.Run(e, c, opts, fn)
				d := c.Now() - before
				latSum.Add(int64(d))
				latN.Add(1)
				if err == nil && d <= slo {
					good++
					lastGood[id] = c.Now()
					failed = false
					break
				}
				if !admit {
					// Zero-delay retry: the client re-offers the failed or
					// late request instantly, amplifying load at saturation.
					if try >= e25Attempts {
						break
					}
					continue
				}
				if err == nil {
					// Late commit: the server already did the work — take
					// the SLO miss, don't re-offer it.
					failed = false
					break
				}
				if try >= e25Attempts || !ctl.budget.TrySpend() {
					break
				}
				admission.Wait(c, try)
			}
			if !admit {
				continue
			}
			if !failed {
				consecFails = 0
				continue
			}
			// Escalating client pacing: consecutive failed ops back off
			// exponentially, so a client that keeps being refused stops
			// offering load — and its clock rides out virtual-time fault
			// windows instead of burning the budget inside them. The
			// exponent clamp caps the per-op pace near half a millisecond:
			// enough to traverse a fault window in a handful of ops,
			// without a sustained-shed worker dominating the makespan.
			consecFails++
			esc := consecFails + 1
			if esc > 7 {
				esc = 7
			}
			admission.Wait(c, esc)
		}
		return good
	})
	st := e.Stats()
	cell := e25Cell{
		offered:  workers * txns,
		good:     res.TotalOps,
		commits:  st.Commits.Load(),
		attempts: st.Attempts.Load(),
		shed:     st.Shed.Load(),
		makespan: res.MakeSpan,
		lastGood: slices.Max(lastGood),
		goodput:  res.Throughput(),
	}
	if n := latN.Load(); n > 0 {
		cell.meanLat = time.Duration(latSum.Load() / n)
	}
	return cell, ctl
}

// e25Calibrate measures an engine's uncontended steady-state per-op
// latency: one worker, long enough that warmup-cheap early ops (cold
// meters) stop skewing the mean, measured over the second half.
func e25Calibrate(cfg *sim.Config, build drill.Builder, txns int) time.Duration {
	layout := oltpLayout()
	e := build(cfg.Clone(), layout)
	c := sim.NewClock()
	rng := sim.NewRand(e25Seed, 0)
	var half time.Duration
	for i := 0; i < txns; i++ {
		if i == txns/2 {
			half = c.Now()
		}
		key := e25KeyBase + uint64(rng.Intn(e25HotKeys))
		v := make([]byte, layout.ValSize)
		binary.LittleEndian.PutUint64(v, uint64(i+1))
		engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
			if _, err := tx.Read(key); err != nil {
				return err
			}
			return tx.Write(key, v)
		})
	}
	return (c.Now() - half) / time.Duration(txns-txns/2)
}

func runE25(cfg *sim.Config, s Scale) *Result {
	r := &Result{ID: "E25", Title: "Overload sweep: goodput collapse without admission control, knee with it"}
	sweep := pick(s, []int{16, 64, 256}, []int{8, 16, 32, 64, 128, 256})
	txns := pick(s, 8, 16)
	calibTxns := pick(s, 64, 128)
	wMax := sweep[len(sweep)-1]

	// Every engine is calibrated first; then the sweep's cells (raw and
	// admitted for each engine and worker count) and the chaos arm's (raw
	// and admitted for each fault profile on aurora) run side by side.
	// Each cell builds its own engine, gate and injector.
	//
	// Chaos arm: seeded fault profiles on the conformance suite's injector.
	// drop-storm loses half of all durable-append deliveries, so quorums
	// fail often and the raw client's zero-delay retries amplify offered
	// load. The partition profile blacks the fabric out for a virtual-time
	// window: a failed attempt inside it charges well under a microsecond,
	// so the raw client abandons every op it offers there, 13 attempts
	// each, and its clock never reaches the heal — it completes exactly the
	// ops it finished before the window opened. Backoff charges the clock,
	// so the admitted client rides the window out and lands ops after the
	// heal, and the breaker converts the unavailability burst into
	// fast-fails.
	engines := e24Engines()
	au := engines[0]
	nominal := make([]time.Duration, len(engines))
	cells(cfg, len(engines), func(i int, cfg *sim.Config) {
		nominal[i] = e25Calibrate(cfg, engines[i].build, calibTxns)
	})
	slo := func(i int) time.Duration { return time.Duration(e25SLOMult) * nominal[i] }
	chaosW := 16
	chaosTxns := pick(s, 96, 160)
	dropStorm := fault.Profile{Name: "drop-storm", Drop: 0.5, Sites: fault.AppendSites}
	profiles := []fault.Profile{dropStorm, fault.Profiles()[5]}
	type arm struct {
		cell e25Cell
		ctl  *e25Controls
	}
	swept := 2 * len(engines) * len(sweep)
	arms := make([]arm, swept+2*len(profiles)) // raw at even indexes, admitted at odd
	cells(cfg, len(arms), func(i int, cfg *sim.Config) {
		a, admit := &arms[i], i%2 == 1
		if i < swept {
			e := i / (2 * len(sweep))
			a.cell, a.ctl = e25Run(cfg, engines[e].build, sweep[i/2%len(sweep)], txns, slo(e), admit)
			return
		}
		fcfg := cfg.Clone()
		fcfg.Fault = fault.New(e25Seed, profiles[(i-swept)/2])
		a.cell, a.ctl = e25Run(fcfg, au.build, chaosW, chaosTxns, slo(0), admit)
	})

	for ei, eng := range engines {
		t := r.table(fmt.Sprintf("E25: %s — offered-load sweep, SLO = %d x %v steady-state = %v", eng.name, e25SLOMult, nominal[ei], slo(ei)),
			"workers", "raw goodput", "raw lat", "raw att/op", "adm goodput", "adm lat", "adm att/op", "gate shed", "fast-fail")
		var raw, adm []e25Cell
		for wi, w := range sweep {
			i := 2 * (ei*len(sweep) + wi)
			rc, ac, ctl := arms[i].cell, arms[i+1].cell, arms[i+1].ctl
			raw = append(raw, rc)
			adm = append(adm, ac)
			t.Row(w,
				fmt.Sprintf("%.0f", rc.goodput), rc.meanLat, fmt.Sprintf("%.1f", rc.amplification()),
				fmt.Sprintf("%.0f", ac.goodput), ac.meanLat, fmt.Sprintf("%.1f", ac.amplification()),
				ctl.gate.Stats().Shed, ac.shed)
		}
		last := len(sweep) - 1
		rawPeak, peakW := 0.0, sweep[0]
		for i, c := range raw {
			if c.goodput > rawPeak {
				rawPeak, peakW = c.goodput, sweep[i]
			}
		}
		r.check(fmt.Sprintf("%s: goodput collapses without admission control", eng.name),
			raw[last].goodput <= 0.5*rawPeak,
			"%.0f at %d workers vs peak %.0f at %d workers", raw[last].goodput, wMax, rawPeak, peakW)
		// The CI gate: past saturation (wMax is >=2x every engine's knee)
		// the admitted arm must hold at least 3x the raw arm's goodput.
		rawAtMax := raw[last].goodput
		if rawAtMax < 1 {
			rawAtMax = 1 // collapse to zero: any admitted goodput passes
		}
		r.check(fmt.Sprintf("%s: admission control holds >=3x goodput at 2x saturation", eng.name),
			adm[last].goodput >= 3*rawAtMax,
			"admitted %.0f vs raw %.0f at %d workers (%.1fx)",
			adm[last].goodput, raw[last].goodput, wMax, adm[last].goodput/rawAtMax)
		r.check(fmt.Sprintf("%s: retry budget caps storm amplification", eng.name),
			raw[last].amplification() >= 2*adm[last].amplification(),
			"raw %.1f vs admitted %.1f attempts/op at %d workers",
			raw[last].amplification(), adm[last].amplification(), wMax)
	}

	for pi, p := range profiles {
		t := r.table(fmt.Sprintf("E25: aurora under chaos profile %q (%d workers x %d ops)", p.Name, chaosW, chaosTxns),
			"policy", "SLO-met", "goodput", "commits", "att/op", "makespan", "trips", "fast-fails")
		i := swept + 2*pi
		rc, ac := arms[i].cell, arms[i+1].cell
		bs := arms[i+1].ctl.breaker.Stats()

		offered := chaosW * chaosTxns
		t.Row("raw", fmt.Sprintf("%d/%d", rc.good, offered), fmt.Sprintf("%.0f", rc.goodput),
			rc.commits, fmt.Sprintf("%.1f", rc.amplification()), rc.makespan, "-", "-")
		t.Row("admitted", fmt.Sprintf("%d/%d", ac.good, offered), fmt.Sprintf("%.0f", ac.goodput),
			ac.commits, fmt.Sprintf("%.1f", ac.amplification()), ac.makespan, bs.Trips, bs.FastFails)

		switch p.Name {
		case "drop-storm":
			r.check("drop-storm: retry budget caps fault-driven amplification",
				rc.amplification() >= 2*ac.amplification(),
				"raw %.1f vs admitted %.1f attempts/op", rc.amplification(), ac.amplification())
		case "partition":
			heal := p.Partitions[0].End
			r.check("partition: backoff rides the window out — admitted lands ops after the heal, raw none",
				ac.lastGood >= heal && rc.lastGood < heal && ac.good > rc.good,
				"admitted %d/%d SLO-met, the last at %v; raw %d/%d, the last at %v; heal at %v",
				ac.good, offered, ac.lastGood, rc.good, offered, rc.lastGood, heal)
			r.check("partition: breaker trips and fast-fails during the window",
				bs.Trips >= 1 && bs.FastFails > 0, "trips=%d fastFails=%d", bs.Trips, bs.FastFails)
			r.check("partition: raw client is livelocked inside the window",
				rc.makespan < heal && ac.makespan >= heal,
				"raw makespan %v never reaches the heal epoch at %v; admitted %v does",
				rc.makespan, heal, ac.makespan)
		}
	}

	r.note("admission gate: shed when a substrate meter reaches rho > %.0f with >= %.0f%% of ops queued; retry budget %.0f%%; breaker %d consecutive unavailables, %v cooldown",
		admission.GateMaxUtil, 100*admission.GateMinQueued, 10.0, 8, 2*time.Millisecond)
	r.note("goodput = commits meeting a %dx steady-state SLO per virtual second; late commits count as work, not goodput", e25SLOMult)
	r.traceOp(cfg, "txn.write-aurora", func(c *sim.Clock) {
		e := au.build(cfg, oltpLayout())
		engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
			return tx.Write(1, make([]byte, oltpLayout().ValSize))
		})
	})
	return r
}
