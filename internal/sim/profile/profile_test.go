package profile

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/disagglab/disagg/internal/sim"
)

// buildTree runs a synthetic sequential transaction on one clock/trace and
// returns the root span: txn{ rdma.read, ssd.write{ dram.copy }, gap }.
func buildTree(t *testing.T) *sim.Span {
	t.Helper()
	c := sim.NewClock()
	c.SetTrace(sim.NewTrace("txn"))
	root := c.StartSpan("txn")
	c.Advance(10 * time.Microsecond) // residual compute

	sp := c.StartSpan("rdma.read")
	c.Advance(30 * time.Microsecond)
	c.FinishSpan(sp, 4096)

	sp = c.StartSpan("ssd.write")
	c.Advance(20 * time.Microsecond)
	ch := c.StartSpan("dram.copy")
	c.Advance(5 * time.Microsecond)
	c.FinishSpan(ch, 512)
	c.FinishSpan(sp, 8192)

	c.Advance(15 * time.Microsecond) // trailing residual
	c.FinishSpan(root, 0)
	return root
}

func TestAnalyzeConservation(t *testing.T) {
	root := buildTree(t)
	a := Analyze(root)
	if a.Total != 80*time.Microsecond {
		t.Fatalf("total = %v, want 80µs", a.Total)
	}
	if a.Sum() != a.Total {
		t.Fatalf("sum %v != total %v: attribution must conserve exactly", a.Sum(), a.Total)
	}
	want := map[string]time.Duration{
		"rdma":   30 * time.Microsecond,
		"device": 25 * time.Microsecond, // ssd self 20µs + dram child 5µs
		Residual: 25 * time.Microsecond, // 10µs leading + 15µs trailing
	}
	for comp, d := range want {
		if a.Comp[comp] != d {
			t.Errorf("comp[%s] = %v, want %v", comp, a.Comp[comp], d)
		}
	}
	if dom := a.Dominant(); dom != "rdma" {
		t.Errorf("dominant = %q, want rdma (ties broken alphabetically)", dom)
	}
}

func TestAnalyzeNilAndEmpty(t *testing.T) {
	a := Analyze(nil)
	if a.Total != 0 || a.Sum() != 0 {
		t.Fatalf("nil root: total %v sum %v, want 0", a.Total, a.Sum())
	}
	if a.Dominant() != "" {
		t.Fatalf("nil root dominant = %q, want empty", a.Dominant())
	}
	if a.Share("rdma") != 0 {
		t.Fatalf("zero-total share must be 0")
	}
}

func TestComponent(t *testing.T) {
	cases := map[string]string{
		"rdma.read":                 "rdma",
		"ssd.write":                 "device",
		"dram.copy":                 "device",
		"pm.flush":                  "device",
		"obj.get":                   "device",
		"cxl.load":                  "device",
		"logstore.append":           "storage",
		"replica.read":              "storage",
		"volume.write":              "storage",
		"ckpt.aurora.flush":         "checkpoint",
		"polardb.coherence.round":   "coherence",
		"raft.replicate":            "raft",
		"memnode.alloc":             "memnode",
		"tcp.prepare":               "tcp",
		"backoff":                   "backoff",
		"mystery.op":                "mystery", // unknown heads surface, not vanish
		"snowflake.coherence.fence": "coherence",
	}
	for site, want := range cases {
		if got := Component(site); got != want {
			t.Errorf("Component(%q) = %q, want %q", site, got, want)
		}
	}
}

func TestLintSite(t *testing.T) {
	for _, good := range []string{
		"rdma.read", "ssd.write", "logstore.append", "ckpt.aurora.truncate",
		"tcp.rpc", "backoff", "polardb.coherence.round", "memnode.alloc",
	} {
		if err := LintSite(good); err != nil {
			t.Errorf("LintSite(%q) = %v, want nil", good, err)
		}
	}
	for _, bad := range []string{
		"",           // empty
		"rdma",       // single segment, not backoff
		"RDMA.read",  // uppercase
		"rdma..read", // empty segment
		"rdma.re ad", // space
		"mystery.op", // unknown component
	} {
		if err := LintSite(bad); err == nil {
			t.Errorf("LintSite(%q) = nil, want error", bad)
		}
	}
}

func TestKnownComponentsSortedAndClosed(t *testing.T) {
	ks := KnownComponents()
	for i := 1; i < len(ks); i++ {
		if ks[i-1] >= ks[i] {
			t.Fatalf("KnownComponents not sorted/unique at %q >= %q", ks[i-1], ks[i])
		}
	}
	found := false
	for _, k := range ks {
		if k == Residual {
			found = true
		}
	}
	if !found {
		t.Fatalf("KnownComponents must include %q", Residual)
	}
}

func TestReservoirOrderingAndBounds(t *testing.T) {
	r := NewReservoir(3)
	durs := []time.Duration{5, 1, 9, 3, 7, 9, 2} // µs-scale, values only matter relatively
	for i, d := range durs {
		r.Offer(Exemplar{Seq: int64(i + 1), Start: time.Duration(i), Dur: d})
	}
	xs := r.Exemplars()
	if len(xs) != 3 {
		t.Fatalf("retained %d, want 3", len(xs))
	}
	// Slowest first: 9 (seq 3, start 2), 9 (seq 6, start 5), 7 (seq 5).
	if xs[0].Dur != 9 || xs[1].Dur != 9 || xs[2].Dur != 7 {
		t.Fatalf("durations %v %v %v, want 9 9 7", xs[0].Dur, xs[1].Dur, xs[2].Dur)
	}
	if xs[0].Seq != 3 || xs[1].Seq != 6 {
		t.Fatalf("tie broken by start/seq: got seqs %d %d, want 3 6", xs[0].Seq, xs[1].Seq)
	}
	// A fast offer must not displace anything.
	r.Offer(Exemplar{Seq: 99, Dur: 1})
	if got := r.Exemplars(); got[2].Dur != 7 {
		t.Fatalf("fast offer displaced the k-th slowest")
	}
	// k <= 0 keeps none.
	empty := NewReservoir(0)
	empty.Offer(Exemplar{Seq: 1, Dur: 100})
	if empty.Len() != 0 {
		t.Fatalf("k=0 reservoir retained %d", empty.Len())
	}
}

func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(3)
	for i := 0; i < 5; i++ {
		f.Emit(sim.Event{T: time.Duration(i), Kind: sim.EvOp, Site: "rdma.read"})
	}
	if f.Total() != 5 || f.Cap() != 3 {
		t.Fatalf("total %d cap %d, want 5 3", f.Total(), f.Cap())
	}
	evs := f.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d, want 3", len(evs))
	}
	for i, e := range evs {
		if e.T != time.Duration(i+2) {
			t.Fatalf("event %d at T=%v, want %v (oldest-first after wrap)", i, e.T, time.Duration(i+2))
		}
	}
	if !strings.Contains(f.String(), "3 retained of 5 total") {
		t.Fatalf("String() = %q", f.String())
	}
	// Below-minimum capacity clamps to 1.
	one := NewFlightRecorder(0)
	one.Emit(sim.Event{Site: "a.b"})
	one.Emit(sim.Event{Site: "c.d"})
	if got := one.Events(); len(got) != 1 || got[0].Site != "c.d" {
		t.Fatalf("cap-1 ring kept %v", got)
	}
}

func TestBlackboxDump(t *testing.T) {
	b := NewBlackbox()
	r1 := b.Recorder("worker 0", 4)
	r2 := b.Recorder("worker 1", 4)
	r1.Emit(sim.Event{Kind: sim.EvFault, Site: "ssd.write", Note: "torn"})
	r2.Emit(sim.Event{Kind: sim.EvRetry, Site: "txn", Note: "conflict"})
	if b.Size() != 2 {
		t.Fatalf("size %d, want 2", b.Size())
	}
	d := b.Dump()
	for _, want := range []string{"--- worker 0 ---", "--- worker 1 ---", "torn", "conflict"} {
		if !strings.Contains(d, want) {
			t.Errorf("dump missing %q:\n%s", want, d)
		}
	}
}

func TestSLOTrackerBurnMath(t *testing.T) {
	s := SLO{Target: 100 * time.Microsecond, Objective: 0.9, Window: time.Millisecond}
	tr := NewSLOTracker(s)
	// 10 observations in the window: 8 good, 1 slow, 1 failed.
	now := 500 * time.Microsecond
	for i := 0; i < 8; i++ {
		tr.Observe(now, 50*time.Microsecond, true)
	}
	tr.Observe(now, 200*time.Microsecond, true) // slow
	tr.Observe(now, 50*time.Microsecond, false) // failed
	st := tr.Snapshot(time.Millisecond)
	if st.Good != 8 || st.Bad != 2 {
		t.Fatalf("good %d bad %d, want 8 2", st.Good, st.Bad)
	}
	if st.ErrFrac != 0.2 {
		t.Fatalf("errfrac %v, want 0.2", st.ErrFrac)
	}
	// Budget is 1-0.9 = 0.1; errfrac 0.2 burns at 2x.
	if st.Burn < 1.99 || st.Burn > 2.01 {
		t.Fatalf("burn %v, want 2.0", st.Burn)
	}
	// A window far past the observations sees nothing: burn 0.
	if later := tr.Snapshot(10 * time.Millisecond); later.Burn != 0 || later.Good != 0 {
		t.Fatalf("stale window: %+v, want empty", later)
	}
}

func TestSLOTrackerWindowSlidesAndPrunes(t *testing.T) {
	s := SLO{Target: time.Microsecond, Objective: 0.5, Window: 800 * time.Nanosecond}
	tr := NewSLOTracker(s) // gran 100ns
	for i := 0; i < 100; i++ {
		tr.Observe(time.Duration(i)*100*time.Nanosecond, time.Nanosecond, true)
	}
	tr.mu.Lock()
	n := len(tr.buckets)
	tr.mu.Unlock()
	if n > 2*sloBuckets+1 {
		t.Fatalf("bucket map grew to %d, want bounded by ~2 windows (%d)", n, 2*sloBuckets+1)
	}
	st := tr.Snapshot(100 * 100 * time.Nanosecond)
	if st.Good == 0 {
		t.Fatalf("window ending at the last observation saw nothing")
	}
}

func TestSLOTrackerRejectsInvalid(t *testing.T) {
	for _, s := range []SLO{
		{Target: 0, Objective: 0.9, Window: time.Millisecond},
		{Target: time.Microsecond, Objective: 0, Window: time.Millisecond},
		{Target: time.Microsecond, Objective: 1, Window: time.Millisecond},
		{Target: time.Microsecond, Objective: 0.9, Window: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSLOTracker(%+v) did not panic", s)
				}
			}()
			NewSLOTracker(s)
		}()
	}
}

func TestProfilerEndToEnd(t *testing.T) {
	p := NewProfiler("test", 2)
	c := sim.NewClock()
	prev := sim.NewTrace("outer")
	c.SetTrace(prev)

	run := func(work time.Duration, fail bool) {
		tx := p.Begin(c)
		sp := c.StartSpan("rdma.write")
		c.Advance(work)
		c.FinishSpan(sp, 128)
		c.Advance(work / 4) // residual
		var err error
		if fail {
			err = errors.New("boom")
		}
		tx.End(err)
	}
	run(40*time.Microsecond, false)
	run(80*time.Microsecond, true)
	run(20*time.Microsecond, false)

	if c.Trace() != prev {
		t.Fatalf("profiler did not restore the previous trace")
	}
	if p.Txns() != 3 {
		t.Fatalf("txns %d, want 3", p.Txns())
	}
	a := p.Attribution()
	if a.Sum() != a.Total {
		t.Fatalf("aggregate sum %v != total %v", a.Sum(), a.Total)
	}
	if a.Comp["rdma"] != 140*time.Microsecond {
		t.Fatalf("rdma %v, want 140µs", a.Comp["rdma"])
	}
	xs := p.Exemplars()
	if len(xs) != 2 || xs[0].Dur != 100*time.Microsecond || xs[0].Err != "boom" {
		t.Fatalf("exemplars %+v, want slowest (100µs, boom) first", xs)
	}
	if p.Hist().Max() != 100*time.Microsecond {
		t.Fatalf("hist max %v", p.Hist().Max())
	}
}

func TestProfilerSLOIntegration(t *testing.T) {
	p := NewProfiler("test", 1)
	p.SetSLO(SLO{Target: 10 * time.Microsecond, Objective: 0.9, Window: time.Millisecond})
	c := sim.NewClock()
	tx := p.Begin(c)
	c.Advance(50 * time.Microsecond) // exceeds target
	tx.End(nil)
	st := p.SLO().Snapshot(c.Now())
	if st.Bad != 1 || st.Good != 0 {
		t.Fatalf("slo saw good %d bad %d, want 0 1", st.Good, st.Bad)
	}
}

func TestNilProfilerInertAndAllocFree(t *testing.T) {
	var p *Profiler
	c := sim.NewClock()
	tx := p.Begin(c)
	tx.End(nil) // must not panic
	if p.Txns() != 0 {
		t.Fatalf("nil profiler counted a txn")
	}
	allocs := testing.AllocsPerRun(100, func() {
		t := p.Begin(c)
		t.End(nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled profile path allocates %v per txn, want 0", allocs)
	}
}
