package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestTraceSpanNesting(t *testing.T) {
	cfg := DefaultConfig()
	tr := NewTrace("txn")
	c := NewClock()
	c.SetTrace(tr)

	outer := cfg.Begin(c, "volume.append")
	c.Advance(time.Microsecond)
	inner := cfg.Begin(c, "rdma.write")
	c.Advance(3 * time.Microsecond)
	inner.End(64)
	c.Advance(time.Microsecond)
	outer.End(128)

	root := tr.Root()
	if root == nil || root.Site != "volume.append" {
		t.Fatalf("root = %+v, want volume.append span", root)
	}
	if root.Duration() != 5*time.Microsecond || root.Bytes != 128 {
		t.Fatalf("root duration %v bytes %d, want 5µs/128", root.Duration(), root.Bytes)
	}
	if len(root.Children) != 1 {
		t.Fatalf("root has %d children, want 1", len(root.Children))
	}
	ch := root.Children[0]
	if ch.Site != "rdma.write" || ch.Duration() != 3*time.Microsecond || ch.Bytes != 64 {
		t.Fatalf("child = %+v", ch)
	}
	if ch.Start != time.Microsecond || ch.End != 4*time.Microsecond {
		t.Fatalf("child window [%v, %v), want [1µs, 4µs)", ch.Start, ch.End)
	}

	// After the outer span closes, the next operation is a sibling root,
	// not a child.
	next := cfg.Begin(c, "rdma.read")
	c.Advance(2 * time.Microsecond)
	next.End(0)
	if len(tr.Roots()) != 2 || tr.Roots()[1].Site != "rdma.read" {
		t.Fatalf("roots = %d, want a second top-level rdma.read span", len(tr.Roots()))
	}

	s := tr.String()
	for _, want := range []string{"trace txn", "volume.append  5µs  [128B]", "\n  rdma.write  3µs  [64B]"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered trace missing %q:\n%s", want, s)
		}
	}
}

func TestOpAttributesToRegistry(t *testing.T) {
	cfg := DefaultConfig()
	reg := NewRegistry()
	cfg.Stats = reg
	c := NewClock()

	op := cfg.Begin(c, "ssd.read")
	c.Advance(100 * time.Microsecond)
	op.End(4096)

	s := reg.Site("ssd.read")
	if s == nil {
		t.Fatal("no stats recorded for ssd.read")
	}
	if s.Hist.Count() != 1 || s.Bytes() != 4096 || s.Hist.Max() != 100*time.Microsecond {
		t.Fatalf("count=%d bytes=%d max=%v", s.Hist.Count(), s.Bytes(), s.Hist.Max())
	}
	if reg.Elapsed() != 100*time.Microsecond {
		t.Fatalf("elapsed = %v, want 100µs", reg.Elapsed())
	}
	if got := reg.Sites(); len(got) != 1 || got[0] != "ssd.read" {
		t.Fatalf("sites = %v", got)
	}
}

func TestBeginEndNilSafe(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Begin(nil, "x").End(0) // nil clock
	(Op{}).End(1)              // zero Op
	var nilCfg *Config
	nilCfg.Begin(NewClock(), "x").End(0)
	var nilReg *Registry
	nilReg.Observe("x", time.Second, 1, time.Second)
	nilReg.Register("x", NewMeter(1))
	if nilReg.Site("x") != nil || nilReg.Sites() != nil || nilReg.Elapsed() != 0 {
		t.Fatal("nil registry reads should be zero-valued")
	}
	_ = nilReg.Table("t").String()
	var nilTr *Trace
	if nilTr.Root() != nil || nilTr.Roots() != nil {
		t.Fatal("nil trace reads should be zero-valued")
	}
	var nilSp *Span
	if nilSp.Duration() != 0 {
		t.Fatal("nil span duration should be 0")
	}
}

func TestBeginEndDisabledZeroAlloc(t *testing.T) {
	cfg := DefaultConfig()
	c := NewClock()
	allocs := testing.AllocsPerRun(1000, func() {
		op := cfg.Begin(c, "rdma.read")
		c.Advance(time.Microsecond)
		op.End(64)
	})
	if allocs != 0 {
		t.Fatalf("disabled Begin/End allocates %.1f per op, want 0", allocs)
	}
}

func BenchmarkBeginEndDisabled(b *testing.B) {
	cfg := DefaultConfig()
	c := NewClock()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op := cfg.Begin(c, "rdma.read")
		op.End(64)
	}
}

func BenchmarkBeginEndWithStats(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Stats = NewRegistry()
	c := NewClock()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op := cfg.Begin(c, "rdma.read")
		c.Advance(time.Microsecond)
		op.End(64)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	cfg := DefaultConfig()
	reg := NewRegistry()
	cfg.Stats = reg
	m := NewMeter(2)
	cfg.Register("nic", m)

	sites := []string{"rdma.read", "rdma.write", "ssd.read"}
	const workers, ops = 8, 500
	RunGroup(workers, func(id int, c *Clock) int {
		site := sites[id%len(sites)]
		for i := 0; i < ops; i++ {
			op := cfg.Begin(c, site)
			m.Charge(c, time.Microsecond)
			op.End(64)
		}
		return ops
	})

	var total, bytes int64
	for _, s := range reg.Sites() {
		total += reg.Site(s).Hist.Count()
		bytes += reg.Site(s).Bytes()
	}
	if total != workers*ops || bytes != workers*ops*64 {
		t.Fatalf("recorded %d ops / %d bytes, want %d / %d", total, bytes, workers*ops, workers*ops*64)
	}
	out := reg.Table("race").String()
	for _, want := range append(sites, "nic") {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

// TestRegistryOneSourceList: sources of every kind go through the one
// Register, Snapshot finds a source by site AND kind (a directory and its
// publication batcher share a site), and Table still groups rows meters,
// batchers, coherence, gates, each group in registration order.
func TestRegistryOneSourceList(t *testing.T) {
	reg := NewRegistry()
	m1, m2 := NewMeter(1), NewMeter(1)
	m1.Charge(NewClock(), time.Microsecond)
	m2.Charge(NewClock(), time.Microsecond)
	reg.Register("gate.a", func() GateStats { return GateStats{Admitted: 3, Shed: 1} })
	reg.Register("x.coherence", func() CoherenceStats { return CoherenceStats{Publishes: 7} })
	reg.Register("meter.b", m2)
	reg.Register("x.coherence", func() BatcherStats { return BatcherStats{Flushes: 2, Items: 4} })
	reg.Register("meter.a", m1)
	reg.Register("batch.idle", func() BatcherStats { return BatcherStats{} })

	if got := Snapshot[CoherenceStats](reg, "x.coherence"); got.Publishes != 7 {
		t.Errorf("coherence snapshot = %+v, want Publishes 7", got)
	}
	if got := Snapshot[BatcherStats](reg, "x.coherence"); got.Flushes != 2 {
		t.Errorf("batcher snapshot under the shared site = %+v, want Flushes 2", got)
	}
	if got := Snapshot[GateStats](reg, "x.coherence"); got != (GateStats{}) {
		t.Errorf("gate snapshot under a site with no gate = %+v, want zero", got)
	}
	if got := Snapshot[GateStats](nil, "gate.a"); got != (GateStats{}) {
		t.Errorf("nil registry snapshot = %+v, want zero", got)
	}

	var sites []string
	for _, line := range strings.Split(reg.Table("t").String(), "\n")[3:] {
		if f := strings.Fields(line); len(f) > 0 {
			sites = append(sites, f[0])
		}
	}
	want := []string{"meter.b", "meter.a", "x.coherence", "x.coherence", "gate.a"}
	if !reflect.DeepEqual(sites, want) {
		t.Errorf("table rows %v, want %v (idle sources have no row)", sites, want)
	}
}

// TestRegistryFoldMatchesOneRegistry: observations split over child
// registries and folded give the sites, bytes, latest end and source rows
// one registry fed everything would, the sources in fold order.
func TestRegistryFoldMatchesOneRegistry(t *testing.T) {
	one, parent := NewRegistry(), NewRegistry()
	children := []*Registry{NewRegistry(), NewRegistry()}
	for i, child := range children {
		gate := func() GateStats { return GateStats{Admitted: int64(i + 1)} }
		for _, reg := range []*Registry{one, child} {
			reg.Observe("shared", time.Duration(i+1)*time.Microsecond, 100, time.Duration(10-i)*time.Millisecond)
			reg.Observe(fmt.Sprintf("own%d", i), time.Millisecond, 8, time.Millisecond)
			reg.Register(fmt.Sprintf("gate%d", i), gate)
		}
	}
	for _, child := range children {
		parent.Fold(child)
	}
	parent.Fold(nil)
	if got, want := parent.String(), one.String(); got != want {
		t.Fatalf("folded table\n%s\nwant\n%s", got, want)
	}
	if parent.Elapsed() != 10*time.Millisecond || parent.Site("shared").Hist.Max() != 2*time.Microsecond {
		t.Fatalf("elapsed %v, shared max %v; want 10ms and 2µs", parent.Elapsed(), parent.Site("shared").Hist.Max())
	}
}
