package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
	c.Advance(5 * time.Microsecond)
	c.Advance(3 * time.Microsecond)
	if got := c.Now(); got != 8*time.Microsecond {
		t.Fatalf("Now() = %v, want 8µs", got)
	}
}

func TestClockIgnoresNegativeAdvance(t *testing.T) {
	c := NewClock()
	c.Advance(time.Microsecond)
	c.Advance(-time.Millisecond)
	if got := c.Now(); got != time.Microsecond {
		t.Fatalf("Now() = %v, want 1µs", got)
	}
}

func TestClockAdvanceTo(t *testing.T) {
	c := NewClock()
	c.Advance(10 * time.Microsecond)
	c.AdvanceTo(5 * time.Microsecond) // earlier: no-op
	if got := c.Now(); got != 10*time.Microsecond {
		t.Fatalf("AdvanceTo moved clock backwards: %v", got)
	}
	c.AdvanceTo(20 * time.Microsecond)
	if got := c.Now(); got != 20*time.Microsecond {
		t.Fatalf("AdvanceTo = %v, want 20µs", got)
	}
}

func TestClockReset(t *testing.T) {
	c := NewClock()
	c.Advance(time.Second)
	c.Reset()
	if c.Now() != 0 {
		t.Fatalf("Reset left clock at %v", c.Now())
	}
}

func TestLatencyModelBaseOnly(t *testing.T) {
	m := LatencyModel{Base: time.Microsecond}
	if got := m.Cost(1 << 20); got != time.Microsecond {
		t.Fatalf("infinite-bandwidth cost = %v, want 1µs", got)
	}
}

func TestLatencyModelBandwidth(t *testing.T) {
	m := LatencyModel{Base: time.Microsecond, BytesPerSec: 1 * GB}
	got := m.Cost(1000) // 1000B at 1GB/s = 1µs transfer
	want := 2 * time.Microsecond
	if got != want {
		t.Fatalf("Cost(1000) = %v, want %v", got, want)
	}
}

func TestLatencyModelZeroBytes(t *testing.T) {
	m := LatencyModel{Base: 5 * time.Microsecond, BytesPerSec: 1 * GB}
	if got := m.Cost(0); got != 5*time.Microsecond {
		t.Fatalf("Cost(0) = %v, want base", got)
	}
}

func TestLatencyCostMonotone(t *testing.T) {
	m := LatencyModel{Base: time.Microsecond, BytesPerSec: 10 * GB}
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return m.Cost(x) <= m.Cost(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeterUncontendedChargesExact(t *testing.T) {
	m := NewMeter(4)
	c := NewClock()
	d := m.Charge(c, 10*time.Microsecond)
	if d != 10*time.Microsecond || c.Now() != 10*time.Microsecond {
		t.Fatalf("uncontended charge = %v clock %v", d, c.Now())
	}
	if m.QueuedFraction() != 0 {
		t.Fatalf("queued fraction = %v, want 0", m.QueuedFraction())
	}
}

func TestMeterPenaltyUnderContention(t *testing.T) {
	m := NewMeter(1)
	// Simulate prior demand: another worker consumed 40µs of this
	// resource while our worker's clock shows only ~10µs of elapsed time.
	m.busy.Add(int64(40 * time.Microsecond))
	c := NewClock()
	d := m.Charge(c, 10*time.Microsecond)
	if d <= 10*time.Microsecond {
		t.Fatalf("contended charge %v not inflated", d)
	}
	if m.QueuedFraction() == 0 {
		t.Fatal("queueing not recorded")
	}
}

func TestMeterPenaltyCapped(t *testing.T) {
	m := NewMeter(1)
	m.busy.Add(int64(time.Hour))
	c := NewClock()
	d := m.Charge(c, time.Microsecond)
	if d > 16*time.Microsecond {
		t.Fatalf("penalty exceeded cap: %v", d)
	}
}

func TestMeterZeroDurationFree(t *testing.T) {
	m := NewMeter(1)
	c := NewClock()
	if d := m.Charge(c, 0); d != 0 || c.Now() != 0 {
		t.Fatal("zero-duration charge should be free")
	}
}

func TestMeterCapacityFloor(t *testing.T) {
	if got := NewMeter(0).Capacity(); got != 1 {
		t.Fatalf("capacity floor = %d, want 1", got)
	}
}

func TestMeterProcessorSharing(t *testing.T) {
	// 8 workers sharing a 2-slot resource must each run ~4x slower than
	// a lone worker.
	work := func(m *Meter) GroupResult {
		return GroupResult{}
	}
	_ = work
	solo := RunGroup(1, func(id int, c *Clock) int {
		m := NewMeter(2)
		for i := 0; i < 1000; i++ {
			m.Charge(c, time.Microsecond)
		}
		return 1000
	})
	shared := NewMeter(2)
	crowd := RunGroup(8, func(id int, c *Clock) int {
		for i := 0; i < 1000; i++ {
			shared.Charge(c, time.Microsecond)
		}
		return 1000
	})
	if crowd.TotalOps != 8000 {
		t.Fatalf("ops = %d, want 8000", crowd.TotalOps)
	}
	ratio := float64(crowd.MeanLatency()) / float64(solo.MeanLatency())
	if ratio < 2 || ratio > 8 {
		t.Fatalf("processor-sharing slowdown = %.2fx, want ~4x", ratio)
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a := NewRand(42, 3)
	b := NewRand(42, 3)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same (seed,id) produced different streams")
		}
	}
	cStream := NewRand(42, 4)
	same := true
	a = NewRand(42, 3)
	for i := 0; i < 10; i++ {
		if a.Int63() != cStream.Int63() {
			same = false
		}
	}
	if same {
		t.Fatal("different worker ids produced identical streams")
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRand(1, 0)
	z := NewZipf(r, 1.2, 1000)
	counts := make(map[uint64]int)
	const draws = 50_000
	for i := 0; i < draws; i++ {
		k := z.Next()
		if k >= 1000 {
			t.Fatalf("zipf draw %d out of range", k)
		}
		counts[k]++
	}
	if counts[0] < draws/10 {
		t.Fatalf("hottest key drawn only %d/%d times; zipf not skewed", counts[0], draws)
	}
}

func TestZipfSnapsLowTheta(t *testing.T) {
	r := NewRand(1, 0)
	z := NewZipf(r, 0.5, 10) // must not panic despite theta <= 1
	for i := 0; i < 100; i++ {
		if z.Next() >= 10 {
			t.Fatal("out of range")
		}
	}
}

func TestKeyChooserUniformCoverage(t *testing.T) {
	kc := NewKeyChooser(NewRand(7, 0), 0, 16)
	seen := make(map[uint64]bool)
	for i := 0; i < 2000; i++ {
		seen[kc.Next()] = true
	}
	if len(seen) != 16 {
		t.Fatalf("uniform chooser covered %d/16 keys", len(seen))
	}
}

func TestRunGroupAggregation(t *testing.T) {
	res := RunGroup(4, func(id int, c *Clock) int {
		c.Advance(time.Duration(id+1) * time.Millisecond)
		return 10
	})
	if res.TotalOps != 40 {
		t.Fatalf("TotalOps = %d", res.TotalOps)
	}
	if res.MakeSpan != 4*time.Millisecond {
		t.Fatalf("MakeSpan = %v, want 4ms", res.MakeSpan)
	}
	wantSum := 10 * time.Millisecond
	if res.SumTime != wantSum {
		t.Fatalf("SumTime = %v, want %v", res.SumTime, wantSum)
	}
	if th := res.Throughput(); th < 9999 || th > 10001 {
		t.Fatalf("Throughput = %v, want ~10000 ops/s", th)
	}
}

func TestGroupResultEmptySafe(t *testing.T) {
	var g GroupResult
	if g.Throughput() != 0 || g.MeanLatency() != 0 {
		t.Fatal("empty result not zero-safe")
	}
}

func TestDefaultConfigOrdering(t *testing.T) {
	cfg := DefaultConfig()
	// The survey's central hardware hierarchy must hold in the defaults:
	// DRAM < CXL < RDMA < TCP < SSD-ish, PM read < PM write.
	if !(cfg.DRAM.Base < cfg.CXL.Base) {
		t.Fatal("DRAM should be faster than CXL")
	}
	if !(cfg.CXL.Base < cfg.RDMA.Base) {
		t.Fatal("CXL should be faster than RDMA")
	}
	if !(cfg.RDMA.Base < cfg.TCP.Base) {
		t.Fatal("RDMA should be faster than TCP")
	}
	if !(cfg.TCP.Base < cfg.SSDRead.Base) {
		t.Fatal("network RPC should be faster than SSD access")
	}
	if !(cfg.PMRead.Base < cfg.PMWrite.Base) {
		t.Fatal("PM reads should be faster than persisted writes")
	}
	// DirectCXL's ~6x latency claim should be representable.
	ratio := float64(cfg.RDMA.Base) / float64(cfg.CXL.Base)
	if ratio < 4 || ratio > 9 {
		t.Fatalf("RDMA/CXL latency ratio = %.1f, want around 6", ratio)
	}
}

func TestConfigClone(t *testing.T) {
	a := DefaultConfig()
	b := a.Clone()
	b.RDMA.Base = 0
	if a.RDMA.Base == 0 {
		t.Fatal("Clone aliases underlying config")
	}
}
