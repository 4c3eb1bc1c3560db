package cxl

import (
	"bytes"
	"testing"

	"github.com/disagglab/disagg/internal/sim"
)

func TestDeviceLoadStoreRoundTrip(t *testing.T) {
	cfg := sim.DefaultConfig()
	d := NewDevice(cfg, 4096)
	c := sim.NewClock()
	data := []byte("cxl.mem type 3 expander")
	if err := d.Store(c, 100, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := d.Load(c, 100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip = %q", got)
	}
}

func TestRandomVsSequentialAccess(t *testing.T) {
	cfg := sim.DefaultConfig()
	d := NewDevice(cfg, 1<<20)
	buf := make([]byte, 64*1024)
	randC, seqC := sim.NewClock(), sim.NewClock()
	if err := d.Load(randC, 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := d.LoadSeq(seqC, 0, buf); err != nil {
		t.Fatal(err)
	}
	// 1024 lines: random pays 1024 bases; prefetch pays 1 base + bandwidth.
	if !(seqC.Now() < randC.Now()/10) {
		t.Fatalf("prefetched scan (%v) should be ≫10x faster than random (%v)", seqC.Now(), randC.Now())
	}
}

func TestCXLvsDRAMvsRDMALatency(t *testing.T) {
	// E18 (DirectCXL): CXL load ≈ 6x faster than RDMA read, a few x
	// slower than DRAM.
	cfg := sim.DefaultConfig()
	d := NewDevice(cfg, 4096)
	c := sim.NewClock()
	d.Load(c, 0, make([]byte, 64))
	cxlLat := c.Now()
	dram := cfg.DRAM.Cost(64)
	rdmaRead := cfg.RDMA.Cost(64)
	if !(dram < cxlLat && cxlLat < rdmaRead) {
		t.Fatalf("ordering violated: dram %v, cxl %v, rdma %v", dram, cxlLat, rdmaRead)
	}
	ratio := float64(rdmaRead) / float64(cxlLat)
	if ratio < 3 || ratio > 10 {
		t.Fatalf("rdma/cxl ratio = %.1f, want ~6", ratio)
	}
}

func TestTieredSpaceAllocSpill(t *testing.T) {
	cfg := sim.DefaultConfig()
	s := NewTieredSpace(cfg, 1024, 4096)
	a, ok := s.Alloc(TierLocal, 1000)
	if !ok || a.Tier != TierLocal {
		t.Fatalf("first alloc: %+v ok=%v", a, ok)
	}
	// Local full: spills to CXL.
	b, ok := s.Alloc(TierLocal, 1000)
	if !ok || b.Tier != TierCXL {
		t.Fatalf("spill alloc: %+v ok=%v", b, ok)
	}
	if s.LocalFree() != 24 {
		t.Fatalf("local free = %d", s.LocalFree())
	}
	// Exhaust both tiers.
	if _, ok := s.Alloc(TierCXL, 1<<20); ok {
		t.Fatal("oversize alloc should fail")
	}
}

func TestTieredRegionReadWrite(t *testing.T) {
	cfg := sim.DefaultConfig()
	s := NewTieredSpace(cfg, 1024, 4096)
	local, _ := s.Alloc(TierLocal, 512)
	remote, _ := s.Alloc(TierCXL, 512)

	data := []byte("tiered")
	for _, r := range []*Region{local, remote} {
		c := sim.NewClock()
		if err := r.Write(c, 8, data, false); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if err := r.Read(c, 8, got, true); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("tier %v round trip = %q", r.Tier, got)
		}
	}

	// CXL random reads must cost more than local reads.
	lc, cc := sim.NewClock(), sim.NewClock()
	buf := make([]byte, 256)
	local.Read(lc, 0, buf, false)
	remote.Read(cc, 0, buf, false)
	if !(lc.Now() < cc.Now()) {
		t.Fatalf("local (%v) should beat CXL (%v)", lc.Now(), cc.Now())
	}
}

func TestTierString(t *testing.T) {
	if TierLocal.String() != "local" || TierCXL.String() != "cxl" {
		t.Fatal("tier names wrong")
	}
}

func TestLinesRounding(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 64: 1, 65: 2, 128: 2, 129: 3}
	for n, want := range cases {
		if got := lines(n); got != want {
			t.Errorf("lines(%d) = %d, want %d", n, got, want)
		}
	}
}

// Close hands both tiers' memory back: a region on either tier reads as
// zeros afterwards.
func TestTieredSpaceCloseReleasesBothTiers(t *testing.T) {
	s := NewTieredSpace(sim.DefaultConfig(), 1024, 4096)
	local, _ := s.Alloc(TierLocal, 512)
	remote, _ := s.Alloc(TierCXL, 512)
	data := []byte("tiered")
	for _, r := range []*Region{local, remote} {
		if err := r.Write(sim.NewClock(), 8, data, false); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	for _, r := range []*Region{local, remote} {
		got := make([]byte, len(data))
		if err := r.Read(sim.NewClock(), 8, got, false); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, make([]byte, len(data))) {
			t.Errorf("tier %v still holds %q after Close", r.Tier, got)
		}
	}
}
