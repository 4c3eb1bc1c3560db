// Package cxl models Compute Express Link Type 3 memory expansion
// (CXL.mem): cache-coherent, cacheline-granular load/store at a latency a
// few times that of local DRAM but ~6x lower than RDMA (DirectCXL, §3.3).
//
// Two access disciplines are modeled, matching the two integration options
// discussed by Ahn et al. (§3.3): random access pays the per-line base
// latency on every line, while sequential access with hardware prefetching
// is bandwidth-bound — the reason TPC-C-style scans see virtually no
// slowdown while random-heavy analytics lose 7-27%.
package cxl

import (
	"time"

	"github.com/disagglab/disagg/internal/rdma"
	"github.com/disagglab/disagg/internal/sim"
)

// LineSize is the coherence granule.
const LineSize = 64

// Device is a CXL.mem expander holding real data.
type Device struct {
	cfg   *sim.Config
	mem   *rdma.Memory
	meter *sim.Meter
}

// NewDevice allocates a CXL memory expander of the given size.
func NewDevice(cfg *sim.Config, size int) *Device {
	d := &Device{cfg: cfg, mem: rdma.NewMemory(size), meter: sim.NewMeter(cfg.NICSlots)}
	cfg.Register("cxl", d.meter)
	return d
}

// Size reports usable bytes.
func (d *Device) Size() uint64 { return d.mem.Size() }

// Mem exposes the underlying word-atomic memory (coherent, so direct
// word ops are legal — unlike RDMA there is no NIC in the way).
func (d *Device) Mem() *rdma.Memory { return d.mem }

func lines(n int) int {
	if n <= 0 {
		return 1
	}
	return (n + LineSize - 1) / LineSize
}

// Load performs a random (pointer-chase style) read: every touched line
// pays the CXL base latency.
func (d *Device) Load(c *sim.Clock, addr uint64, p []byte) error {
	op := d.cfg.Begin(c, "cxl.load")
	nl := lines(len(p))
	d.meter.Charge(c, time.Duration(nl)*d.cfg.CXL.Base)
	op.End(int64(len(p)))
	return d.mem.Read(addr, p)
}

// LoadSeq performs a sequential prefetched read: one base latency, then
// bandwidth-bound streaming.
func (d *Device) LoadSeq(c *sim.Clock, addr uint64, p []byte) error {
	op := d.cfg.Begin(c, "cxl.load")
	d.meter.Charge(c, d.cfg.CXL.Cost(len(p)))
	op.End(int64(len(p)))
	return d.mem.Read(addr, p)
}

// Store performs a random write (per-line base latency).
func (d *Device) Store(c *sim.Clock, addr uint64, p []byte) error {
	op := d.cfg.Begin(c, "cxl.store")
	nl := lines(len(p))
	d.meter.Charge(c, time.Duration(nl)*d.cfg.CXL.Base)
	op.End(int64(len(p)))
	return d.mem.Write(addr, p)
}

// StoreSeq performs a sequential streaming write.
func (d *Device) StoreSeq(c *sim.Clock, addr uint64, p []byte) error {
	op := d.cfg.Begin(c, "cxl.store")
	d.meter.Charge(c, d.cfg.CXL.Cost(len(p)))
	op.End(int64(len(p)))
	return d.mem.Write(addr, p)
}

// Tier identifies where a tiered allocation landed.
type Tier int

// Memory tiers for tiered allocation.
const (
	TierLocal Tier = iota // host DRAM
	TierCXL               // CXL expander
)

func (t Tier) String() string {
	if t == TierLocal {
		return "local"
	}
	return "cxl"
}

// TieredSpace is a two-tier memory space: host DRAM plus a CXL expander,
// with explicit placement (the "database-managed" option of Ahn et al.).
// Allocations are bump-pointer; this is an arena for experiments, not a
// general allocator.
type TieredSpace struct {
	cfg       *sim.Config
	local     *rdma.Memory
	localUsed uint64
	cxl       *Device
	cxlUsed   uint64
	dramMeter *sim.Meter
}

// NewTieredSpace builds a space with the given per-tier capacities.
func NewTieredSpace(cfg *sim.Config, localSize, cxlSize int) *TieredSpace {
	return &TieredSpace{
		cfg:       cfg,
		local:     rdma.NewMemory(localSize),
		cxl:       NewDevice(cfg, cxlSize),
		dramMeter: sim.NewMeter(cfg.NICSlots),
	}
}

// Region is a tiered allocation.
type Region struct {
	Tier Tier
	Addr uint64
	Size int
	sp   *TieredSpace
}

// Alloc reserves size bytes on the requested tier, spilling to the other
// tier if the preferred one is full. It reports the tier actually used.
func (s *TieredSpace) Alloc(preferred Tier, size int) (*Region, bool) {
	try := func(t Tier) (*Region, bool) {
		switch t {
		case TierLocal:
			if s.localUsed+uint64(size) <= s.local.Size() {
				r := &Region{Tier: t, Addr: s.localUsed, Size: size, sp: s}
				s.localUsed += uint64(size)
				return r, true
			}
		case TierCXL:
			if s.cxlUsed+uint64(size) <= s.cxl.Size() {
				r := &Region{Tier: t, Addr: s.cxlUsed, Size: size, sp: s}
				s.cxlUsed += uint64(size)
				return r, true
			}
		}
		return nil, false
	}
	if r, ok := try(preferred); ok {
		return r, true
	}
	other := TierCXL
	if preferred == TierCXL {
		other = TierLocal
	}
	return try(other)
}

// LocalFree reports remaining host-DRAM bytes.
func (s *TieredSpace) LocalFree() uint64 { return s.local.Size() - s.localUsed }

// CXLFree reports remaining expander bytes.
func (s *TieredSpace) CXLFree() uint64 { return s.cxl.Size() - s.cxlUsed }

// Read reads from the region with the given access pattern.
func (r *Region) Read(c *sim.Clock, off uint64, p []byte, sequential bool) error {
	switch r.Tier {
	case TierLocal:
		op := r.sp.cfg.Begin(c, "dram.access")
		r.sp.dramMeter.Charge(c, r.sp.cfg.DRAM.Cost(len(p)))
		op.End(int64(len(p)))
		return r.sp.local.Read(r.Addr+off, p)
	default:
		if sequential {
			return r.sp.cxl.LoadSeq(c, r.Addr+off, p)
		}
		return r.sp.cxl.Load(c, r.Addr+off, p)
	}
}

// Write writes to the region with the given access pattern.
func (r *Region) Write(c *sim.Clock, off uint64, p []byte, sequential bool) error {
	switch r.Tier {
	case TierLocal:
		op := r.sp.cfg.Begin(c, "dram.access")
		r.sp.dramMeter.Charge(c, r.sp.cfg.DRAM.Cost(len(p)))
		op.End(int64(len(p)))
		return r.sp.local.Write(r.Addr+off, p)
	default:
		if sequential {
			return r.sp.cxl.StoreSeq(c, r.Addr+off, p)
		}
		return r.sp.cxl.Store(c, r.Addr+off, p)
	}
}
