package sim

import "time"

// Config holds the calibrated latency/bandwidth models for every hardware
// path in the simulated disaggregated data center. Defaults follow the
// numbers cited by the surveyed papers (see DESIGN.md §2); every experiment
// accepts a Config so sweeps can explore alternative hardware points.
type Config struct {
	// Local DRAM access (cacheline granularity).
	DRAM LatencyModel
	// CXL.mem load/store (cacheline granularity, Type 3 expander).
	CXL LatencyModel
	// Persistent memory (Optane-like): fast reads, low write bandwidth.
	PMRead  LatencyModel
	PMWrite LatencyModel
	// LocalPMSyscall is the legacy I/O-stack software overhead charged
	// when PM is accessed through a filesystem/syscall path rather than
	// mapped directly (Exadata observation, §2.3).
	LocalPMSyscall time.Duration
	// NVMe SSD block access.
	SSDRead  LatencyModel
	SSDWrite LatencyModel
	// Cloud object storage (S3/XStore-like): very high base latency,
	// decent streaming bandwidth.
	ObjGet LatencyModel
	ObjPut LatencyModel
	// RDMA one-sided verbs (READ/WRITE/CAS/FAA). CAS/FAA move 8 bytes.
	RDMA LatencyModel
	// RDMAPerWQE is the marginal cost of each additional work-queue entry
	// in a doorbell-batched submission: a PostN of n verbs costs one RDMA
	// base + the summed transfer terms + (n-1)·RDMAPerWQE, which is what
	// makes batched posting cheaper than n individual doorbells.
	RDMAPerWQE time.Duration
	// RDMARPC is a two-sided SEND/RECV round trip including completion
	// handling on both sides but excluding the remote handler's compute.
	// It costs one network round trip (slightly above a one-sided verb
	// due to receive-side processing) — which is why, per Kalia et al.
	// (§2.3), an RPC persist can beat a one-sided write + flushing read,
	// which costs two dependent round trips.
	RDMARPC LatencyModel
	// RemoteCPU is the per-request dispatch/handler overhead charged on
	// the target node's CPU meter for two-sided operations.
	RemoteCPU time.Duration
	// TCP is a kernel TCP/IP RPC round trip.
	TCP LatencyModel
	// CPU approximates compute cost for in-memory operator work
	// (scan/filter/hash): a small per-call overhead plus a per-byte term
	// corresponding to a few GB/s of processing rate per core.
	CPU LatencyModel
	// NICSlots and CPUSlots size the default contention meters created
	// for nodes (service parallelism of a NIC / a node's cores).
	NICSlots int
	CPUSlots int
	// Fault, when non-nil, is consulted by every simulated substrate
	// operation (RDMA verbs, device I/O, storage-node RPCs) and may
	// inject drops, latency spikes, duplicate deliveries, and torn
	// appends. See internal/sim/fault for the seeded implementation.
	Fault FaultInjector
	// Admission, when non-nil, is consulted by substrate choke points
	// (RDMA post/call, log-store appends, raft/volume quorum appends)
	// before any virtual time is charged; it may shed the operation based
	// on the resource meter's congestion signals. See internal/sim/admission.
	Admission Admitter
	// Stats, when non-nil, receives a per-site latency/byte observation
	// from every instrumented substrate operation (via Begin/Op.End), and
	// substrate constructors register their contention meters with it.
	Stats *Registry
	// Trace asks experiments to record a virtual-time span tree for one
	// representative operation (disagg-bench -trace). Substrates don't
	// read it; they trace whenever the worker's clock has a Trace
	// attached.
	Trace bool
	// At, when non-nil, is called with the worker's clock at every Point
	// a worker reaches (Reach). A test sets it before its workers start, to
	// hold one of them at a step.
	At func(c *Clock, pt Point)
}

// Register registers a counter source (a *Meter or a snapshot func, see
// Registry.Register) with the attached stats registry, if any.
func (c *Config) Register(site string, src any) {
	if c.Stats != nil {
		c.Stats.Register(site, src)
	}
}

// Point names a step where a test holds a worker while others run.
type Point uint8

const (
	PointDurable Point = iota // a commit's LSNs are reserved; Durable has not run
	PointApply                // a commit is decided and stamped; Apply has not run
	PointFlushed              // a checkpoint's flush covers its horizon, not yet published
	PointInsert               // a RACE insert has read its bucket; its CAS has not run
)

// Reach calls the At hook, if any, for the worker whose clock is clk at pt.
func (c *Config) Reach(clk *Clock, pt Point) {
	if c.At != nil {
		c.At(clk, pt)
	}
}

// DefaultConfig returns the calibration described in DESIGN.md:
//
//	DRAM 100ns/25GBps · CXL 350ns/16GBps · PM read 300ns / write 500ns@2GBps
//	RDMA 1-sided 2µs/12.5GBps · RDMA RPC 3µs (+0.5µs remote CPU)
//	TCP 30µs/5GBps · SSD read 80µs / write 20µs @3GBps · S3 get 8ms/200MBps
func DefaultConfig() *Config {
	return &Config{
		DRAM:           LatencyModel{Base: 100 * time.Nanosecond, BytesPerSec: 25 * GB},
		CXL:            LatencyModel{Base: 350 * time.Nanosecond, BytesPerSec: 16 * GB},
		PMRead:         LatencyModel{Base: 300 * time.Nanosecond, BytesPerSec: 6 * GB},
		PMWrite:        LatencyModel{Base: 500 * time.Nanosecond, BytesPerSec: 2 * GB},
		LocalPMSyscall: 10 * time.Microsecond,
		SSDRead:        LatencyModel{Base: 80 * time.Microsecond, BytesPerSec: 3 * GB},
		SSDWrite:       LatencyModel{Base: 20 * time.Microsecond, BytesPerSec: 3 * GB},
		ObjGet:         LatencyModel{Base: 8 * time.Millisecond, BytesPerSec: 200 * MB},
		ObjPut:         LatencyModel{Base: 12 * time.Millisecond, BytesPerSec: 200 * MB},
		RDMA:           LatencyModel{Base: 2 * time.Microsecond, BytesPerSec: 12.5 * GB},
		RDMAPerWQE:     100 * time.Nanosecond,
		RDMARPC:        LatencyModel{Base: 3 * time.Microsecond, BytesPerSec: 12.5 * GB},
		RemoteCPU:      500 * time.Nanosecond,
		TCP:            LatencyModel{Base: 30 * time.Microsecond, BytesPerSec: 5 * GB},
		CPU:            LatencyModel{Base: 50 * time.Nanosecond, BytesPerSec: 4 * GB},
		NICSlots:       16,
		CPUSlots:       8,
	}
}

// Clone returns a deep copy so sweeps can mutate one field at a time.
func (c *Config) Clone() *Config {
	cp := *c
	return &cp
}
