package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// counters is one reading of the host clock: wall time, process CPU split
// into user and kernel, and the allocator's running totals. Two readings
// bracket a timed section.
type counters struct {
	wall    time.Time
	utimeNs int64
	stimeNs int64
	bytes   uint64
	mallocs uint64
}

// rusage reads the process's resource usage.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func utimeNs() int64 { ru := rusage(); return ru.Utime.Nano() }

func readCounters() counters {
	ru := rusage()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{
		wall:    time.Now(),
		utimeNs: ru.Utime.Nano(),
		stimeNs: ru.Stime.Nano(),
		bytes:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
	}
}

// cost is the host price of one timed section.
type cost struct {
	ops     int64
	wallNs  int64
	utimeNs int64
	stimeNs int64
	bytes   uint64
	mallocs uint64
}

func (a counters) until(b counters, ops int64) cost {
	return cost{
		ops:     ops,
		wallNs:  b.wall.Sub(a.wall).Nanoseconds(),
		utimeNs: b.utimeNs - a.utimeNs,
		stimeNs: b.stimeNs - a.stimeNs,
		bytes:   b.bytes - a.bytes,
		mallocs: b.mallocs - a.mallocs,
	}
}

func (c *cost) add(o cost) {
	c.ops += o.ops
	c.wallNs += o.wallNs
	c.utimeNs += o.utimeNs
	c.stimeNs += o.stimeNs
	c.bytes += o.bytes
	c.mallocs += o.mallocs
}

func (c cost) opsPerSec() float64  { return float64(c.ops) / (float64(c.wallNs) / 1e9) }
func (c cost) cpuUsPerOp() float64 { return float64(c.utimeNs) / 1e3 / float64(c.ops) }
func (c cost) kbPerOp() float64    { return float64(c.bytes) / 1024 / float64(c.ops) }
func (c cost) allocsPerOp() float64 {
	return float64(c.mallocs) / float64(c.ops)
}

// peakRSSMB reports the process's high-water resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// gcAndTotalCPUSeconds reads the runtime's own CPU accounting; the deltas
// over a section give the share of CPU the collector took.
func gcAndTotalCPUSeconds() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics (the "inclusive" method); vs need not be sorted.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// geomean is the geometric mean of the positive entries of vs, so one slow
// architecture cannot own a cross-engine number.
func geomean(vs []float64) float64 {
	var sum float64
	var n int
	for _, v := range vs {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}
