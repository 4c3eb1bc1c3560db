package sim

import "time"

// LatencyModel is a linear cost model: a fixed per-operation base latency
// plus a size-proportional transfer term.
type LatencyModel struct {
	// Base is charged once per operation regardless of size.
	Base time.Duration
	// BytesPerSec is the streaming bandwidth. Zero means infinite
	// bandwidth (only Base is charged).
	BytesPerSec float64
}

// Cost returns the modeled latency of moving n bytes under this model.
func (m LatencyModel) Cost(n int) time.Duration {
	d := m.Base
	if m.BytesPerSec > 0 && n > 0 {
		d += time.Duration(float64(n) / m.BytesPerSec * float64(time.Second))
	}
	return d
}

// Common bandwidth constants, in bytes per second.
const (
	GB = 1e9
	MB = 1e6
)
