package admission

import "sync/atomic"

// Shedder sheds load at a queue-depth watermark: at most max requests may
// be in flight at once, and arrivals beyond that are rejected immediately
// instead of queueing. In the simulator "in flight" means concurrently
// executing worker goroutines — the same concurrency the contention
// meters see — so the watermark caps how many transactions can pile onto
// a hot resource before the rest are turned away at zero virtual cost.
//
// A nil *Shedder admits everything.
type Shedder struct {
	max int64 // the in-flight watermark

	inflight atomic.Int64
	admitted atomic.Int64
	shed     atomic.Int64
}

// NewShedder returns a shedder admitting at most max concurrent requests.
func NewShedder(max int) *Shedder {
	if max < 1 {
		max = 1
	}
	return &Shedder{max: int64(max)}
}

// TryEnter claims an in-flight slot, reporting false when the watermark
// is reached. Every true must be paired with exactly one Exit.
func (s *Shedder) TryEnter() bool {
	if s == nil {
		return true
	}
	if s.inflight.Add(1) > s.max {
		s.inflight.Add(-1)
		s.shed.Add(1)
		return false
	}
	s.admitted.Add(1)
	return true
}

// Exit releases a slot claimed by a successful TryEnter.
func (s *Shedder) Exit() {
	if s == nil {
		return
	}
	s.inflight.Add(-1)
}

// InFlight reports the current in-flight count.
func (s *Shedder) InFlight() int64 {
	if s == nil {
		return 0
	}
	return s.inflight.Load()
}

// ShedderStats is a counter snapshot of the shedder's activity.
type ShedderStats struct {
	Admitted int64
	Shed     int64
}

// Stats snapshots the shedder's counters.
func (s *Shedder) Stats() ShedderStats {
	if s == nil {
		return ShedderStats{}
	}
	return ShedderStats{Admitted: s.admitted.Load(), Shed: s.shed.Load()}
}
