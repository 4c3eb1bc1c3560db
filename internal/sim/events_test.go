package sim

import (
	"strings"
	"testing"
	"time"
)

// captureSink is a trivial EventSink retaining every event.
type captureSink struct{ evs []Event }

func (s *captureSink) Emit(e Event) { s.evs = append(s.evs, e) }

func TestOpEmitsEvOp(t *testing.T) {
	cfg := DefaultConfig()
	c := NewClock()
	sink := &captureSink{}
	c.SetEvents(sink)

	op := cfg.Begin(c, "rdma.read")
	c.Advance(7 * time.Microsecond)
	op.End(4096)

	if len(sink.evs) != 1 {
		t.Fatalf("sink saw %d events, want 1", len(sink.evs))
	}
	e := sink.evs[0]
	if e.Kind != EvOp || e.Site != "rdma.read" || e.Dur != 7*time.Microsecond || e.Bytes != 4096 {
		t.Fatalf("event = %+v", e)
	}
	if e.T != c.Now() {
		t.Fatalf("event stamped at %v, clock at %v", e.T, c.Now())
	}
}

func TestBeginWithOnlyEventsStillObserves(t *testing.T) {
	// Neither stats nor trace attached: the events sink alone must keep
	// Begin from returning the inert zero Op.
	cfg := &Config{}
	c := NewClock()
	sink := &captureSink{}
	c.SetEvents(sink)
	op := cfg.Begin(c, "ssd.write")
	c.Advance(time.Microsecond)
	op.End(64)
	if len(sink.evs) != 1 || sink.evs[0].Site != "ssd.write" {
		t.Fatalf("events-only Begin did not emit: %+v", sink.evs)
	}
}

func TestEmitNilSafe(t *testing.T) {
	var c *Clock
	c.Emit(Event{Site: "a.b"}) // nil clock: no-op
	c2 := NewClock()
	c2.Emit(Event{Site: "a.b"}) // no sink: no-op
	if c2.Events() != nil {
		t.Fatalf("clock grew a sink")
	}
}

func TestEventKindAndString(t *testing.T) {
	kinds := map[EventKind]string{
		EvOp:          "op",
		EvFault:       "fault",
		EvRetry:       "retry",
		EvShed:        "shed",
		EvCheckpoint:  "ckpt",
		EventKind(99): "kind(99)",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("EventKind(%d).String() = %q, want %q", k, got, want)
		}
	}
	e := Event{T: 3 * time.Microsecond, Kind: EvOp, Site: "rdma.read", Dur: time.Microsecond, Bytes: 64}
	s := e.String()
	for _, want := range []string{"op", "rdma.read", "1µs", "64B"} {
		if !strings.Contains(s, want) {
			t.Errorf("Event.String() = %q missing %q", s, want)
		}
	}
	f := Event{Kind: EvFault, Site: "ssd.write", Note: "torn"}
	if !strings.Contains(f.String(), "torn") {
		t.Errorf("fault event string %q missing note", f.String())
	}
}
