package admission

import (
	"errors"
	"testing"
	"time"

	"github.com/disagglab/disagg/internal/sim"
)

func TestBackoffGrowsAndCaps(t *testing.T) {
	nominal := backoffBase
	for attempt := 0; attempt < 12; attempt++ {
		d := Delay(time.Millisecond, attempt)
		if d < nominal/2 || d >= nominal {
			t.Fatalf("attempt %d: delay %v outside jitter range [%v, %v)", attempt, d, nominal/2, nominal)
		}
		nominal = min(2*nominal, backoffCap)
	}
	if d := Delay(time.Millisecond, 1000); d >= backoffCap {
		t.Fatalf("attempt 1000: delay %v not below cap %v", d, backoffCap)
	}
}

func TestBackoffDeterministicJitter(t *testing.T) {
	a := Delay(123*time.Microsecond, 3)
	if got := Delay(123*time.Microsecond, 3); got != a {
		t.Fatalf("same (now, attempt) gave different delays: %v vs %v", a, got)
	}
	if got := Delay(124*time.Microsecond, 3); got == a {
		t.Fatalf("different now gave identical delay %v (jitter not mixing)", a)
	}
}

func TestBackoffWaitChargesClock(t *testing.T) {
	c := sim.NewClock()
	d := Wait(c, 0)
	if d <= 0 || c.Now() != d {
		t.Fatalf("Wait charged %v, clock at %v", d, c.Now())
	}
}

func TestBudgetEarnSpendRefuse(t *testing.T) {
	b := NewBudget(0.5, 2)
	// Burst: 2 tokens up front.
	if !b.TrySpend() || !b.TrySpend() {
		t.Fatal("burst tokens refused")
	}
	if b.TrySpend() {
		t.Fatal("spend succeeded on a dry budget")
	}
	// Two first attempts earn one whole token.
	b.Earn()
	b.Earn()
	if !b.TrySpend() {
		t.Fatal("earned token refused")
	}
	if b.TrySpend() {
		t.Fatal("budget over-earned")
	}
	st := b.Stats()
	if st.Earned != 2 || st.Spent != 3 || st.Refused != 2 {
		t.Fatalf("stats = %+v, want earned 2 spent 3 refused 2", st)
	}
}

func TestBudgetCapsAtBurst(t *testing.T) {
	b := NewBudget(1, 3)
	for i := 0; i < 100; i++ {
		b.Earn()
	}
	if got := b.Tokens(); got != 3 {
		t.Fatalf("tokens = %v, want capped at 3", got)
	}
}

func TestNilBudgetAllowsAll(t *testing.T) {
	var b *Budget
	b.Earn()
	if !b.TrySpend() {
		t.Fatal("nil budget refused a retry")
	}
}

func TestBreakerTripFastFailProbe(t *testing.T) {
	c := sim.NewClock()
	br := NewBreaker(3, 100*time.Microsecond)
	for i := 0; i < 3; i++ {
		if !br.Allow(c) {
			t.Fatalf("closed breaker refused request %d", i)
		}
		br.Record(c, true)
	}
	if br.State() != StateOpen {
		t.Fatalf("state = %d after %d failures, want open", br.State(), 3)
	}
	if br.Allow(c) {
		t.Fatal("open breaker allowed a request inside cooldown")
	}
	c.Advance(100 * time.Microsecond)
	if !br.Allow(c) {
		t.Fatal("breaker refused the half-open probe after cooldown")
	}
	if br.State() != StateHalfOpen {
		t.Fatalf("state = %d, want half-open", br.State())
	}
	if br.Allow(c) {
		t.Fatal("half-open breaker allowed a second concurrent probe")
	}
	br.Record(c, false)
	if br.State() != StateClosed || !br.Allow(c) {
		t.Fatal("successful probe did not close the breaker")
	}
	st := br.Stats()
	if st.Trips != 1 || st.FastFails < 2 {
		t.Fatalf("stats = %+v, want 1 trip and >=2 fast-fails", st)
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	c := sim.NewClock()
	br := NewBreaker(2, 50*time.Microsecond)
	br.Record(c, true)
	br.Record(c, true)
	c.Advance(50 * time.Microsecond)
	if !br.Allow(c) {
		t.Fatal("probe refused")
	}
	br.Record(c, true)
	if br.State() != StateOpen {
		t.Fatalf("state = %d after failed probe, want open", br.State())
	}
	// The cooldown restarts from the probe failure.
	if br.Allow(c) {
		t.Fatal("breaker allowed a request right after a failed probe")
	}
	if br.Stats().Trips != 2 {
		t.Fatalf("trips = %d, want 2", br.Stats().Trips)
	}
}

func TestShedderWatermark(t *testing.T) {
	s := NewShedder(2)
	if !s.TryEnter() || !s.TryEnter() {
		t.Fatal("shedder refused under the watermark")
	}
	if s.TryEnter() {
		t.Fatal("shedder admitted past the watermark")
	}
	s.Exit()
	if !s.TryEnter() {
		t.Fatal("shedder refused after an exit freed a slot")
	}
	st := s.Stats()
	if st.Admitted != 3 || st.Shed != 1 {
		t.Fatalf("stats = %+v, want admitted 3 shed 1", st)
	}
}

func TestGateShedsOverWatermark(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Stats = sim.NewRegistry()
	g := NewGate(cfg)
	cfg.Admission = g

	// Another worker's demand: 10ms of busy time observed at 1µs, so
	// every one of its ops queued.
	m := sim.NewMeter(1)
	other := sim.NewClock()
	other.Advance(time.Microsecond)
	for i := 0; i < 100; i++ {
		m.Observe(other, 100*time.Microsecond)
	}
	c := sim.NewClock()
	// Inside warmup: always admitted, however congested.
	if err := cfg.Admit(c, "hot", m); err != nil {
		t.Fatalf("warmup admit failed: %v", err)
	}
	// Past warmup, ρ = 10ms/300µs is far over the watermark.
	c.Advance(300 * time.Microsecond)
	err := cfg.Admit(c, "hot", m)
	if !errors.Is(err, sim.ErrAdmission) {
		t.Fatalf("congested admit = %v, want ErrAdmission", err)
	}
	// Congestion cleared (much more elapsed): admitted again.
	c.Advance(100 * time.Millisecond)
	if err := cfg.Admit(c, "hot", m); err != nil {
		t.Fatalf("post-congestion admit failed: %v", err)
	}
	st := g.SiteStats("hot")
	if st.Admitted != 2 || st.Shed != 1 {
		t.Fatalf("site stats = %+v, want admitted 2 shed 1", st)
	}
	if reg := sim.Snapshot[sim.GateStats](cfg.Stats, "admit.hot"); reg.Shed != 1 {
		t.Fatalf("registry gate row = %+v, want shed 1", reg)
	}
}

func TestGateNilMeterAdmits(t *testing.T) {
	g := NewGate(nil)
	c := sim.NewClock()
	c.Advance(time.Second)
	if err := g.Admit(c, "x", nil); err != nil {
		t.Fatalf("nil-meter admit failed: %v", err)
	}
}

// TestShedErrorTextAndAllocs pins a shed's text and errors.Is, and that a
// shed allocates only its error value (4 allocations when Admit formatted
// the text with fmt.Errorf).
func TestShedErrorTextAndAllocs(t *testing.T) {
	g := NewGate(nil)
	m := sim.NewMeter(1)
	other := sim.NewClock()
	other.Advance(time.Microsecond)
	for i := 0; i < 100; i++ {
		m.Observe(other, 100*time.Microsecond)
	}
	c := sim.NewClock()
	c.Advance(400 * time.Microsecond)
	err := g.Admit(c, "logstore.append", m)
	if want := "sim: admission control shed: logstore.append ρ=25.00"; err == nil || err.Error() != want {
		t.Fatalf("shed error %v, want %q", err, want)
	}
	if !errors.Is(err, sim.ErrAdmission) {
		t.Fatalf("%v does not match sim.ErrAdmission", err)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Admit(c, "logstore.append", m) }); n > 1 {
		t.Fatalf("%.1f allocations per shed, want at most 1", n)
	}
}
