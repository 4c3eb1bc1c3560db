package fault

import (
	"errors"
	"testing"
	"time"

	"github.com/disagglab/disagg/internal/sim"
)

// Two injectors with the same seed and profile must produce identical
// verdicts for the same (site, op-index) sequence — the replayability
// guarantee the whole chaos suite rests on.
func TestDeterministicReplay(t *testing.T) {
	p := Profile{Name: "mix", Drop: 0.1, Duplicate: 0.1, Torn: 0.1, Delay: 0.1, MaxDelay: time.Millisecond}
	sites := []string{"rdma.read", "rdma.write", "logstore.append", "obj.put", "replica.ingest"}
	type verdict struct{ drop, dup, torn bool }
	run := func(seed int64) []verdict {
		inj := New(seed, p)
		var out []verdict
		for round := 0; round < 200; round++ {
			for _, s := range sites {
				f := inj.Inject(nil, s)
				out = append(out, verdict{f.Drop, f.Duplicate, f.Torn})
			}
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical fault schedules")
	}
	if a1 := run(42); len(a1) != len(a) {
		t.Fatal("schedule length not stable")
	}
}

// Fault rates must track the profile probabilities, and injected errors
// must be recognizable via sim.ErrInjected.
func TestRatesAndErrors(t *testing.T) {
	inj := New(7, Profile{Name: "drops", Drop: 0.2})
	n := 10_000
	for i := 0; i < n; i++ {
		if f := inj.Inject(nil, "rdma.read"); f.Drop {
			if !errors.Is(f.Err, sim.ErrInjected) {
				t.Fatalf("injected error not tagged: %v", f.Err)
			}
		}
	}
	got := float64(inj.Drops.Load()) / float64(n)
	if got < 0.15 || got > 0.25 {
		t.Fatalf("drop rate %.3f far from 0.2", got)
	}
}

// Site prefixes must scope injection; Heal must silence it; Enable must
// re-arm it.
func TestSiteScopingAndHeal(t *testing.T) {
	inj := New(1, Profile{Name: "drops", Drop: 1.0, Sites: []string{"logstore."}})
	if f := inj.Inject(nil, "rdma.read"); f.Drop {
		t.Fatal("injected at unmatched site")
	}
	if f := inj.Inject(nil, "logstore.append"); !f.Drop {
		t.Fatal("no injection at matched site with Drop=1")
	}
	inj.Heal()
	if f := inj.Inject(nil, "logstore.append"); f.Drop {
		t.Fatal("injection after Heal")
	}
	inj.Enable()
	if f := inj.Inject(nil, "logstore.append"); !f.Drop {
		t.Fatal("no injection after Enable")
	}
}

// Partition windows drop everything inside [Start, End) and nothing
// outside.
func TestPartitionWindows(t *testing.T) {
	inj := New(1, Profile{
		Name:       "partition",
		Partitions: []Window{{Start: time.Millisecond, End: 2 * time.Millisecond}},
	})
	c := sim.NewClock()
	if f := inj.Inject(c, "rdma.read"); f.Drop {
		t.Fatal("dropped before the window")
	}
	c.Advance(time.Millisecond + 100*time.Microsecond)
	if f := inj.Inject(c, "rdma.read"); !f.Drop {
		t.Fatal("no drop inside the window")
	}
	c.Advance(time.Millisecond)
	if f := inj.Inject(c, "rdma.read"); f.Drop {
		t.Fatal("dropped after the window")
	}
}

// Delay faults advance the injected operation's clock inside
// [MaxDelay/4, MaxDelay); drops/dups/tears stay off.
func TestDelaySpikes(t *testing.T) {
	inj := New(3, Profile{Name: "delays", Delay: 1.0, MaxDelay: time.Millisecond})
	c := sim.NewClock()
	before := c.Now()
	if f := inj.Inject(c, "ssd.read"); f.Drop || f.Duplicate || f.Torn {
		t.Fatalf("delay profile injected non-delay fault: %+v", f)
	}
	d := c.Now() - before
	if d < time.Millisecond/4 || d >= time.Millisecond {
		t.Fatalf("spike %v outside [MaxDelay/4, MaxDelay)", d)
	}
	if inj.Delays.Load() != 1 {
		t.Fatalf("delay not counted: %d", inj.Delays.Load())
	}
}

// The standard profile set must cover the four fault classes the
// conformance suite promises: drops, delays, transient I/O errors, and
// crash-mid-append tears.
func TestStandardProfilesCoverFaultClasses(t *testing.T) {
	classes := map[string]bool{}
	for _, p := range Profiles() {
		if p.Drop > 0 || len(p.Partitions) > 0 {
			classes["drop"] = true
		}
		if p.Duplicate > 0 {
			classes["duplicate"] = true
		}
		if p.Torn > 0 {
			classes["torn"] = true
		}
		if p.Delay > 0 {
			classes["delay"] = true
		}
	}
	for _, want := range []string{"drop", "duplicate", "torn", "delay"} {
		if !classes[want] {
			t.Errorf("standard profiles miss fault class %q", want)
		}
	}
	if len(Profiles()) < 4 {
		t.Fatalf("want >= 4 standard profiles, got %d", len(Profiles()))
	}
}

// TestErrorText pins the text each kind of injected error prints and that
// it still matches sim.ErrInjected.
func TestErrorText(t *testing.T) {
	drop := New(9, Profile{Name: "drops", Drop: 1}).Inject(nil, "rdma.read").Err
	torn := New(9, Profile{Name: "torn", Torn: 1}).Inject(nil, "obj.put").Err
	c := sim.NewClock()
	part := New(9, Profile{Name: "p", Partitions: []Window{{End: time.Second}}}).Inject(c, "raft.append").Err
	for _, tc := range []struct {
		err  error
		want string
	}{
		{drop, "sim: injected fault: drop at rdma.read (op 1, seed 9)"},
		{torn, "sim: injected fault: torn append at obj.put (op 1, seed 9)"},
		{part, "sim: injected fault: partition at raft.append (op 1, seed 9)"},
	} {
		if tc.err == nil || tc.err.Error() != tc.want {
			t.Errorf("error %v, want %q", tc.err, tc.want)
		}
		if !errors.Is(tc.err, sim.ErrInjected) {
			t.Errorf("%v does not match sim.ErrInjected", tc.err)
		}
	}
}

// TestInjectedDropAllocatesOneError: a drop allocates its error value and
// nothing else, its text unformatted (3 allocations when Inject formatted
// it with fmt.Errorf).
func TestInjectedDropAllocatesOneError(t *testing.T) {
	inj := New(1, Profile{Name: "drops", Drop: 1})
	inj.Inject(nil, "rdma.read") // the site's counter
	if n := testing.AllocsPerRun(1000, func() { inj.Inject(nil, "rdma.read") }); n > 1 {
		t.Fatalf("%.1f allocations per injected drop, want at most 1", n)
	}
}
