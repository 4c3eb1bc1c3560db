package enginetest

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/sim/fault"
)

// Coherence probe workload shape: ONE writer (worker 0) bumps a small hot
// key set with strictly increasing sequence numbers while several readers
// hammer the same keys — through the primary and, when the engine has read
// replicas, through replica reads. Every reader loads the key's acked
// floor BEFORE issuing the read, so "the value decoded below the floor" is
// a true stale read (the commit was acknowledged before the read started),
// never a race of the bookkeeping. The tiny key range keeps every page
// resident in every cache tier, which is exactly where stale copies hide.
const (
	cohKeyBase = 60_000
	cohKeys    = 4
	// cohKeyStride spreads the keys across distinct pages (64 values fit
	// one 4 KiB page), so invalidation fan-out is per page, not one page.
	cohKeyStride = 64
	cohRounds    = 24
	cohReaders   = 3
)

// cohKeyState is one key's intended history under a single writer.
type cohKeyState struct {
	issued atomic.Uint64 // highest seq handed to a write (acked or not)
	acked  atomic.Uint64 // highest seq whose commit was acknowledged
}

// runCoherenceProbe drives the stale-read probe, optionally under a fault
// profile and/or with group commit enabled, then verifies on a healed
// fabric.
func runCoherenceProbe(t *testing.T, factory Factory, p *fault.Profile, batch bool) {
	t.Helper()
	layout := Layout(t)
	seed := Seed()
	cfg := sim.DefaultConfig()
	var inj *fault.Injector
	label := "coherence/clean"
	if p != nil {
		inj = fault.New(seed, *p)
		cfg.Fault = inj
		label = "coherence/" + p.Name
	}
	cfg.Stats = sim.NewRegistry()
	e := factory(t, cfg)
	if batch {
		e = batched(e)
		label += "+batched"
	}
	hasReplica := engine.Caps(e).Reader != nil

	keys := make([]*cohKeyState, cohKeys)
	for i := range keys {
		keys[i] = &cohKeyState{}
	}
	var mu sync.Mutex
	var violations []string
	violate := func(format string, args ...any) {
		mu.Lock()
		violations = append(violations, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	// check applies the stale-read invariant to one observed value. floor
	// was loaded before the read began.
	check := func(where string, key uint64, ks *cohKeyState, floor uint64, v []byte) {
		k, w, seq, zero, ok := confDecode(v)
		if !ok {
			violate("%s: key %d: torn/garbled value %x", where, key, v[:32])
			return
		}
		if zero {
			if floor > 0 {
				violate("%s: key %d: read zero value after seq %d was acked", where, key, floor)
			}
			return
		}
		if k != key || w != 0 {
			violate("%s: key %d: foreign value (key=%d worker=%d)", where, key, k, w)
			return
		}
		if seq > ks.issued.Load() {
			violate("%s: key %d: fabricated seq %d", where, key, seq)
			return
		}
		if seq < floor {
			violate("%s: key %d: STALE READ seq %d < acked floor %d", where, key, seq, floor)
		}
	}

	var commits, writeErrs, readErrs atomic.Int64
	sim.RunGroup(1+cohReaders, func(id int, c *sim.Clock) int {
		done := 0
		if id == 0 {
			// The writer walks the key set round-robin so every page
			// keeps changing under the readers.
			for r := 0; r < cohRounds; r++ {
				for i := 0; i < cohKeys; i++ {
					key := uint64(cohKeyBase + i*cohKeyStride)
					ks := keys[i]
					seq := ks.issued.Add(1)
					v := confVal(layout, key, 0, seq)
					if err := writeKey(e, c, engine.RunOpts{Retries: confRetries}, key, v); err != nil {
						writeErrs.Add(1)
						continue
					}
					// Only an acknowledged commit raises the floor
					// readers hold the engine to.
					ks.acked.Store(seq)
					commits.Add(1)
					done++
				}
			}
			return done
		}
		rng := sim.NewRand(seed, id)
		for op := 0; op < cohRounds*cohKeys; op++ {
			i := rng.Intn(cohKeys)
			key := uint64(cohKeyBase + i*cohKeyStride)
			ks := keys[i]
			opts := engine.RunOpts{Retries: confRetries}
			where := "primary read"
			if hasReplica && op%2 == 1 {
				opts.Replica = 1
				where = "replica read"
			}
			floor := ks.acked.Load()
			got, err := readKey(e, c, opts, key)
			if err != nil {
				readErrs.Add(1)
				continue
			}
			check(where, key, ks, floor, got)
			done++
		}
		return done
	})

	// Verification runs on a healed fabric: by now every acked floor is
	// final, and the engine must serve at-least-floor values from every
	// read path it offers.
	if inj != nil {
		inj.Heal()
	}
	c := sim.NewClock()
	for i := 0; i < cohKeys; i++ {
		key := uint64(cohKeyBase + i*cohKeyStride)
		ks := keys[i]
		floor := ks.acked.Load()
		paths := []int{0}
		if hasReplica {
			paths = append(paths, 1)
		}
		for _, replica := range paths {
			var got []byte
			var err error
			for attempt := 0; attempt < 3; attempt++ {
				if got, err = readKey(e, c, engine.RunOpts{Retries: confRetries, Replica: replica}, key); err == nil {
					break
				}
			}
			if err != nil {
				violate("final read (replica=%d): key %d: %v", replica, key, err)
				continue
			}
			check(fmt.Sprintf("final read (replica=%d)", replica), key, ks, floor, got)
		}
	}

	t.Logf("probe %s: commits=%d writeErrs=%d readErrs=%d staleHits=%d invalidations=%d",
		label, commits.Load(), writeErrs.Load(), readErrs.Load(),
		e.Stats().StaleHits.Load(), e.Stats().Invalidations.Load())
	if commits.Load() == 0 {
		t.Errorf("no write acked under %q (seed %d): the stale-read probe is vacuous", label, seed)
	}
	reportViolations(t, seed, label, violations)
	if t.Failed() && cfg.Stats != nil {
		t.Logf("per-site telemetry under %q:\n%s", label, cfg.Stats.String())
	}
}
