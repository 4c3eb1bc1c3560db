package storagenode

import (
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/disagglab/disagg/internal/wal"
)

// ledgerModel is the ledger as a plain set of received LSNs and the list of
// LSNs held undecided, in the order they were held.
type ledgerModel struct {
	received map[wal.LSN]bool
	held     []wal.LSN
}

func (m *ledgerModel) prefix() wal.LSN {
	var p wal.LSN
	for m.received[p+1] {
		p++
	}
	return p
}

func (m *ledgerModel) high() wal.LSN {
	var h wal.LSN
	for lsn := range m.received {
		h = max(h, lsn)
	}
	return h
}

// forget drops the held LSNs received since.
func (m *ledgerModel) forget() {
	m.held = slices.DeleteFunc(m.held, func(lsn wal.LSN) bool { return m.received[lsn] })
}

// dedupe keeps the first held copy of each LSN: what a decision leaves.
func (m *ledgerModel) dedupe() {
	seen := map[wal.LSN]bool{}
	m.held = slices.DeleteFunc(m.held, func(lsn wal.LSN) bool {
		dup := seen[lsn]
		seen[lsn] = true
		return dup
	})
}

// Random receives, holds, decisions and covers, with LSNs arriving out of
// order and more than once, leave the ledger agreeing with the model after
// every step. The second case holds many copies no decision names.
func TestLedgerMatchesSetModel(t *testing.T) {
	for _, tc := range []struct {
		name          string
		maxLSN, steps int
		perBatch      int // a decision names each LSN with chance 1/perBatch
		seeds         uint64
	}{
		{"small", 24, 60, 4, 200},
		{"many held outside the batch", 512, 400, 128, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := range tc.seeds {
				checkLedgerAgainstModel(t, seed, wal.LSN(tc.maxLSN), tc.steps, tc.perBatch)
			}
		})
	}
}

func checkLedgerAgainstModel(t *testing.T, seed uint64, maxLSN wal.LSN, steps, perBatch int) {
	rng := rand.New(rand.NewPCG(seed, 39))
	l := newLedger()
	m := ledgerModel{received: map[wal.LSN]bool{}}
	for step := range steps {
		lsn := wal.LSN(1 + rng.IntN(int(maxLSN)))
		var op string
		switch k := rng.IntN(20); {
		case k < 9:
			op = "receive"
			want := !m.received[lsn]
			m.received[lsn] = true
			m.forget()
			if got := l.receive(lsn); got != want {
				t.Fatalf("seed %d step %d: receive(%d) = %v, want %v", seed, step, lsn, got, want)
			}
		case k < 15:
			op = "hold"
			if !m.received[lsn] {
				m.held = append(m.held, lsn)
			}
			l.hold(&wal.Record{LSN: lsn})
		case k < 19:
			op = "decide"
			var committed []wal.Record
			in := map[wal.LSN]bool{}
			for c := wal.LSN(1); c <= maxLSN; c++ {
				if rng.IntN(perBatch) == 0 {
					committed = append(committed, wal.Record{LSN: c})
					in[c] = true
				}
			}
			var want []wal.LSN
			for _, u := range m.held {
				if in[u] && !m.received[u] {
					m.received[u] = true
					want = append(want, u)
				}
			}
			m.forget()
			m.dedupe()
			var got []wal.LSN
			l.decide(committed, func(rec *wal.Record) { got = append(got, rec.LSN) })
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: decide took %v, want %v", seed, step, got, want)
			}
		default:
			op = "cover"
			h := wal.LSN(rng.IntN(int(maxLSN) / 2))
			for c := wal.LSN(1); c <= h; c++ {
				m.received[c] = true
			}
			m.forget()
			l.cover(h)
		}
		for c := wal.LSN(1); c <= maxLSN+1; c++ {
			if l.has(c) != m.received[c] {
				t.Fatalf("seed %d step %d (%s %d): has(%d) = %v, want %v", seed, step, op, lsn, c, l.has(c), m.received[c])
			}
		}
		held := l.held()
		if l.prefix != m.prefix() || l.high != m.high() || !slices.Equal(held, m.held) {
			t.Fatalf("seed %d step %d (%s %d): prefix %d, high %d, undecided %v; want %d, %d, %v",
				seed, step, op, lsn, l.prefix, l.high, held, m.prefix(), m.high(), m.held)
		}
		stale := 0
		for i, u := range l.undecided[:l.stale] {
			if u.LSN != 0 {
				stale++
				if at, ok := l.staleAt[u.LSN]; !ok || at != i {
					t.Fatalf("seed %d step %d (%s %d): stale LSN %d held at %d, indexed at %d (%v)", seed, step, op, lsn, u.LSN, i, at, ok)
				}
			}
		}
		if len(l.staleAt) != stale {
			t.Fatalf("seed %d step %d (%s %d): %d stale copies indexed, %d held", seed, step, op, lsn, len(l.staleAt), stale)
		}
	}
}

// held lists the LSNs of the undecided copies in the order they were held.
func (l *ledger) held() []wal.LSN {
	var lsns []wal.LSN
	for _, u := range l.undecided {
		if u.LSN != 0 {
			lsns = append(lsns, u.LSN)
		}
	}
	return lsns
}

// A decision with thousands of copies held outside its batch allocates
// nothing once warm and leaves those copies held, in order.
func TestLedgerDecideWithManyHeldAllocatesNothing(t *testing.T) {
	l := newLedger()
	const stale = 2000
	for lsn := wal.LSN(1); lsn <= stale; lsn++ {
		l.hold(&wal.Record{LSN: 10_000 + 2*lsn}) // never decided
	}
	next := wal.LSN(1)
	committed := make([]wal.Record, 4)
	took := 0
	take := func(*wal.Record) { took++ }
	decideBatch := func() {
		for i := range committed {
			committed[i] = wal.Record{LSN: next}
			l.hold(&committed[i])
			next++
		}
		l.decide(committed, take)
	}
	for range 10 {
		decideBatch()
	}
	if n := testing.AllocsPerRun(200, decideBatch); n != 0 {
		t.Fatalf("%.1f allocations per decision, want 0", n)
	}
	if want := int(next - 1); took != want {
		t.Fatalf("decisions took %d records, want %d", took, want)
	}
	if held := l.held(); len(held) != stale || held[0] != 10_002 || held[stale-1] != 10_000+2*stale {
		t.Fatalf("%d copies held from %d to %d, want the %d stale ones in order", len(held), held[0], held[len(held)-1], stale)
	}
}
