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

// forget drops the held LSNs received meanwhile.
func (m *ledgerModel) forget() {
	m.held = slices.DeleteFunc(m.held, func(lsn wal.LSN) bool { return m.received[lsn] })
}

// Random receives, holds, decisions and covers, with LSNs arriving out of
// order and more than once, leave the ledger agreeing with the model after
// every step.
func TestLedgerMatchesSetModel(t *testing.T) {
	const maxLSN = 24
	for seed := range uint64(200) {
		rng := rand.New(rand.NewPCG(seed, 39))
		l := newLedger()
		m := ledgerModel{received: map[wal.LSN]bool{}}
		for step := range 60 {
			lsn := wal.LSN(1 + rng.IntN(maxLSN))
			var op string
			switch k := rng.IntN(20); {
			case k < 9:
				op = "receive"
				want := !m.received[lsn]
				m.received[lsn] = true
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
					if rng.IntN(4) == 0 {
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
				m.held = slices.DeleteFunc(m.held, func(u wal.LSN) bool { return in[u] })
				m.forget()
				var got []wal.LSN
				l.decide(committed, func(rec *wal.Record) { got = append(got, rec.LSN) })
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: decide took %v, want %v", seed, step, got, want)
				}
			default:
				op = "cover"
				h := wal.LSN(rng.IntN(maxLSN / 2))
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
			var held []wal.LSN
			for _, u := range l.undecided {
				held = append(held, u.LSN)
			}
			if l.prefix != m.prefix() || l.high != m.high() || !slices.Equal(held, m.held) {
				t.Fatalf("seed %d step %d (%s %d): prefix %d, high %d, undecided %v; want %d, %d, %v",
					seed, step, op, lsn, l.prefix, l.high, held, m.prefix(), m.high(), m.held)
			}
		}
	}
}
