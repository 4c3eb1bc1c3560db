package wal

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// walk returns the LSNs and types Range visits from the start of the log.
func walk(t *testing.T, l *Log) (lsns []LSN, types []Type) {
	t.Helper()
	if err := l.Range(0, ^LSN(0), func(r *Record) error {
		lsns, types = append(lsns, r.LSN), append(types, r.Type)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return lsns, types
}

// chainOf returns the LSNs RedoPage visits on page pg.
func chainOf(l *Log, pg uint64) []LSN {
	var out []LSN
	_ = l.RedoPage(pg, 0, func(r *Record) error { out = append(out, r.LSN); return nil })
	return out
}

// staged reserves a transaction's records in l: updates to page 7, then the
// commit record.
func staged(l *Log, tx uint64, updates int) []Record {
	recs := make([]Record, updates+1)
	for i := range recs {
		recs[i] = Record{Type: TypeUpdate, TxID: tx, PageID: 7}
	}
	recs[updates].Type, recs[updates].PageID = TypeCommit, 0
	l.Reserve(recs)
	return recs
}

// TestDecideHidesUndecidedSlots: reserved slots are seen by no reader until
// decided. Range stops before the first undecided slot even when later ones
// are decided; RedoPage shows a decided transaction's updates past an
// undecided one; an abort decision leaves only abort records; Decided is the
// contiguous prefix.
func TestDecideHidesUndecidedSlots(t *testing.T) {
	l := NewLog()
	l.Append(Record{Type: TypeUpdate, PageID: 7})
	t1 := staged(l, 1, 1) // LSNs 2, 3
	t2 := staged(l, 2, 2) // LSNs 4..6
	if lsns, _ := walk(t, l); len(lsns) != 1 || len(chainOf(l, 7)) != 1 || l.Decided() != 1 {
		t.Fatalf("with two transactions undecided: Range %v, chain %v, decided %d", lsns, chainOf(l, 7), l.Decided())
	}
	if got := l.Decide(t2, true); got != 1 {
		t.Fatalf("deciding past an undecided slot moved the prefix to %d", got)
	}
	if lsns, _ := walk(t, l); len(lsns) != 1 {
		t.Fatalf("Range walked past the undecided slot 2: %v", lsns)
	}
	if got := chainOf(l, 7); len(got) != 3 || got[1] != 4 || got[2] != 5 {
		t.Fatalf("chain %v, want 1 4 5", got)
	}
	if got := l.Decide(t1, false); got != 6 {
		t.Fatalf("decided prefix %d once every slot is decided, want 6", got)
	}
	lsns, types := walk(t, l)
	if len(lsns) != 6 || types[1] != TypeAbort || types[2] != TypeAbort {
		t.Fatalf("Range %v %v, want 1..6 with 2 and 3 aborts", lsns, types)
	}
	if got := chainOf(l, 7); len(got) != 3 {
		t.Fatalf("an aborted update reached the chain: %v", got)
	}
	if l.Decide(t1, true); l.records.At(1).Rec.Type != TypeAbort {
		t.Fatal("a second decision overwrote the first")
	}
}

// TestDecideOutOfOrderKeepsChainsOrdered: transactions on one page decided
// in reverse reservation order still chain in ascending LSN order.
func TestDecideOutOfOrderKeepsChainsOrdered(t *testing.T) {
	l := NewLog()
	var txs [][]Record
	for tx := uint64(1); tx <= 5; tx++ {
		txs = append(txs, staged(l, tx, 2))
	}
	for i := len(txs) - 1; i >= 0; i-- {
		l.Decide(txs[i], true)
	}
	got := chainOf(l, 7)
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("chain not ascending: %v", got)
		}
	}
	if len(got) != 10 {
		t.Fatalf("chain has %d updates, want 10", len(got))
	}
}

// TestDecideConcurrent: transactions reserve, wait a little and decide
// (commit or abort) while walkers read the log (run with -race). A Range
// walk sees consecutive decided records only, a chain walk ascends, and the
// decided prefix never moves backwards nor covers an undecided slot.
func TestDecideConcurrent(t *testing.T) {
	l := NewLog()
	var writers, readers sync.WaitGroup
	var done atomic.Bool
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 500; i++ {
				n := 1 + rng.Intn(3)
				recs := staged(l, uint64(w), n)
				for j := rng.Intn(3); j > 0; j-- {
					runtime.Gosched() // let another writer reserve or decide first
				}
				l.Decide(recs, rng.Intn(4) != 0)
			}
		}()
	}
	// At GOMAXPROCS 1 a spinning reader starves the writers, so there the
	// readers yield after each walk; with more Ps they walk flat out.
	yield := runtime.GOMAXPROCS(0) == 1
	readers.Add(2)
	go func() {
		defer readers.Done()
		for !done.Load() {
			last := LSN(0)
			err := l.Range(0, ^LSN(0), func(r *Record) error {
				if r.LSN != last+1 || r.Type == 0 {
					t.Errorf("Range visited %+v after LSN %d", *r, last)
				}
				last = r.LSN
				return nil
			})
			if err != nil && !errors.Is(err, ErrTruncated) {
				t.Error(err)
			}
			if got := chainOf(l, 7); len(got) > 1 && got[len(got)-1] <= got[len(got)-2] {
				t.Errorf("chain not ascending at its end: %v", got[len(got)-2:])
			}
			if yield {
				runtime.Gosched()
			}
		}
	}()
	go func() {
		defer readers.Done()
		var prev LSN
		for !done.Load() {
			d := l.Decided()
			if d < prev {
				t.Errorf("decided prefix moved back: %d -> %d", prev, d)
			}
			prev = d
			l.mu.Lock()
			for lsn := l.first(); lsn <= d; lsn++ {
				if l.slot(lsn).Rec.Type == 0 {
					t.Errorf("slot %d undecided below the decided prefix %d", lsn, d)
				}
			}
			l.mu.Unlock()
			if yield {
				runtime.Gosched()
			}
		}
	}()
	writers.Wait()
	done.Store(true)
	readers.Wait()
	if d, head := l.Decided(), l.Head(); d != head-1 {
		t.Fatalf("decided prefix %d with every slot decided, head %d", d, head)
	}
	checkChain(t, l, 0)
}
