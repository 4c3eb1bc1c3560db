package wal

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// Range visits exactly (after, min(upto, head)], in order.
func TestRangeVisitsExactlyTheRange(t *testing.T) {
	l := NewLog()
	for i := 0; i < 10; i++ {
		l.Append(Record{Type: TypeUpdate, Key: uint64(i)})
	}
	l.TruncateBefore(4) // retained: 4..10
	for _, tc := range []struct {
		after, upto LSN
		first, n    LSN // LSN of the first visit, number of visits
	}{
		{3, 10, 4, 7},
		{3, toHead, 4, 7},
		{3, 25, 4, 7},
		{5, 8, 6, 3},
		{5, 6, 6, 1},
		{5, 5, 0, 0},
		{8, 5, 0, 0},
		{0, 0, 0, 0}, // below the floor, but nothing to visit
		{10, toHead, 0, 0},
		{40, toHead, 0, 0},
		{toHead, toHead, 0, 0},
		{toHead - 1, toHead, 0, 0},
	} {
		got, err := collect(l, tc.after, tc.upto)
		if err != nil || LSN(len(got)) != tc.n {
			t.Fatalf("Range(%d, %d) = %d records, err %v; want %d", tc.after, tc.upto, len(got), err, tc.n)
		}
		for i, r := range got {
			if r.LSN != tc.first+LSN(i) || r.Key != uint64(r.LSN-1) {
				t.Fatalf("Range(%d, %d)[%d] = LSN %d key %d, want LSN %d", tc.after, tc.upto, i, r.LSN, r.Key, tc.first+LSN(i))
			}
		}
	}
}

// A truncation that overtakes the walk fails its next step: the prefix
// visited so far is not passed off as the whole range.
func TestRangeTruncationOvertakesWalk(t *testing.T) {
	l := NewLog()
	for i := 0; i < 10; i++ {
		l.Append(Record{Type: TypeUpdate})
	}
	var seen []LSN
	err := l.Range(0, toHead, func(r *Record) error {
		seen = append(seen, r.LSN)
		if r.LSN == 3 {
			l.TruncateBefore(8)
		}
		return nil
	})
	if !errors.Is(err, ErrTruncated) || len(seen) != 3 {
		t.Fatalf("walk overtaken at LSN 3: visited %v, err %v; want 1..3 and ErrTruncated", seen, err)
	}
	// A truncation behind the walk does not concern it.
	seen = seen[:0]
	err = l.Range(8, toHead, func(r *Record) error {
		seen = append(seen, r.LSN)
		l.TruncateBefore(r.LSN + 1)
		return nil
	})
	if err != nil || len(seen) != 2 {
		t.Fatalf("walk truncating behind itself: visited %v, err %v; want 9, 10 and nil", seen, err)
	}
}

// fn runs outside the log's lock: it may read a page chain and append, as a
// checkpoint's redo does when the page it mutates has to be fetched first.
func TestRangeCallbackMayUseTheLog(t *testing.T) {
	l := NewLog()
	for i := 0; i < 20; i++ {
		l.Append(Record{Type: TypeUpdate, PageID: uint64(i % 2)})
	}
	done := make(chan error, 1)
	chained := 0
	go func() {
		done <- l.Range(0, 20, func(r *Record) error {
			l.Append(Record{Type: TypeCommit})
			return l.RedoPage(r.PageID, r.LSN-1, func(*Record) error {
				chained++
				return nil
			})
		})
	}()
	select {
	case err := <-done:
		// Record k's page has (20-k)/2 + 1 chained records from k on.
		if err != nil || chained != 110 || l.Len() != 40 {
			t.Fatalf("err %v, %d chained records visited (want 110), %d records (want 40)", err, chained, l.Len())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Range deadlocked against a callback that uses the log")
	}
}

func TestRangeStopsAtFirstError(t *testing.T) {
	l := NewLog()
	for i := 0; i < 10; i++ {
		l.Append(Record{Type: TypeUpdate})
	}
	stop := errors.New("stop")
	var seen []LSN
	err := l.Range(2, toHead, func(r *Record) error {
		seen = append(seen, r.LSN)
		if len(seen) == 3 {
			return stop
		}
		return nil
	})
	if err != stop || len(seen) != 3 || seen[0] != 3 || seen[2] != 5 {
		t.Fatalf("err %v after visiting %v, want the callback's error after LSNs 3..5", err, seen)
	}
}

// A walk costs its one record copy, not a clone of the tail; an empty one
// costs nothing.
func TestRangeAllocatesOneRecord(t *testing.T) {
	l := NewLog()
	for i := 0; i < 4000; i++ {
		l.Append(Record{Type: TypeUpdate, After: []byte("v")})
	}
	visits := 0
	count := func(*Record) error { visits++; return nil }
	if got := testing.AllocsPerRun(20, func() { _ = l.Range(0, toHead, count) }); got > 1 {
		t.Errorf("Range over %d records: %.1f allocs, want <= 1", l.Len(), got)
	}
	if visits != 21*4000 {
		t.Fatalf("visited %d records, want %d", visits, 21*4000)
	}
	// A replica that is up to date asks on every gossip round.
	if got := testing.AllocsPerRun(20, func() { _ = l.Range(4000, toHead, count) }); got != 0 {
		t.Errorf("Range over an empty tail: %.1f allocs, want 0", got)
	}
}

// A log grown past three segments, with undecided and aborted slots among
// its records, is truncated at the cuts the segment arithmetic turns on —
// a segment's worth give or take one, half of one, two of them — and grown
// again into the segments it emptied. Range and RedoPage must see exactly
// what a plain slice of the records says: Range the decided run from its
// start, RedoPage each page's retained changes in LSN order.
func TestRangeAndRedoPageAcrossSegments(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	l := NewLog()
	var model []Record     // model[lsn-1]: as decided so far, zero while undecided
	var pending [][]Record // reserved, undecided
	grow := func(n int) {
		for range n {
			pg := uint64(rng.Intn(chainPages))
			switch rng.Intn(6) {
			case 0, 1, 2:
				r := Record{Type: TypeUpdate, PageID: pg, Key: uint64(len(model))}
				r.LSN = l.Append(r)
				model = append(model, r)
			case 3:
				r := Record{Type: TypeCommit, TxID: uint64(len(model))}
				r.LSN = l.Append(r)
				model = append(model, r)
			case 4:
				recs := []Record{{Type: TypeUpdate, PageID: pg, TxID: 9}, {Type: TypeCommit, TxID: 9}}
				l.Reserve(recs)
				model = append(model, Record{}, Record{})
				pending = append(pending, recs)
			case 5:
				if len(pending) == 0 {
					continue
				}
				j := rng.Intn(len(pending))
				commit := rng.Intn(3) != 0
				for _, r := range pending[j] {
					if !commit {
						r = Record{LSN: r.LSN, Type: TypeAbort, TxID: r.TxID}
					}
					model[r.LSN-1] = r
				}
				l.Decide(pending[j], commit)
				pending = slices.Delete(pending, j, j+1)
			}
		}
	}
	check := func(cut int) {
		t.Helper()
		floor, head := l.Floor(), l.Head()
		if got := LSN(l.Len()); got != head-floor {
			t.Fatalf("cut %d: %d records between floor %d and head %d", cut, got, floor, head)
		}
		for _, after := range []LSN{floor - 2, floor - 1, floor, floor + segLen - 1, floor + segLen, floor + segLen + 1, (floor + head) / 2, head - 1, head} {
			if after > head { // floor - 2 wrapped
				continue
			}
			got, err := collect(l, after, toHead)
			if after+1 < floor {
				if !errors.Is(err, ErrTruncated) {
					t.Fatalf("cut %d: Range(%d, head) below floor %d: err %v", cut, after, floor, err)
				}
				continue
			}
			var want []Record
			for lsn := after + 1; lsn < head && model[lsn-1].Type != 0; lsn++ {
				want = append(want, model[lsn-1])
			}
			if err != nil || !sameLSNs(got, want) {
				t.Fatalf("cut %d: Range(%d, head) = %d records from %v, err %v; want %d (floor %d, head %d)",
					cut, after, len(got), firstLSN(got), err, len(want), floor, head)
			}
			for pg := uint64(0); pg < chainPages; pg++ {
				want = want[:0]
				for _, r := range model[min(max(after, floor-1), LSN(len(model))):] {
					if r.PageID == pg && r.Type == TypeUpdate {
						want = append(want, r)
					}
				}
				got = got[:0]
				_ = l.RedoPage(pg, after, func(r *Record) error { got = append(got, *r); return nil })
				if !sameLSNs(got, want) {
					t.Fatalf("cut %d: RedoPage(%d, %d) = %d records, want %d (floor %d, head %d)", cut, pg, after, len(got), len(want), floor, head)
				}
			}
		}
	}
	for _, cut := range []int{segLen - 1, segLen, segLen + 1, segLen / 2, 2 * segLen, 2*segLen + segLen/3} {
		grow(max(0, 3*segLen+100-l.Len()))
		check(0)
		l.TruncateBefore(l.Floor() + LSN(cut))
		check(cut)
	}
}

func sameLSNs(a, b []Record) bool {
	return slices.EqualFunc(a, b, func(x, y Record) bool {
		return x.LSN == y.LSN && x.Type == y.Type && x.PageID == y.PageID && x.Key == y.Key
	})
}

func firstLSN(rs []Record) LSN {
	if len(rs) == 0 {
		return 0
	}
	return rs[0].LSN
}
