package wal

import (
	"errors"
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
