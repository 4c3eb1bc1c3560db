package wal

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// chainPages is how many page ids the chain tests spread records over;
// page 0 is one of them, and it is also what commit records carry.
const chainPages = 5

// retained scans the log for its records with LSN > after: the chain's
// oracle, independent of the chain. A scan and not a Range, which stops at
// the floor: a truncation past the head leaves the floor above the records
// appended next, and RedoPage still visits those.
func retained(l *Log, after LSN) []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Record
	for i := range l.records.Len() {
		if r := l.records.At(i).Rec; r.LSN > after {
			out = append(out, r)
		}
	}
	return out
}

// checkChain is the chain's specification: for every page, RedoPage(page,
// after) visits exactly the retained records above after that are for the
// page and change a page — the same records in the same order.
func checkChain(t *testing.T, l *Log, after LSN) {
	t.Helper()
	tail := retained(l, after)
	for pg := uint64(0); pg < chainPages; pg++ {
		var got []Record
		if err := l.RedoPage(pg, after, func(r *Record) error {
			got = append(got, *r)
			return nil
		}); err != nil {
			t.Fatalf("RedoPage(%d, %d): %v", pg, after, err)
		}
		i := 0
		for _, r := range tail {
			if r.PageID != pg || r.Type != TypeUpdate {
				continue
			}
			if i >= len(got) || got[i].LSN != r.LSN || got[i].Type != r.Type || got[i].PageID != pg || got[i].Key != r.Key {
				t.Fatalf("RedoPage(%d, %d) visit %d: got %+v, want %+v (floor %d, head %d)", pg, after, i, got[min(i, len(got)):], r, l.Floor(), l.Head())
			}
			i++
		}
		if i != len(got) {
			t.Fatalf("RedoPage(%d, %d) visited %d records past the %d retained: %+v", pg, after, len(got)-i, i, got[i:])
		}
	}
}

// around draws an LSN from two below the lower of floor and head to two
// past the higher (the floor passes the head after a truncation past it).
func around(l *Log, pick byte) LSN {
	floor, head := int(l.Floor()), int(l.Head())
	lo, hi := min(floor, head)-2, max(floor, head)+2
	return LSN(max(lo+int(pick)%(hi-lo+1), 0))
}

// runChainScript interprets data as an op script, three bytes per op
// (opcode, record selector, position), and checks the chain against the
// whole-tail scan after every read op and at the end. Reserved slots are
// decided in whatever order the script picks, so chains hold decided
// records beside undecided and aborted ones, which RedoPage must pass over.
func runChainScript(t *testing.T, data []byte) {
	l := NewLog()
	var pending [][]Record // reserved, undecided
	for i := 0; i+2 < len(data); i += 3 {
		op, sel, pos := data[i], data[i+1], data[i+2]
		// Every type on every page: a commit record stamped with a page
		// id must still stay out of that page's chain.
		r := Record{Type: Type(sel%6) + TypeUpdate, PageID: uint64(sel/6) % chainPages, Key: uint64(i)}
		switch op % 6 {
		case 0, 1:
			l.Append(r)
		case 2:
			l.TruncateBefore(around(l, pos))
		case 3:
			checkChain(t, l, around(l, pos))
		case 4:
			recs := make([]Record, 1+int(pos%3))
			for j := range recs {
				recs[j] = r
				recs[j].PageID = (r.PageID + uint64(j)) % chainPages
			}
			l.Reserve(recs)
			pending = append(pending, recs)
		case 5:
			if len(pending) > 0 {
				j := int(pos) % len(pending)
				l.Decide(pending[j], sel%2 == 0)
				pending = append(pending[:j], pending[j+1:]...)
			}
		}
	}
	for _, after := range []LSN{0, l.Floor() - 1, l.Floor(), l.Head() - 1, l.Head()} {
		checkChain(t, l, after)
	}
}

func TestRedoPageMatchesFilteredSince(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 200; round++ {
		data := make([]byte, 3*(1+rng.Intn(300)))
		rng.Read(data)
		runChainScript(t, data)
	}
}

func FuzzRedoPage(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 6, 0, 3, 0, 0})
	f.Add([]byte{0, 0, 0, 1, 1, 0, 0, 12, 0, 2, 0, 4, 3, 0, 0, 0, 0, 0, 2, 0, 200, 0, 7, 0, 3, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*2048 {
			data = data[:3*2048]
		}
		runChainScript(t, data)
	})
}

func TestRedoPageStopsAtFirstError(t *testing.T) {
	l := NewLog()
	for i := 0; i < 10; i++ {
		l.Append(Record{Type: TypeUpdate, PageID: 4})
	}
	stop := errors.New("stop")
	var seen []LSN
	err := l.RedoPage(4, 2, func(r *Record) error {
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

// A page miss must not pay for the length of the log: the walk allocates
// nothing on a long tail, and a checkpointed log appends into the capacity
// its truncation kept.
func TestChainAllocatesNothing(t *testing.T) {
	l := NewLog()
	for i := 0; i < 10000; i++ {
		l.Append(Record{Type: TypeUpdate, PageID: uint64(i % 64), After: []byte("v")})
		l.Append(Record{Type: TypeCommit})
	}
	visits := 0
	count := func(*Record) error { visits++; return nil }
	if got := testing.AllocsPerRun(100, func() { _ = l.RedoPage(3, 0, count) }); got != 0 {
		t.Errorf("RedoPage on a %d-record tail: %.1f allocs, want 0", l.Len(), got)
	}
	if want := 101 * 10000 / 64; visits < want {
		t.Fatalf("visited %d records, want >= %d", visits, want)
	}

	l.TruncateBefore(l.Head())
	if l.Len() != 0 {
		t.Fatalf("truncated to the head, %d records left", l.Len())
	}
	i := 0
	if got := testing.AllocsPerRun(5000, func() {
		l.Append(Record{Type: TypeUpdate, PageID: uint64(i % 64)})
		i++
	}); got != 0 {
		t.Errorf("Append on a truncated log: %.2f allocs, want 0 (capacity not kept?)", got)
	}
}

// A log appended to and checkpointed in rounds that each span three
// segments reuses the segments the last truncation emptied: after one
// warm-up round neither appends, reservations nor truncations allocate.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	l := NewLog()
	recs := make([]Record, 2)
	img := []byte("v")
	round := func() {
		for i := range 3 * segLen / 4 {
			l.Append(Record{Type: TypeUpdate, PageID: uint64(i % 64), After: img})
			l.Append(Record{Type: TypeCommit})
			recs[0] = Record{Type: TypeUpdate, PageID: uint64(i % 7)}
			recs[1] = Record{Type: TypeCommit}
			l.Reserve(recs)
			l.Decide(recs, i%5 != 0)
		}
		l.TruncateBefore(l.Head() - 100) // keeps a tail
	}
	round()
	if got := testing.AllocsPerRun(10, round); got != 0 {
		t.Fatalf("a warm round of %d records and a truncation: %.1f allocs, want 0", 3*segLen, got)
	}
	if l.Len() != 100 {
		t.Fatalf("%d records retained, want 100", l.Len())
	}
}

// The chain's links sit in each slot's Link, not in Record: a Record is copied by
// value into and out of the log on every commit.
func TestRecordDidNotGrow(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got != 88 {
		t.Fatalf("unsafe.Sizeof(Record{}) = %d, want 88", got)
	}
}

// What TruncateBefore drops must not stay reachable: every slot it vacates
// is cleared, across segment boundaries and in segments it empties, also
// after a round of appends has refilled the recycled segments.
func TestTruncateClearsVacatedSlots(t *testing.T) {
	l := NewLog()
	appendImages := func(n int) {
		for range n {
			l.Append(Record{Type: TypeUpdate, PageID: 1, After: []byte("image")})
		}
	}
	appendImages(3*segLen + 100)
	for _, cut := range []int{segLen - 1, 1, segLen + 1, segLen / 2, 2 * segLen} {
		l.mu.Lock()
		first := l.first()
		held := make([]*Slot, cut) // the slots the truncation vacates
		for i := range held {
			held[i] = l.slot(first + LSN(i))
		}
		l.mu.Unlock()
		l.TruncateBefore(first + LSN(cut))
		for i, sl := range held {
			if !isZero(sl) {
				t.Fatalf("cut %d from LSN %d: vacated slot of LSN %d holds LSN %d, link %d, image %q",
					cut, first, first+LSN(i), sl.Rec.LSN, sl.Link, sl.Rec.After)
			}
		}
		appendImages(cut) // refills what was recycled
	}
}

// Appenders, chain readers, a range walker and a truncater share one log
// (run with -race): whatever a chain reader sees is for its page and in
// ascending LSN order; a walk sees consecutive LSNs until it ends at the head
// or the truncater overtakes it.
func TestChainConcurrent(t *testing.T) {
	l := NewLog()
	var appenders, others sync.WaitGroup
	var done atomic.Bool
	for a := 0; a < 4; a++ {
		appenders.Add(1)
		go func() {
			defer appenders.Done()
			for i := 0; i < 1000; i++ {
				l.Append(Record{Type: TypeUpdate, PageID: uint64(i % chainPages)})
				l.Append(Record{Type: TypeCommit})
			}
		}()
	}
	for rd := 0; rd < 2; rd++ {
		others.Add(1)
		go func() {
			defer others.Done()
			for pg := uint64(rd); !done.Load(); pg = (pg + 1) % chainPages {
				var last LSN
				after := l.Floor()
				_ = l.RedoPage(pg, after, func(r *Record) error {
					if r.PageID != pg || r.Type != TypeUpdate || r.LSN <= last || r.LSN <= after {
						t.Errorf("RedoPage(%d, %d) visited %+v after LSN %d", pg, after, *r, last)
					}
					last = r.LSN
					return nil
				})
			}
		}()
	}
	others.Add(1)
	go func() {
		defer others.Done()
		for !done.Load() {
			after := l.Floor() - 1
			last := after
			err := l.Range(after, ^LSN(0), func(r *Record) error {
				if r.LSN != last+1 {
					t.Errorf("Range(%d, head) visited LSN %d after %d", after, r.LSN, last)
				}
				last = r.LSN
				return nil
			})
			if err != nil && !errors.Is(err, ErrTruncated) {
				t.Errorf("Range(%d, head): %v", after, err)
			}
		}
	}()
	others.Add(1)
	go func() {
		defer others.Done()
		for !done.Load() {
			if head := l.Head(); head > 64 {
				l.TruncateBefore(head - 64)
			}
		}
	}()
	appenders.Wait()
	done.Store(true)
	others.Wait()
	if l.Head() != 8001 {
		t.Fatalf("head %d after 8000 appends", l.Head())
	}
	checkChain(t, l, 0)
}
