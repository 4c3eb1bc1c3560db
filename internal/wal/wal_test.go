package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func sampleRecord() Record {
	return Record{
		LSN:    42,
		Type:   TypeUpdate,
		TxID:   7,
		PageID: 13,
		Key:    99,
		After:  []byte("newer"),
	}
}

// collect gathers the records Range(after, upto) visits, and its error.
func collect(l *Log, after, upto LSN) ([]Record, error) {
	var out []Record
	err := l.Range(after, upto, func(r *Record) error {
		out = append(out, *r)
		return nil
	})
	return out, err
}

// toHead is an upto past any head: the walk ends where the log does.
const toHead = ^LSN(0)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := sampleRecord()
	buf := r.Encode(nil)
	if len(buf) != r.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(buf), r.EncodedSize())
	}
	got, n, err := Decode(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("decode: %v, n=%d", err, n)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip: %+v vs %+v", got, r)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(nil); err != ErrShortRecord {
		t.Fatalf("nil: %v", err)
	}
	r := sampleRecord()
	buf := r.Encode(nil)
	if _, _, err := Decode(buf[:len(buf)-1]); err != ErrShortRecord {
		t.Fatalf("truncated: %v", err)
	}
	bad := append([]byte(nil), buf...)
	bad[8] = 200 // invalid type
	if _, _, err := Decode(bad); err == nil {
		t.Fatal("bad type accepted")
	}
}

// The wire header keeps its undo-length word, always 0: a record that sets
// it is corrupt, and its bytes are neither accepted nor copied.
func TestDecodeRejectsAnUndoImage(t *testing.T) {
	r := sampleRecord()
	buf := append(r.Encode(nil), "undo"...)
	binary.LittleEndian.PutUint32(buf[33:], 4)
	if got, n, err := Decode(buf); !errors.Is(err, ErrBadRecord) || n != 0 || got.After != nil {
		t.Fatalf("undo length 4: %+v, n=%d, %v; want ErrBadRecord", got, n, err)
	}
}

// A record's wire size is the 41-byte header and its redo image, whatever
// its type.
func TestEncodedSizeIsHeaderPlusRedo(t *testing.T) {
	for _, typ := range []Type{TypeUpdate, TypeCommit, TypeAbort} {
		for _, after := range [][]byte{nil, []byte("v"), make([]byte, 100)} {
			r := Record{LSN: 5, Type: typ, TxID: 2, PageID: 3, Key: 4, After: after}
			if got, want := r.EncodedSize(), 41+len(after); got != want || len(r.Encode(nil)) != want {
				t.Fatalf("%v with %d-byte image: EncodedSize %d, encoded %d, want %d",
					typ, len(after), got, len(r.Encode(nil)), want)
			}
		}
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(tx, pg, key uint64, after []byte, typeSel uint8) bool {
		r := Record{
			Type:   Type(typeSel%3) + TypeUpdate,
			TxID:   tx,
			PageID: pg,
			Key:    key,
			After:  after,
		}
		if len(r.After) == 0 {
			r.After = nil
		}
		got, n, err := Decode(r.Encode(nil))
		return err == nil && n == r.EncodedSize() &&
			got.Type == r.Type && got.TxID == r.TxID &&
			got.PageID == r.PageID && got.Key == r.Key &&
			bytes.Equal(got.After, r.After)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLogAppendAssignsMonotonicLSNs(t *testing.T) {
	l := NewLog()
	l1 := l.Append(Record{Type: TypeUpdate})
	l2 := l.Append(Record{Type: TypeCommit})
	if l1 != 1 || l2 != 2 || l.Head() != 3 || l.Len() != 2 {
		t.Fatalf("lsns %d,%d head %d len %d", l1, l2, l.Head(), l.Len())
	}
}

func TestLogAppendConcurrentUnique(t *testing.T) {
	l := NewLog()
	var mu sync.Mutex
	seen := make(map[LSN]bool)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				lsn := l.Append(Record{Type: TypeUpdate})
				mu.Lock()
				if seen[lsn] {
					t.Errorf("duplicate LSN %d", lsn)
				}
				seen[lsn] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if l.Len() != 4000 {
		t.Fatalf("len = %d", l.Len())
	}
}

func TestLogSinceAndTruncate(t *testing.T) {
	l := NewLog()
	for i := 0; i < 10; i++ {
		l.Append(Record{Type: TypeUpdate, Key: uint64(i)})
	}
	rs, err := collect(l, 7, toHead)
	if err != nil || len(rs) != 3 || rs[0].LSN != 8 {
		t.Fatalf("Range(7, head) = %d records, first %d, err %v", len(rs), rs[0].LSN, err)
	}
	l.TruncateBefore(9)
	if l.Len() != 2 {
		t.Fatalf("after truncate len = %d", l.Len())
	}
	if got, err := collect(l, 8, toHead); err != nil || got[0].LSN != 9 {
		t.Fatalf("first surviving LSN = %d, err %v", got[0].LSN, err)
	}
}

func TestTypeString(t *testing.T) {
	if TypeUpdate.String() != "update" || TypeCommit.String() != "commit" {
		t.Fatal("type names wrong")
	}
	if Type(99).String() == "" {
		t.Fatal("unknown type should still render")
	}
}

// TestReplayBelowFloorErrTruncated is the replay-below-horizon
// regression: a walk from an LSN older than the truncation point must
// fail with ErrTruncated, not silently yield the retained partial prefix
// as if it were the complete history.
func TestReplayBelowFloorErrTruncated(t *testing.T) {
	l := NewLog()
	for i := 0; i < 10; i++ {
		l.Append(Record{Type: TypeUpdate, Key: uint64(i)})
	}
	l.TruncateBefore(6) // records 1..5 are gone

	if rs, err := collect(l, 0, toHead); !errors.Is(err, ErrTruncated) || rs != nil {
		t.Fatalf("Range(0, head) below the floor: %d records, err = %v, want none and ErrTruncated", len(rs), err)
	}
	if rs, err := collect(l, 4, toHead); !errors.Is(err, ErrTruncated) || rs != nil {
		t.Fatalf("Range(4, head) below the floor: %d records, err = %v, want none and ErrTruncated", len(rs), err)
	}
	// Exactly at the floor boundary: records 6.. are all retained.
	rs, err := collect(l, 5, toHead)
	if err != nil {
		t.Fatalf("Range(5, head) at the floor: %v", err)
	}
	if len(rs) != 5 || rs[0].LSN != 6 {
		t.Fatalf("Range(5, head) = %d records, first %v", len(rs), rs[0].LSN)
	}
	if got := l.Floor(); got != 6 {
		t.Fatalf("Floor() = %d, want 6", got)
	}
	// The floor is monotonic: a stale (lower) truncation is a no-op.
	l.TruncateBefore(3)
	if got := l.Floor(); got != 6 {
		t.Fatalf("Floor() after stale truncate = %d, want 6", got)
	}
}

// TestReplayFreshLogFromZero: an untruncated log walks its full
// history from zero without error.
func TestReplayFreshLogFromZero(t *testing.T) {
	l := NewLog()
	for i := 0; i < 4; i++ {
		l.Append(Record{Type: TypeUpdate, Key: uint64(i)})
	}
	rs, err := collect(l, 0, toHead)
	if err != nil {
		t.Fatalf("Range(0, head) on fresh log: %v", err)
	}
	if len(rs) != 4 {
		t.Fatalf("Range(0, head) = %d records, want 4", len(rs))
	}
}

// Range indexes into the dense log instead of scanning it; every start must
// still select exactly the records a scan for LSN > after would, or fail
// with ErrTruncated when it lies below the floor, on an empty, a fresh, a
// truncated and a truncated-to-empty log.
func TestLogTailOffsets(t *testing.T) {
	type step struct {
		appends  int
		truncate LSN // 0: none
	}
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"empty", nil},
		{"fresh", []step{{appends: 10}}},
		{"truncated", []step{{appends: 10, truncate: 6}}},
		{"truncated then appended", []step{{appends: 10, truncate: 6}, {appends: 4}}},
		{"truncated to empty", []step{{appends: 10, truncate: 11}}},
		{"truncated to empty then appended", []step{{appends: 10, truncate: 11}, {appends: 3}}},
		{"truncated below the floor", []step{{appends: 10, truncate: 6}, {truncate: 3}, {appends: 2}}},
		{"truncated past the head then appended", []step{{appends: 10, truncate: 14}, {appends: 3}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLog()
			var want []LSN // LSNs retained
			for _, s := range tc.steps {
				for i := 0; i < s.appends; i++ {
					want = append(want, l.Append(Record{Type: TypeUpdate, PageID: uint64(i % 3)}))
				}
				if s.truncate != 0 {
					l.TruncateBefore(s.truncate)
					for len(want) > 0 && want[0] < s.truncate {
						want = want[1:]
					}
				}
			}
			head, floor := l.Head(), l.Floor()
			// after < floor, == floor-1, inside, == head-1, >= head, and the
			// largest LSN there is.
			for _, after := range []LSN{0, floor - 1, floor, (floor + head) / 2, head - 2, head - 1, head, head + 5, ^LSN(0)} {
				var exp []LSN
				for _, lsn := range want {
					if lsn > after {
						exp = append(exp, lsn)
					}
				}
				got, err := collect(l, after, toHead)
				// after+1 wraps for the largest LSN: nothing lies past it, so
				// that walk is empty, not truncated.
				if after != toHead && after+1 < floor {
					if !errors.Is(err, ErrTruncated) || got != nil {
						t.Fatalf("Range(%d, head) below floor %d: %d records, err %v", after, floor, len(got), err)
					}
					continue
				}
				if err != nil || len(got) != len(exp) {
					t.Fatalf("Range(%d, head) = %d records, err %v; want %d (floor %d, head %d)", after, len(got), err, len(exp), floor, head)
				}
				for i := range got {
					if got[i].LSN != exp[i] {
						t.Fatalf("Range(%d, head)[%d].LSN = %d, want %d", after, i, got[i].LSN, exp[i])
					}
				}
			}
		})
	}
}

// fn gets a copy: TruncateBefore compacts the log in place, and that must
// not shift records under the one a callback still holds; nor may writing
// that copy change the log.
func TestLogTailDoesNotAliasLog(t *testing.T) {
	l := NewLog()
	for i := 0; i < 10; i++ {
		l.Append(Record{Type: TypeUpdate, Key: uint64(i)})
	}
	err := l.Range(7, 8, func(r *Record) error {
		l.TruncateBefore(8)
		l.Append(Record{Type: TypeUpdate, Key: 99})
		if r.LSN != 8 || r.Key != 7 {
			t.Fatalf("held record = LSN %d key %d after truncation", r.LSN, r.Key)
		}
		r.Key = 1234
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := collect(l, 7, 8); err != nil || got[0].Key != 7 {
		t.Fatalf("writing the callback's record changed the log: key %d, err %v", got[0].Key, err)
	}
}
