package wal

import (
	"bytes"
	"errors"
	"testing"
)

func encodeStream(recs []Record) []byte {
	var out []byte
	for i := range recs {
		out = recs[i].Encode(out)
	}
	return out
}

func sampleRecords() []Record {
	return []Record{
		{LSN: 1, Type: TypeUpdate, TxID: 1, PageID: 3, Key: 10, After: []byte("after-1")},
		{LSN: 2, Type: TypeUpdate, TxID: 1, PageID: 3, Key: 11, After: []byte("after-2")},
		{LSN: 3, Type: TypeCommit, TxID: 1},
	}
}

// A clean stream decodes fully with every byte consumed.
func TestDecodePrefixCleanStream(t *testing.T) {
	stream := encodeStream(sampleRecords())
	recs, used, err := DecodePrefix(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || used != len(stream) {
		t.Fatalf("got %d recs, %d/%d bytes", len(recs), used, len(stream))
	}
	if recs[2].Type != TypeCommit || recs[1].Key != 11 {
		t.Fatalf("records garbled: %+v", recs)
	}
}

// A decoded After is the stream's own bytes, capped at the record's end:
// decoding copies nothing, and appending to one record's image reallocates
// instead of writing over the next record.
func TestDecodedAfterAliasesItsInput(t *testing.T) {
	stream := encodeStream(sampleRecords())
	recs, _, err := DecodePrefix(stream)
	if err != nil {
		t.Fatal(err)
	}
	first := recs[0].After
	if start := recordHeader; &first[0] != &stream[start] || cap(first) != len(first) {
		t.Fatalf("After is not stream[%d:%d] capped (cap %d)", start, start+len(first), cap(first))
	}
	grown := append(first, "XXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXX"...)
	if &grown[0] == &stream[recordHeader] {
		t.Fatal("append grew the image in place")
	}
	again, _, err := DecodePrefix(stream)
	if err != nil || len(again) != 3 || !bytes.Equal(again[1].After, []byte("after-2")) || again[2].Type != TypeCommit {
		t.Fatalf("the append clobbered the next record: %+v, %v", again, err)
	}
}

// Truncation anywhere inside the tail record — header or payload — is what
// a crash mid-append leaves on disk. Reopen must keep every whole record
// before the tear and silently discard the tail.
func TestDecodePrefixTornTail(t *testing.T) {
	full := encodeStream(sampleRecords())
	two := encodeStream(sampleRecords()[:2])
	for cut := len(two) + 1; cut < len(full); cut++ {
		recs, used, err := DecodePrefix(full[:cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(recs) != 2 {
			t.Fatalf("cut %d: got %d whole records, want 2", cut, len(recs))
		}
		if used != len(two) {
			t.Fatalf("cut %d: consumed %d bytes, want %d", cut, used, len(two))
		}
	}
	// Torn mid-payload of the second record: only the first survives.
	recs, _, err := DecodePrefix(full[:len(two)-3])
	if err != nil || len(recs) != 1 {
		t.Fatalf("mid-payload tear: %d recs, %v", len(recs), err)
	}
	// Torn inside the very first header: nothing survives, no error.
	recs, used, err := DecodePrefix(full[:5])
	if err != nil || len(recs) != 0 || used != 0 {
		t.Fatalf("first-header tear: %d recs, used %d, %v", len(recs), used, err)
	}
}

// Structural corruption (an invalid type byte) is NOT a crash artifact and
// must be reported, preserving the records before it.
func TestDecodePrefixBadRecord(t *testing.T) {
	stream := encodeStream(sampleRecords())
	one := len(encodeStream(sampleRecords()[:1]))
	stream[one+8] = 0xFF // type byte of the second record
	recs, used, err := DecodePrefix(stream)
	if !errors.Is(err, ErrBadRecord) {
		t.Fatalf("want ErrBadRecord, got %v", err)
	}
	if len(recs) != 1 || used != one {
		t.Fatalf("got %d recs, %d bytes before corruption", len(recs), used)
	}
}

// An empty buffer is a valid (empty) log.
func TestDecodePrefixEmpty(t *testing.T) {
	recs, used, err := DecodePrefix(nil)
	if err != nil || len(recs) != 0 || used != 0 {
		t.Fatalf("empty: %d recs, used %d, %v", len(recs), used, err)
	}
}

// Any byte string decodes to a clean prefix whose re-encoding is that prefix
// byte for byte: the codec keeps every header field and drops nothing.
func FuzzDecodePrefix(f *testing.F) {
	stream := encodeStream(sampleRecords())
	f.Add(stream)
	f.Add(stream[:len(stream)-3])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		recs, used, err := DecodePrefix(p)
		if used < 0 || used > len(p) {
			t.Fatalf("used %d of %d bytes", used, len(p))
		}
		if err != nil && !errors.Is(err, ErrBadRecord) {
			t.Fatalf("error %v, want nil or ErrBadRecord", err)
		}
		if got := encodeStream(recs); !bytes.Equal(got, p[:used]) {
			t.Fatalf("re-encoded %d records to %x, want the %d-byte prefix %x", len(recs), got, used, p[:used])
		}
	})
}
