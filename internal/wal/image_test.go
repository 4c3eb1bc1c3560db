package wal

import (
	"bytes"
	"testing"

	"github.com/disagglab/disagg/internal/page"
)

// Reserve and Append copy each image into the log and point the record at
// the copy: a caller that overwrites its buffer afterwards changes nothing
// the log or a holder of the record sees.
func TestReserveAndAppendCopyTheImage(t *testing.T) {
	l := NewLog()
	buf := []byte("first")
	recs := []Record{{Type: TypeUpdate, PageID: 3, Key: 1, After: buf}, {Type: TypeCommit}}
	l.Reserve(recs)
	if &recs[0].After[0] == &buf[0] {
		t.Fatal("Reserve left the record pointing at the caller's buffer")
	}
	l.Decide(recs, true)
	lsn := l.Append(Record{Type: TypeUpdate, PageID: 3, Key: 2, After: buf})
	held := recs[0].After
	copy(buf, "XXXXX")
	if string(held) != "first" {
		t.Fatalf("the reserved record's image changed with the caller's buffer: %q", held)
	}
	got, err := collect(l, 0, toHead)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || string(got[0].After) != "first" || got[2].LSN != lsn || string(got[2].After) != "first" {
		t.Fatalf("the log's records after the caller reused its buffer: %+v", got)
	}
	// An append to a record's image reallocates: the next image is intact.
	_ = append(got[0].After, '!')
	if string(got[2].After) != "first" {
		t.Fatalf("an append to one image wrote over the next: %q", got[2].After)
	}
	// An image longer than a chunk is copied into a buffer of its own.
	big := bytes.Repeat([]byte{9}, ChunkSize+1)
	l.Append(Record{Type: TypeUpdate, PageID: 3, Key: 3, After: big})
	big[0] = 0
	if got, err := collect(l, 3, toHead); err != nil || len(got) != 1 || len(got[0].After) != ChunkSize+1 || got[0].After[0] != 9 {
		t.Fatalf("an image longer than a chunk was not copied whole: err %v", err)
	}
}

// A log checkpointed every round holds a bounded number of chunks: the
// truncation drops every chunk whose images all lie below the floor.
func TestCheckpointedLogKeepsBoundedChunks(t *testing.T) {
	l := NewLog()
	img := bytes.Repeat([]byte{7}, 1536)
	const perRound = 240 // ~11 chunks of images a round
	most := 0
	for range 20 {
		for i := range perRound {
			l.Append(Record{Type: TypeUpdate, PageID: uint64(i % 4), After: img})
			l.Append(Record{Type: TypeCommit})
		}
		l.TruncateBefore(l.Head())
		l.mu.Lock()
		most = max(most, len(l.chunks))
		l.mu.Unlock()
	}
	if most > 1 {
		t.Fatalf("a log truncated to its head after every round kept %d chunks, want at most the one being filled", most)
	}
}

// Release hands the log's chunks to the page free list: the next
// page.Alloc of ChunkSize returns the one the images lie in (the race build
// poisons it instead). The log takes appends again afterwards.
func TestReleaseRecyclesChunks(t *testing.T) {
	l := NewLog()
	l.Append(Record{Type: TypeUpdate, PageID: 1, After: []byte("image")})
	got, err := collect(l, 0, toHead)
	if err != nil {
		t.Fatal(err)
	}
	held := got[0].After
	l.Release()
	reused := page.Alloc(ChunkSize)
	for i := range reused {
		reused[i] = 0xEE
	}
	if string(held) == "image" {
		t.Fatal("a released log's image was neither recycled nor poisoned")
	}
	l.Append(Record{Type: TypeUpdate, PageID: 1, After: []byte("again")})
	if got, err := collect(l, 1, toHead); err != nil || len(got) != 1 || string(got[0].After) != "again" {
		t.Fatalf("append after Release: %+v, %v", got, err)
	}
}
