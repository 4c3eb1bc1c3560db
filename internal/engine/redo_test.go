package engine

import (
	"bytes"
	"errors"
	"testing"

	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/wal"
)

// redoVal is a value of the test layout's size filled with b.
func redoVal(e *pipeEngine, b byte) []byte { return bytes.Repeat([]byte{b}, e.layout.ValSize) }

// update appends an update record for key to the pipeline's log and returns
// it as appended.
func (e *pipeEngine) update(key uint64, b byte) wal.Record {
	r := wal.Record{Type: wal.TypeUpdate, PageID: uint64(e.layout.PageOf(key)), Key: key, After: redoVal(e, b)}
	r.LSN = e.p.log.Append(r)
	return r
}

// Control records and records at or below the page LSN are skipped.
func TestRedoSkipsByPageLSN(t *testing.T) {
	e := newPipeEngine(t)
	data := e.layout.FormatPage(0).Bytes()
	page.Wrap(data).SetLSN(1)
	var applied []wal.LSN
	for _, r := range []wal.Record{
		{LSN: 1, Type: wal.TypeUpdate, Key: 0, After: redoVal(e, 1)}, // the image holds it
		{LSN: 2, Type: wal.TypeCommit},
		{LSN: 3, Type: wal.TypeUpdate, Key: 1, After: redoVal(e, 3)},
		{LSN: 4, Type: wal.TypeCommit},
		{LSN: 5, Type: wal.TypeAbort},
	} {
		ok, err := e.p.Redo(data, &r)
		if err != nil {
			t.Fatalf("Redo lsn %d: %v", r.LSN, err)
		}
		if ok {
			applied = append(applied, r.LSN)
		}
	}
	if len(applied) != 1 || applied[0] != 3 || page.Wrap(data).LSN() != 3 {
		t.Fatalf("applied %v, page LSN %d; want [3] and 3", applied, page.Wrap(data).LSN())
	}
	if v, err := e.layout.ReadValue(data, 0); err != nil || !bytes.Equal(v, make([]byte, e.layout.ValSize)) {
		t.Fatalf("key 0 = %v, %v: the record at the page LSN was applied", v, err)
	}
	if v, err := e.layout.ReadValue(data, 1); err != nil || !bytes.Equal(v, redoVal(e, 3)) {
		t.Fatalf("key 1 = %v, %v; want the redone value", v, err)
	}
}

// Running a tail twice applies each record once.
func TestRedoIdempotent(t *testing.T) {
	e := newPipeEngine(t)
	data := e.layout.FormatPage(0).Bytes()
	recs := []wal.Record{
		{LSN: 1, Type: wal.TypeUpdate, Key: 0, After: redoVal(e, 1)},
		{LSN: 2, Type: wal.TypeUpdate, Key: 0, After: redoVal(e, 2)},
	}
	pass := func() (n int) {
		for i := range recs {
			ok, err := e.p.Redo(data, &recs[i])
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				n++
			}
		}
		return n
	}
	if first, second := pass(), pass(); first != 2 || second != 0 {
		t.Fatalf("first=%d second=%d", first, second)
	}
}

// A record that cannot be applied is an error, not an applied record.
func TestRedoReportsFailedWrite(t *testing.T) {
	e := newPipeEngine(t)
	img := make([]byte, e.layout.PageSize) // no slots at all
	ok, err := e.p.Redo(img, &wal.Record{LSN: 7, Type: wal.TypeUpdate, PageID: 0, Key: 1, After: redoVal(e, 1)})
	if ok || !errors.Is(err, page.ErrBadSlot) {
		t.Fatalf("Redo onto a page without the slot: applied %v, err %v; want false and %v", ok, err, page.ErrBadSlot)
	}
}

func TestRedoImages(t *testing.T) {
	e := newPipeEngine(t)
	per := uint64(e.layout.PerPage)
	e.update(0, 1)       // lsn 1, page 0
	e.update(1, 2)       // lsn 2, page 0 again: one changed page
	e.update(per, 3)     // lsn 3, page 1: absent from the store
	e.update(2*per, 4)   // lsn 4, page 2: the store's image already holds it
	e.update(3*per, 5)   // lsn 5, page 3: above upto
	e.update(2*per+1, 6) // lsn 6, page 2: above upto
	held := e.layout.FormatPage(2).Bytes()
	if err := e.layout.WriteValue(held, 2*per, redoVal(e, 4), 4); err != nil {
		t.Fatal(err)
	}
	stored0 := e.layout.FormatPage(0).Bytes()
	images := map[page.ID][]byte{0: stored0, 2: held}
	before, before0 := bytes.Clone(held), bytes.Clone(stored0)

	changed, err := e.p.RedoImages(images, 0, 4)
	if err != nil || changed != 2 {
		t.Fatalf("RedoImages(0, 4) = %d changed, err %v; want 2 (pages 0 and 1)", changed, err)
	}
	if !bytes.Equal(stored0, before0) {
		t.Fatal("page 0's stored image was written in place: images are immutable, a redo replaces them")
	}
	for key, b := range map[uint64]byte{0: 1, 1: 2, per: 3} {
		if v, err := e.layout.ReadValue(images[e.layout.PageOf(key)], key); err != nil || !bytes.Equal(v, redoVal(e, b)) {
			t.Fatalf("key %d = %v, %v; want value %d", key, v, err, b)
		}
	}
	if !bytes.Equal(images[2], before) {
		t.Fatal("page 2 changed: its image held lsn 4 and lsn 6 lies above upto")
	}
	if _, ok := images[3]; ok {
		t.Fatal("page 3 was formatted for a record above upto")
	}
	if again, err := e.p.RedoImages(images, 0, 4); err != nil || again != 0 {
		t.Fatalf("second RedoImages(0, 4) = %d changed, err %v; want 0", again, err)
	}

	e.p.log.TruncateBefore(4)
	if n, err := e.p.RedoImages(images, 1, 6); !errors.Is(err, wal.ErrTruncated) || n != 0 {
		t.Fatalf("RedoImages from below the floor: %d changed, err %v; want 0 and ErrTruncated", n, err)
	}
	if n, err := e.p.RedoImages(images, 3, 6); err != nil || n != 2 {
		t.Fatalf("RedoImages(3, 6) = %d changed, err %v; want 2 (pages 3 and 2)", n, err)
	}
}
