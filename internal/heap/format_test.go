package heap_test

import (
	"bytes"
	"testing"

	"github.com/disagglab/disagg/internal/engine/enginetest"
	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/page"
)

// referencePage builds page id from its parts: the page layout's cells,
// each holding the EncodeRecord cell of its key.
func referencePage(t *testing.T, l heap.Layout, id page.ID) []byte {
	t.Helper()
	buf := make([]byte, l.PageSize)
	cell := len(l.EncodeRecord(0, nil))
	if err := page.Format(buf, l.PerPage, cell); err != nil {
		t.Fatal(err)
	}
	p := page.Wrap(buf)
	base := uint64(id) * uint64(l.PerPage)
	for s := 0; s < l.PerPage; s++ {
		c, err := p.Cell(s)
		if err != nil {
			t.Fatal(err)
		}
		copy(c, l.EncodeRecord(base+uint64(s), nil))
	}
	return buf
}

// Format writes the reference image byte for byte, over whatever the buffer
// held, on E29's layout and two test layouts; FormatPage returns the same.
func TestFormatMatchesEncodedRecords(t *testing.T) {
	for _, sz := range []struct{ page, val int }{{8192, 1536}, {4096, 32}, {1024, 16}} {
		l, err := heap.NewLayout(sz.page, sz.val)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []page.ID{0, 1, 7, 100_000} {
			want := referencePage(t, l, id)
			buf := bytes.Repeat([]byte{0xAA}, l.PageSize)
			l.Format(buf, id)
			if !bytes.Equal(buf, want) {
				t.Errorf("%d/%d page %d: Format differs from the EncodeRecord image", sz.page, sz.val, id)
			}
			if !bytes.Equal(l.FormatPage(id).Bytes(), want) {
				t.Errorf("%d/%d page %d: FormatPage differs from the EncodeRecord image", sz.page, sz.val, id)
			}
		}
	}
}

var sink []byte

// Format allocates nothing and FormatPage only its page buffer. The race
// build's instrumentation allocates on its own, so there the bounds are
// skipped.
func TestFormatAllocates(t *testing.T) {
	l, err := heap.NewLayout(8192, 1536)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, l.PageSize)
	format := testing.AllocsPerRun(100, func() { l.Format(buf, 3) })
	formatPage := testing.AllocsPerRun(100, func() { sink = l.FormatPage(3).Bytes() })
	if enginetest.RaceBuild() {
		t.Skipf("race build: Format %.0f, FormatPage %.0f allocs", format, formatPage)
	}
	if format != 0 {
		t.Errorf("Format: %.0f allocs, want 0", format)
	}
	if formatPage != 1 {
		t.Errorf("FormatPage: %.0f allocs, want 1", formatPage)
	}
}

func TestFormatRejectsOtherSizes(t *testing.T) {
	l, _ := heap.NewLayout(1024, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("Format into a buffer of another size did not panic")
		}
	}()
	l.Format(make([]byte, 2048), 0)
}
