package heap

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"github.com/disagglab/disagg/internal/page"
)

func TestNewLayout(t *testing.T) {
	l, err := NewLayout(8192, 100)
	if err != nil {
		t.Fatal(err)
	}
	// cell = 108, +4 slot dir => 112 per record; (8192-12)/112 = 73.
	if l.PerPage != 73 {
		t.Fatalf("PerPage = %d, want 73", l.PerPage)
	}
}

func TestNewLayoutErrors(t *testing.T) {
	if _, err := NewLayout(10, 100); err == nil {
		t.Fatal("tiny page accepted")
	}
	if _, err := NewLayout(8192, 0); err == nil {
		t.Fatal("zero value size accepted")
	}
	if _, err := NewLayout(128, 4000); err == nil {
		t.Fatal("value larger than page accepted")
	}
}

func TestKeyMapping(t *testing.T) {
	l, _ := NewLayout(8192, 100)
	per := uint64(l.PerPage)
	if l.PageOf(0) != 0 || l.SlotOf(0) != 0 {
		t.Fatal("key 0 mapping")
	}
	if l.PageOf(per-1) != 0 || l.PageOf(per) != 1 {
		t.Fatal("page boundary mapping")
	}
	if l.SlotOf(per+3) != 3 {
		t.Fatal("slot mapping")
	}
}

func TestRecordCodec(t *testing.T) {
	l, _ := NewLayout(4096, 16)
	cell := l.EncodeRecord(77, []byte("value"))
	k, v, err := l.DecodeRecord(cell)
	if err != nil {
		t.Fatal(err)
	}
	if k != 77 {
		t.Fatalf("key = %d", k)
	}
	if !bytes.Equal(v[:5], []byte("value")) {
		t.Fatalf("value = %q", v)
	}
	if len(v) != 16 {
		t.Fatalf("value padded to %d, want 16", len(v))
	}
	if _, _, err := l.DecodeRecord(cell[:3]); err == nil {
		t.Fatal("short cell accepted")
	}
}

func TestFormatPageAndReadWrite(t *testing.T) {
	l, _ := NewLayout(4096, 32)
	p := l.FormatPage(2)
	base := uint64(2) * uint64(l.PerPage)
	// All keys of page 2 readable with zero values.
	v, err := l.ReadValue(p.Bytes(), base+5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v, make([]byte, 32)) {
		t.Fatalf("initial value not zero: %v", v)
	}
	// Write and read back, checking the LSN stamp.
	if err := l.WriteValue(p.Bytes(), base+5, []byte("hello"), 88); err != nil {
		t.Fatal(err)
	}
	if p.LSN() != 88 {
		t.Fatalf("page LSN = %d", p.LSN())
	}
	v, _ = l.ReadValue(p.Bytes(), base+5)
	if !bytes.Equal(v[:5], []byte("hello")) {
		t.Fatalf("read back %q", v)
	}
	// Neighboring keys untouched.
	v, _ = l.ReadValue(p.Bytes(), base+6)
	if !bytes.Equal(v, make([]byte, 32)) {
		t.Fatal("neighbor clobbered")
	}
}

func TestReadValueWrongPage(t *testing.T) {
	l, _ := NewLayout(4096, 32)
	p := l.FormatPage(0)
	// Key from page 3 looked up in page 0's bytes: the key check fires.
	if _, err := l.ReadValue(p.Bytes(), uint64(3*l.PerPage)); err == nil {
		t.Fatal("cross-page read accepted")
	}
}

func TestPropertyWriteReadAnyKey(t *testing.T) {
	l, _ := NewLayout(2048, 24)
	f := func(keyRaw uint64, val []byte) bool {
		key := keyRaw % 100_000
		if len(val) > 24 {
			val = val[:24]
		}
		p := l.FormatPage(l.PageOf(key))
		if err := l.WriteValue(p.Bytes(), key, val, 1); err != nil {
			return false
		}
		got, err := l.ReadValue(p.Bytes(), key)
		if err != nil {
			return false
		}
		return bytes.Equal(got[:len(val)], val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// WriteValue rewrites a cell where it lies; the page it leaves must be byte
// for byte the one copying EncodeRecord's cell over the old one builds,
// including the zeroed tail of a short value over a longer old one and the
// truncation of an over-long value.
func TestWriteValueMatchesEncodeRecord(t *testing.T) {
	l, _ := NewLayout(1024, 16)
	const key = 3
	reference := func(data []byte, val []byte, lsn uint64) error {
		p := page.Wrap(data)
		cell, err := p.Cell(l.SlotOf(key))
		if err != nil {
			return err
		}
		copy(cell, l.EncodeRecord(key, val))
		if lsn > 0 {
			p.SetLSN(lsn)
		}
		return nil
	}
	full := bytes.Repeat([]byte{0xAB}, 16)
	for _, tc := range []struct {
		name string
		val  []byte
		lsn  uint64
	}{
		{name: "short", val: []byte("abc"), lsn: 9},
		{name: "empty", val: nil, lsn: 9},
		{name: "exact", val: []byte("0123456789abcdef"), lsn: 9},
		{name: "over-long", val: []byte("0123456789abcdefXYZ"), lsn: 9},
		{name: "no stamp", val: []byte("abc")},
	} {
		got, want := l.FormatPage(0).Bytes(), l.FormatPage(0).Bytes()
		for _, data := range [][]byte{got, want} {
			if err := reference(data, full, 5); err != nil {
				t.Fatal(err)
			}
		}
		if g, w := l.WriteValue(got, key, tc.val, tc.lsn), reference(want, tc.val, tc.lsn); g != w {
			t.Errorf("%s: err = %v, EncodeRecord path returns %v", tc.name, g, w)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: page differs from the EncodeRecord path", tc.name)
		}
	}
	if err := l.WriteValue(make([]byte, 1024), key, nil, 1); !errors.Is(err, page.ErrBadSlot) {
		t.Fatalf("page without slots: err = %v, want ErrBadSlot", err)
	}
}

// Format gives every cell the layout's size, so a cell of another size is a
// corrupt page: WriteValue must refuse it and leave every byte as it was,
// the page LSN included.
func TestWriteValueRefusesCellOfAnotherSize(t *testing.T) {
	l, _ := NewLayout(1024, 16)
	const key = 3
	for _, size := range []int{recordOverhead + l.ValSize - 1, recordOverhead + l.ValSize + 1, 3} {
		data := make([]byte, l.PageSize)
		if err := page.Format(data, 8, size); err != nil {
			t.Fatal(err)
		}
		page.Wrap(data).SetLSN(5)
		before := bytes.Clone(data)
		if err := l.WriteValue(data, key, []byte("abc"), 9); !errors.Is(err, page.ErrCorruptPage) {
			t.Errorf("cell of %d bytes: err = %v, want ErrCorruptPage", size, err)
		}
		if !bytes.Equal(data, before) {
			t.Errorf("cell of %d bytes: refused write changed the page", size)
		}
	}
}

// Commits to different keys of one page may apply out of LSN order. The
// later apply used to move the page LSN down, and under the lowered LSN a
// checkpoint's or recovery's redo guard (skip records at or below the page
// LSN) re-applied an older record over a newer value.
func TestWriteValueNeverLowersPageLSN(t *testing.T) {
	l, _ := NewLayout(4096, 32)
	p := l.FormatPage(0)
	if err := l.WriteValue(p.Bytes(), 1, []byte("later"), 41); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteValue(p.Bytes(), 2, []byte("earlier"), 9); err != nil {
		t.Fatal(err)
	}
	if p.LSN() != 41 {
		t.Fatalf("page LSN = %d after applying LSN 41 then LSN 9, want 41", p.LSN())
	}
	a, _ := l.ReadValue(p.Bytes(), 1)
	b, _ := l.ReadValue(p.Bytes(), 2)
	if !bytes.HasPrefix(a, []byte("later")) || !bytes.HasPrefix(b, []byte("earlier")) {
		t.Fatalf("values = %q, %q: both writes must land", a, b)
	}
}
