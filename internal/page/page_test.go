package page

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func TestLSNRoundTrip(t *testing.T) {
	p := Wrap(make([]byte, 128))
	p.SetLSN(0xDEADBEEF12345678)
	if p.LSN() != 0xDEADBEEF12345678 {
		t.Fatalf("LSN = %x", p.LSN())
	}
}

// packed builds the page Format promises, field by field from the layout in
// the package doc: n zeroed cells of size bytes packed from the back.
func packed(pageSize, n, size int) []byte {
	buf := make([]byte, pageSize)
	off := pageSize
	for i := 0; i < n; i++ {
		off -= size
		binary.LittleEndian.PutUint16(buf[headerSize+i*slotSize:], uint16(off))
		binary.LittleEndian.PutUint16(buf[headerSize+i*slotSize+2:], uint16(size))
	}
	binary.LittleEndian.PutUint16(buf[8:], uint16(n))
	binary.LittleEndian.PutUint16(buf[10:], uint16(off))
	return buf
}

// Format over a dirty buffer builds the packed page, up to a full page, and
// every cell reads back as its own zeroed slice.
func TestFormatPacksCellsFromTheBack(t *testing.T) {
	const size, cell = 256, 20
	for n := 0; headerSize+n*(slotSize+cell) <= size; n++ {
		buf := bytes.Repeat([]byte{0xAA}, size)
		if err := Format(buf, n, cell); err != nil {
			t.Fatalf("%d cells: %v", n, err)
		}
		if !bytes.Equal(buf, packed(size, n, cell)) {
			t.Fatalf("%d cells: Format differs from the packed layout", n)
		}
		p := Wrap(buf)
		for i := 0; i < n; i++ {
			c, err := p.Cell(i)
			if err != nil || len(c) != cell || &c[0] != &buf[size-(i+1)*cell] {
				t.Fatalf("%d cells: slot %d = %d bytes, %v; want the %d bytes before slot %d's", n, i, len(c), err, cell, i-1)
			}
		}
	}
}

// One cell more than fits fails with ErrPageFull and leaves the buffer
// alone.
func TestPageFull(t *testing.T) {
	const size, cell = 256, 20
	buf := bytes.Repeat([]byte{0xAA}, size)
	if err := Format(buf, (size-headerSize)/(slotSize+cell)+1, cell); err != ErrPageFull {
		t.Fatalf("one cell too many: err = %v, want ErrPageFull", err)
	}
	if !bytes.Equal(buf, bytes.Repeat([]byte{0xAA}, size)) {
		t.Fatal("a failed Format wrote to the buffer")
	}
}

// A cell whose length would read as the no-cell marker, or longer, fails
// with ErrCellTooBig however large the buffer, and leaves it alone.
func TestCellTooBig(t *testing.T) {
	buf := bytes.Repeat([]byte{0xAA}, 2*noCell)
	for _, cell := range []int{noCell, noCell + 1} {
		if err := Format(buf, 1, cell); err != ErrCellTooBig {
			t.Fatalf("cell of %d bytes: err = %v, want ErrCellTooBig", cell, err)
		}
	}
	if !bytes.Equal(buf, bytes.Repeat([]byte{0xAA}, 2*noCell)) {
		t.Fatal("a failed Format wrote to the buffer")
	}
}

// Wrap reads an image in place: Bytes is the wrapped buffer, and a page
// LSN set through one wrapper is the image's, read by any other.
func TestWrapReadsTheImageInPlace(t *testing.T) {
	buf := make([]byte, 128)
	if err := Format(buf, 2, 16); err != nil {
		t.Fatal(err)
	}
	p := Wrap(buf)
	if &p.Bytes()[0] != &buf[0] || len(p.Bytes()) != len(buf) {
		t.Fatal("Bytes is not the wrapped buffer")
	}
	p.SetLSN(42)
	if q := Wrap(buf); q.LSN() != 42 || q.NumSlots() != 2 {
		t.Fatalf("second wrapper reads LSN %d, %d slots; want 42, 2", q.LSN(), q.NumSlots())
	}
	c, _ := p.Cell(1)
	c[0] = 7
	if buf[len(buf)-32] != 7 {
		t.Fatal("a cell write did not land in the wrapped buffer")
	}
}

// Cell refuses a slot outside the directory or holding no cell, and a slot
// whose cell runs past the buffer (a torn or poisoned image).
func TestCellChecksBounds(t *testing.T) {
	buf := make([]byte, 128)
	if err := Format(buf, 3, 8); err != nil {
		t.Fatal(err)
	}
	p := Wrap(buf)
	for _, slot := range []int{-1, 3} {
		if _, err := p.Cell(slot); err != ErrBadSlot {
			t.Fatalf("slot %d of 3: err = %v, want ErrBadSlot", slot, err)
		}
	}
	p.setSlot(1, 0, noCell)
	if _, err := p.Cell(1); err != ErrBadSlot {
		t.Fatalf("slot of length %#x: err = %v, want ErrBadSlot", noCell, err)
	}
	p.setSlot(2, 124, 8)
	if _, err := p.Cell(2); err != ErrCorruptPage {
		t.Fatalf("cell past the buffer: err = %v, want ErrCorruptPage", err)
	}
	if _, err := Wrap(bytes.Repeat([]byte{0xFF}, 128)).Cell(0); err != ErrBadSlot {
		t.Fatalf("released (0xFF-poisoned) buffer: err = %v, want ErrBadSlot", err)
	}
}
