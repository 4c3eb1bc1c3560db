// Package page implements the slotted database page used by every storage
// engine in the repository: a fixed-size byte buffer with a header (page
// LSN, slot count, free-space pointer), a slot directory growing from the
// front, and cells growing from the back.
//
// Layout:
//
//	[0:8)   pageLSN
//	[8:10)  slot count
//	[10:12) free-space offset (start of the cell area)
//	[12:..) slot directory, 4 bytes per slot: offset(2) | length(2)
//	[..:N)  cells
//
// Format lays a page out once, as n cells of one size; the heap layout then
// rewrites those cells in place, so a page never gains, grows or loses a
// cell. A slot whose length reads 0xFFFF is not a cell.
//
// The package also keeps the free list of page buffers (free.go): a buffer
// pool hands Release the frame it evicts and a fetch path fills the buffer
// Alloc returns, so a page miss reuses the buffer the previous miss freed.
// Release is a transfer of ownership with no check behind it; the race build
// (free_race.go) recycles nothing and poisons released buffers instead.
package page

import (
	"encoding/binary"
	"errors"
)

// DefaultSize is the page size used by the engines unless configured.
const DefaultSize = 8192

// ID identifies a page within a table or database.
type ID uint64

const (
	headerSize = 12
	slotSize   = 4
	noCell     = 0xFFFF // a slot length no cell has
)

// Common page errors.
var (
	ErrPageFull    = errors.New("page: full")
	ErrBadSlot     = errors.New("page: bad slot")
	ErrCellTooBig  = errors.New("page: cell larger than page")
	ErrCorruptPage = errors.New("page: corrupt")
)

// Page wraps a byte buffer with slotted-page accessors. The zero value is
// not usable; call Wrap.
type Page struct {
	buf []byte
}

// Format clears buf and lays it out as a page of n zeroed cells of size
// bytes, packed from the back: slot 0's cell ends at len(buf) and slot i's
// ends where slot i-1's begins, and the free-space offset is the start of
// the last cell. It fails, leaving buf as it was, when the cells do not fit.
func Format(buf []byte, n, size int) error {
	if size >= noCell {
		return ErrCellTooBig
	}
	if headerSize+n*(slotSize+size) > len(buf) {
		return ErrPageFull
	}
	clear(buf)
	p := Page{buf: buf}
	off := len(buf)
	for i := 0; i < n; i++ {
		off -= size
		p.setSlot(i, uint16(off), uint16(size))
	}
	p.setNumSlots(n)
	p.setFreeOff(uint16(off))
	return nil
}

// Wrap interprets an existing buffer as a page without validation; Cell
// bounds-checks every slot it reads.
func Wrap(buf []byte) *Page { return &Page{buf: buf} }

// Bytes returns the underlying buffer (the page's serialized form).
func (p *Page) Bytes() []byte { return p.buf }

// LSN returns the page LSN (the LSN of the last log record applied).
func (p *Page) LSN() uint64 { return binary.LittleEndian.Uint64(p.buf[0:8]) }

// SetLSN records the LSN of the last applied log record.
func (p *Page) SetLSN(lsn uint64) { binary.LittleEndian.PutUint64(p.buf[0:8], lsn) }

// NumSlots returns the size of the slot directory.
func (p *Page) NumSlots() int { return int(binary.LittleEndian.Uint16(p.buf[8:10])) }

func (p *Page) setNumSlots(n int) { binary.LittleEndian.PutUint16(p.buf[8:10], uint16(n)) }

func (p *Page) setFreeOff(off uint16) { binary.LittleEndian.PutUint16(p.buf[10:12], off) }

func (p *Page) slotAt(i int) (off, length uint16) {
	base := headerSize + i*slotSize
	return binary.LittleEndian.Uint16(p.buf[base:]), binary.LittleEndian.Uint16(p.buf[base+2:])
}

func (p *Page) setSlot(i int, off, length uint16) {
	base := headerSize + i*slotSize
	binary.LittleEndian.PutUint16(p.buf[base:], off)
	binary.LittleEndian.PutUint16(p.buf[base+2:], length)
}

// Cell returns the cell stored in the given slot. The returned slice
// aliases the page buffer; callers must copy before retaining it.
func (p *Page) Cell(slot int) ([]byte, error) {
	if slot < 0 || slot >= p.NumSlots() {
		return nil, ErrBadSlot
	}
	off, l := p.slotAt(slot)
	if l == noCell {
		return nil, ErrBadSlot
	}
	if int(off)+int(l) > len(p.buf) {
		return nil, ErrCorruptPage
	}
	return p.buf[off : off+l], nil
}
