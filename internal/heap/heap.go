// Package heap provides the fixed-record heap-table layout shared by the
// OLTP engines: a deterministic key -> (page, slot) mapping over slotted
// pages, plus the record codec. Engines differ in *where* pages live and
// how writes are made durable; they share this layout so that workloads,
// recovery, and experiments are comparable across engines.
package heap

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/disagglab/disagg/internal/page"
)

// Layout describes a table of fixed-size records packed into slotted pages.
type Layout struct {
	PageSize int
	ValSize  int
	PerPage  int
}

// recordOverhead is the cell header: 8-byte key.
const recordOverhead = 8

// NewLayout computes how many records of valSize fit in a page of pageSize.
func NewLayout(pageSize, valSize int) (Layout, error) {
	if pageSize < 64 || valSize < 1 {
		return Layout{}, fmt.Errorf("heap: bad layout %d/%d", pageSize, valSize)
	}
	cell := recordOverhead + valSize
	// Page header (12) + 4 bytes of slot directory per cell.
	per := (pageSize - 12) / (cell + 4)
	if per < 1 {
		return Layout{}, errors.New("heap: value too large for page")
	}
	return Layout{PageSize: pageSize, ValSize: valSize, PerPage: per}, nil
}

// PageOf maps a key to its page.
func (l Layout) PageOf(key uint64) page.ID { return page.ID(key / uint64(l.PerPage)) }

// SlotOf maps a key to its slot within the page.
func (l Layout) SlotOf(key uint64) int { return int(key % uint64(l.PerPage)) }

// EncodeRecord builds a cell: key followed by the fixed-size value
// (padded/truncated to ValSize).
func (l Layout) EncodeRecord(key uint64, val []byte) []byte {
	cell := make([]byte, recordOverhead+l.ValSize)
	binary.LittleEndian.PutUint64(cell, key)
	copy(cell[recordOverhead:], val)
	return cell
}

// DecodeRecord splits a cell into key and value.
func (l Layout) DecodeRecord(cell []byte) (uint64, []byte, error) {
	if len(cell) != recordOverhead+l.ValSize {
		return 0, nil, fmt.Errorf("heap: cell size %d, want %d", len(cell), recordOverhead+l.ValSize)
	}
	return binary.LittleEndian.Uint64(cell), cell[recordOverhead:], nil
}

// FormatPage builds a fully populated page for the given page ID: every
// slot holds a zero-value record for its key. Engines use this to
// pre-materialize tables.
func (l Layout) FormatPage(id page.ID) *page.Page {
	buf := make([]byte, l.PageSize)
	l.Format(buf, id)
	return page.Wrap(buf)
}

// Format writes page id's formatted image, the one FormatPage returns, into
// buf, a PageSize buffer, over whatever it held: the slot directory and
// every cell in place, slot s holding the zero-value record of key
// id*PerPage+s. It allocates nothing, so a fetch path formats straight into
// the buffer that becomes its frame.
func (l Layout) Format(buf []byte, id page.ID) {
	if len(buf) != l.PageSize {
		panic(fmt.Sprintf("heap: Format into %d bytes, page size %d", len(buf), l.PageSize))
	}
	if err := page.Format(buf, l.PerPage, recordOverhead+l.ValSize); err != nil {
		// Layout guarantees fit; a failure here is a bug.
		panic(fmt.Sprintf("heap: Format overflow: %v", err))
	}
	p := page.Wrap(buf)
	base := uint64(id) * uint64(l.PerPage)
	for s := 0; s < l.PerPage; s++ {
		cell, _ := p.Cell(s)
		binary.LittleEndian.PutUint64(cell, base+uint64(s))
	}
}

// ReadValue extracts the value for key from the page bytes.
func (l Layout) ReadValue(data []byte, key uint64) ([]byte, error) {
	p := page.Wrap(data)
	cell, err := p.Cell(l.SlotOf(key))
	if err != nil {
		return nil, err
	}
	k, v, err := l.DecodeRecord(cell)
	if err != nil {
		return nil, err
	}
	if k != key {
		return nil, fmt.Errorf("heap: page holds key %d at slot for key %d", k, key)
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, nil
}

// Fit returns val at the layout's value size, the one length every engine
// stores and reads back: val itself when it has that length, else a copy
// truncated or padded with zeros to it, as WriteValue writes it into a cell.
func (l Layout) Fit(val []byte) []byte {
	if len(val) == l.ValSize {
		return val
	}
	out := make([]byte, l.ValSize)
	copy(out, val)
	return out
}

// WriteValue updates the value for key in the page bytes in place and
// raises the page LSN to lsn. It never lowers it: commits to different keys
// of one page may apply out of LSN order, and under a lowered page LSN a
// redo guard (skip records at or below it) re-applies an older record over
// the newer value. The cell is rewritten where it lies, byte for byte what
// EncodeRecord would build. Format gives every cell the layout's size, so a
// cell of any other size is a corrupt page: WriteValue refuses it and leaves
// the page as it was.
func (l Layout) WriteValue(data []byte, key uint64, val []byte, lsn uint64) error {
	p := page.Wrap(data)
	cell, err := p.Cell(l.SlotOf(key))
	if err != nil {
		return err
	}
	if len(cell) != recordOverhead+l.ValSize {
		return fmt.Errorf("%w: cell size %d, want %d", page.ErrCorruptPage, len(cell), recordOverhead+l.ValSize)
	}
	binary.LittleEndian.PutUint64(cell, key)
	n := copy(cell[recordOverhead:], val)
	clear(cell[recordOverhead+n:])
	if lsn > p.LSN() {
		p.SetLSN(lsn)
	}
	return nil
}
