// Package query is the vectorized relational mini-engine used by the OLAP
// experiments: columnar tables with block-level zone maps (min-max
// pruning, §2.2), column sources backed by local DRAM, disaggregated
// memory, CXL, or object storage, and pull-based vectorized operators
// (a scan that filters and projects, hash join with spilling, hash
// aggregation).
package query

import (
	"errors"
	"fmt"
)

// BlockRows is the number of rows per storage block (micro-partition
// granule for zone maps and I/O).
const BlockRows = 4096

// Schema names the columns of a table. All values are int64 (dates,
// cents-scaled decimals and dictionary-coded strings all fit).
type Schema struct {
	Cols []string
}

// ColIndex resolves a column name.
func (s Schema) ColIndex(name string) (int, error) {
	for i, c := range s.Cols {
		if c == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("query: no column %q", name)
}

// Table is an in-memory columnar table: the ground-truth data from which
// column sources are built.
type Table struct {
	Schema Schema
	Cols   [][]int64
}

// NewTable creates an empty table with the given columns.
func NewTable(cols ...string) *Table {
	t := &Table{Schema: Schema{Cols: cols}}
	t.Cols = make([][]int64, len(cols))
	return t
}

// NewSizedTable is NewTable with every column's capacity set to rows, so
// appending that many rows grows no column.
func NewSizedTable(rows int, cols ...string) *Table {
	t := NewTable(cols...)
	for i := range t.Cols {
		t.Cols[i] = make([]int64, 0, rows)
	}
	return t
}

// AppendRow adds one row.
func (t *Table) AppendRow(vals ...int64) error {
	if len(vals) != len(t.Cols) {
		return errors.New("query: row arity mismatch")
	}
	for i, v := range vals {
		t.Cols[i] = append(t.Cols[i], v)
	}
	return nil
}

// NumRows reports the row count.
func (t *Table) NumRows() int {
	if len(t.Cols) == 0 {
		return 0
	}
	return len(t.Cols[0])
}

// NumBlocks reports the number of BlockRows-sized blocks.
func (t *Table) NumBlocks() int {
	return (t.NumRows() + BlockRows - 1) / BlockRows
}

// ZoneMap holds per-block min/max for one column (Snowflake's small
// materialized aggregates / min-max index).
type ZoneMap struct {
	Min []int64
	Max []int64
}

// BuildZoneMap computes the zone map of column col.
func (t *Table) BuildZoneMap(col int) ZoneMap {
	var zm ZoneMap
	rows := t.NumRows()
	for b := 0; b*BlockRows < rows; b++ {
		lo := b * BlockRows
		hi := lo + BlockRows
		if hi > rows {
			hi = rows
		}
		mn, mx := t.Cols[col][lo], t.Cols[col][lo]
		for _, v := range t.Cols[col][lo:hi] {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		zm.Min = append(zm.Min, mn)
		zm.Max = append(zm.Max, mx)
	}
	return zm
}

// Batch is a vectorized slice of rows in column-major form. Cols is
// indexed by the operator's output schema.
type Batch struct {
	Cols [][]int64
}

// Len reports rows in the batch.
func (b *Batch) Len() int {
	if b == nil || len(b.Cols) == 0 {
		return 0
	}
	return len(b.Cols[0])
}

// Predicate is a block-prunable range predicate on one column:
// Lo <= value < Hi.
type Predicate struct {
	Col string
	Lo  int64
	Hi  int64
}

// Matches reports whether v satisfies the predicate.
func (p Predicate) Matches(v int64) bool { return v >= p.Lo && v < p.Hi }

// PrunesBlock reports whether the zone map entry for a block proves that
// no row can match.
func (p Predicate) PrunesBlock(mn, mx int64) bool { return mx < p.Lo || mn >= p.Hi }
