package query

import (
	"fmt"
	"slices"

	"github.com/disagglab/disagg/internal/sim"
)

// Operator is a pull-based vectorized operator. Next returns nil at end of
// stream. Operators are single-use and not safe for concurrent use.
type Operator interface {
	Schema() Schema
	Next(c *sim.Clock) (*Batch, error)
}

// Scan reads a source block by block, applying range predicates with
// optional zone-map pruning and projecting the requested columns.
type Scan struct {
	cfg     *sim.Config
	src     Source
	cols    []string
	preds   []Predicate
	predIdx []int
	prune   bool

	// The column plan, built once: need lists the distinct source columns
	// a block read fetches (projected, then predicate), and colAt/predAt
	// place each projected and predicate column in it.
	need   []int
	colAt  []int
	predAt []int
	// sel is the selection vector, reused by every block.
	sel []int

	block         int
	BlocksRead    int
	BlocksSkipped int
}

// NewScan builds a scan of cols with the given predicates. prune enables
// min-max block skipping.
func NewScan(cfg *sim.Config, src Source, cols []string, preds []Predicate, prune bool) (*Scan, error) {
	s := &Scan{cfg: cfg, src: src, cols: cols, preds: preds, prune: prune}
	place := func(name string) (int, error) {
		ci, err := src.Schema().ColIndex(name)
		if err != nil {
			return 0, err
		}
		if at := slices.Index(s.need, ci); at >= 0 {
			return at, nil
		}
		s.need = append(s.need, ci)
		return len(s.need) - 1, nil
	}
	for _, c := range cols {
		at, err := place(c)
		if err != nil {
			return nil, err
		}
		s.colAt = append(s.colAt, at)
	}
	for _, p := range preds {
		at, err := place(p.Col)
		if err != nil {
			return nil, err
		}
		s.predIdx = append(s.predIdx, s.need[at])
		s.predAt = append(s.predAt, at)
	}
	return s, nil
}

// Schema implements Operator.
func (s *Scan) Schema() Schema { return Schema{Cols: s.cols} }

// Next implements Operator.
func (s *Scan) Next(c *sim.Clock) (*Batch, error) {
	nBlocks := (s.src.NumRows() + BlockRows - 1) / BlockRows
	for s.block < nBlocks {
		b := s.block
		s.block++
		if s.prune && s.pruned(b) {
			s.BlocksSkipped++
			continue
		}
		s.BlocksRead++
		data, err := s.src.ReadBlock(c, b, s.need)
		if err != nil {
			return nil, err
		}
		rows := len(data[0])
		c.Advance(s.cfg.CPU.Cost(rows * 8 * len(s.need)))
		// Filter (a nil selection keeps every row).
		var sel []int
		if len(s.preds) > 0 {
			if cap(s.sel) < rows {
				s.sel = make([]int, 0, BlockRows)
			}
			sel = s.sel[:0]
			for r := 0; r < rows; r++ {
				ok := true
				for pi, p := range s.preds {
					if !p.Matches(data[s.predAt[pi]][r]) {
						ok = false
						break
					}
				}
				if ok {
					sel = append(sel, r)
				}
			}
			if len(sel) == 0 {
				continue
			}
		}
		out := &Batch{Cols: make([][]int64, len(s.colAt))}
		for i, at := range s.colAt {
			src := data[at]
			if sel == nil {
				vals := make([]int64, rows)
				copy(vals, src)
				out.Cols[i] = vals
			} else {
				vals := make([]int64, len(sel))
				for j, r := range sel {
					vals[j] = src[r]
				}
				out.Cols[i] = vals
			}
		}
		return out, nil
	}
	return nil, nil
}

func (s *Scan) pruned(b int) bool {
	for pi, p := range s.preds {
		zm := s.src.Zones(s.predIdx[pi])
		if zm == nil || b >= len(zm.Min) {
			continue
		}
		if p.PrunesBlock(zm.Min[b], zm.Max[b]) {
			return true
		}
	}
	return false
}

// AggSpec is one aggregate: SUM(col) or COUNT(*) (Col == "").
type AggSpec struct {
	Col string
}

// HashAgg groups by one column and computes sums/counts.
type HashAgg struct {
	cfg      *sim.Config
	in       Operator
	groupCol string
	aggs     []AggSpec

	done bool
}

// NewHashAgg builds an aggregation. groupCol == "" means a single global
// group.
func NewHashAgg(cfg *sim.Config, in Operator, groupCol string, aggs ...AggSpec) *HashAgg {
	return &HashAgg{cfg: cfg, in: in, groupCol: groupCol, aggs: aggs}
}

// Schema implements Operator: [group] agg0 agg1 ...
func (h *HashAgg) Schema() Schema {
	cols := []string{}
	if h.groupCol != "" {
		cols = append(cols, h.groupCol)
	}
	for i, a := range h.aggs {
		if a.Col == "" {
			cols = append(cols, fmt.Sprintf("count_%d", i))
		} else {
			cols = append(cols, "sum_"+a.Col)
		}
	}
	return Schema{Cols: cols}
}

// Next implements Operator (drains the input on first call).
func (h *HashAgg) Next(c *sim.Clock) (*Batch, error) {
	if h.done {
		return nil, nil
	}
	h.done = true
	inSchema := h.in.Schema()
	gIdx := -1
	if h.groupCol != "" {
		i, err := inSchema.ColIndex(h.groupCol)
		if err != nil {
			return nil, err
		}
		gIdx = i
	}
	aggIdx := make([]int, len(h.aggs))
	for i, a := range h.aggs {
		if a.Col == "" {
			aggIdx[i] = -1
			continue
		}
		j, err := inSchema.ColIndex(a.Col)
		if err != nil {
			return nil, err
		}
		aggIdx[i] = j
	}
	groups := make(map[int64][]int64)
	var order []int64
	for {
		b, err := h.in.Next(c)
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		c.Advance(h.cfg.CPU.Cost(b.Len() * 8 * (len(h.aggs) + 1)))
		for r := 0; r < b.Len(); r++ {
			g := int64(0)
			if gIdx >= 0 {
				g = b.Cols[gIdx][r]
			}
			acc, ok := groups[g]
			if !ok {
				acc = make([]int64, len(h.aggs))
				groups[g] = acc
				order = append(order, g)
			}
			for i, ai := range aggIdx {
				if ai < 0 {
					acc[i]++
				} else {
					acc[i] += b.Cols[ai][r]
				}
			}
		}
	}
	nCols := len(h.aggs)
	if gIdx >= 0 {
		nCols++
	}
	out := &Batch{Cols: make([][]int64, nCols)}
	for _, g := range order {
		ci := 0
		if gIdx >= 0 {
			out.Cols[0] = append(out.Cols[0], g)
			ci = 1
		}
		for i := range h.aggs {
			out.Cols[ci+i] = append(out.Cols[ci+i], groups[g][i])
		}
	}
	if out.Len() == 0 && gIdx < 0 {
		// Global aggregate over empty input: one zero row.
		for i := range out.Cols {
			out.Cols[i] = []int64{0}
		}
	}
	return out, nil
}

// Collect drains an operator into one batch (test/driver helper).
func Collect(c *sim.Clock, op Operator) (*Batch, error) {
	var out *Batch
	for {
		b, err := op.Next(c)
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if out == nil {
			out = &Batch{Cols: make([][]int64, len(b.Cols))}
		}
		for i := range b.Cols {
			out.Cols[i] = append(out.Cols[i], b.Cols[i]...)
		}
	}
	if out == nil {
		out = &Batch{}
	}
	return out, nil
}
