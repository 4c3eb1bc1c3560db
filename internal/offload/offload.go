// Package offload implements the compute-pushdown systems of §3.2:
//
//   - TELEPORT: a general pushdown facility on a disaggregated-OS-style
//     memory pool — the compute node ships a named function + arguments in
//     one RPC, the memory node executes it against its local memory, and
//     only the result crosses the fabric. Because the compute pool caches
//     (and dirties) parts of the pooled memory, pushdown must synchronize
//     dirty cached blocks on demand first (TELEPORT's coherence mechanism).
//
//   - Farview: a memory-node operator stack (selection, projection,
//     group-by, aggregation) executed by memory-side hardware with
//     pipelining across operators, so a chain of operators costs roughly
//     its slowest stage instead of the sum of stages.
package offload

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/disagglab/disagg/internal/memnode"
	"github.com/disagglab/disagg/internal/query"
	"github.com/disagglab/disagg/internal/rdma"
	"github.com/disagglab/disagg/internal/sim"
)

// ErrNoColumn is returned for operations on unknown columns.
var ErrNoColumn = errors.New("offload: no such column")

// RemoteColumns is a columnar dataset resident in a disaggregated memory
// pool, with an optional compute-local cache that can hold dirty data —
// the situation TELEPORT's synchronization exists for.
type RemoteColumns struct {
	cfg  *sim.Config
	pool *memnode.Pool
	rows int

	mu    sync.Mutex
	addrs map[string]uint64
	// localDirty holds compute-side modifications not yet written back:
	// col -> row -> value.
	localDirty map[string]map[int]int64
}

// Upload moves a table into the pool and registers the pushdown handlers.
func Upload(cfg *sim.Config, pool *memnode.Pool, t *query.Table) (*RemoteColumns, error) {
	rc := &RemoteColumns{
		cfg:        cfg,
		pool:       pool,
		rows:       t.NumRows(),
		addrs:      make(map[string]uint64),
		localDirty: make(map[string]map[int]int64),
	}
	setup := sim.NewClock()
	qp := pool.Connect(nil)
	for i, name := range t.Schema.Cols {
		addr, err := pool.Alloc(uint64(t.NumRows() * 8))
		if err != nil {
			return nil, err
		}
		buf := make([]byte, t.NumRows()*8)
		for j, v := range t.Cols[i] {
			binary.LittleEndian.PutUint64(buf[j*8:], uint64(v))
		}
		if err := qp.Write(setup, addr, buf); err != nil {
			return nil, err
		}
		rc.addrs[name] = addr
	}
	pool.Node().Handle("teleport.filtersum", rc.handleFilterSum)
	pool.Node().Handle("farview.stack", rc.handleStack)
	rc.registerRowHandlers()
	return rc, nil
}

// Rows reports the dataset length.
func (rc *RemoteColumns) Rows() int { return rc.rows }

func (rc *RemoteColumns) addrOf(col string) (uint64, error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	a, ok := rc.addrs[col]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoColumn, col)
	}
	return a, nil
}

// LocalWrite stages a compute-side modification in the local cache (dirty:
// the pooled copy is now stale until Sync).
func (rc *RemoteColumns) LocalWrite(col string, row int, val int64) error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if _, ok := rc.addrs[col]; !ok {
		return fmt.Errorf("%w: %q", ErrNoColumn, col)
	}
	m := rc.localDirty[col]
	if m == nil {
		m = make(map[int]int64)
		rc.localDirty[col] = m
	}
	m[row] = val
	return nil
}

// DirtyCount reports pending unsynchronized writes.
func (rc *RemoteColumns) DirtyCount() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	n := 0
	for _, m := range rc.localDirty {
		n += len(m)
	}
	return n
}

// Sync writes dirty cached values back to the pool (charged per dirty
// word; TELEPORT synchronizes only on demand, which is why it beats
// application-agnostic page-granularity coherence).
func (rc *RemoteColumns) Sync(c *sim.Clock, qp *rdma.QP) error {
	rc.mu.Lock()
	dirty := rc.localDirty
	rc.localDirty = make(map[string]map[int]int64)
	addrs := make(map[string]uint64, len(rc.addrs))
	for k, v := range rc.addrs {
		addrs[k] = v
	}
	rc.mu.Unlock()
	var ops []rdma.WriteOp
	for col, m := range dirty {
		base := addrs[col]
		for row, val := range m {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(val))
			ops = append(ops, rdma.WriteOp{Addr: base + uint64(row*8), Data: b[:]})
		}
	}
	if len(ops) == 0 {
		return nil
	}
	return qp.WriteBatch(c, ops)
}

// pagingGranule is the disaggregated-OS paging unit: the TELEPORT
// substrate fetches remote memory in pages, so a pull-based scan pays a
// per-page round trip, not one bulk transfer.
const pagingGranule = 4096

// window is one paging granule of a column, held on the stack: a scan
// streams a column through a window instead of copying the column.
type window struct {
	buf  [pagingGranule]byte
	rows int
}

// windowRows is how many values one window holds.
const windowRows = pagingGranule / 8

func (w *window) at(i int) int64 { return int64(binary.LittleEndian.Uint64(w.buf[i*8:])) }

// readWindow fills w with the values of rows [row0, row0+windowRows) of
// the column at addr, as far as the column goes. With qp nil it is the
// memory node reading its own memory in place; otherwise it is the compute
// side paging the granule in with one qp.Read, and a row's value is the
// compute side's own where dirty holds one.
func (rc *RemoteColumns) readWindow(c *sim.Clock, qp *rdma.QP, w *window, addr uint64, row0 int, dirty map[int]int64) error {
	w.rows = min(windowRows, rc.rows-row0)
	p, at := w.buf[:w.rows*8], addr+uint64(row0*8)
	if qp == nil {
		return rc.pool.Node().Mem.Read(at, p)
	}
	if err := qp.Read(c, at, p); err != nil {
		return err
	}
	if len(dirty) > 0 {
		for i := range w.rows {
			if v, ok := dirty[row0+i]; ok {
				binary.LittleEndian.PutUint64(p[i*8:], uint64(v))
			}
		}
	}
	return nil
}

// selection marks the rows a scan keeps, one bit a row: a filter carries
// 1/64 of a column from its predicate pass to its value pass.
type selection []uint64

// newSelection keeps every row.
func newSelection(rows int) selection {
	s := make(selection, (rows+63)/64)
	for i := range s {
		s[i] = ^uint64(0)
	}
	return s
}

func (s selection) unset(i int)    { s[i/64] &^= 1 << (i % 64) }
func (s selection) has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }

// narrow is a predicate pass: it reads the column at addr window by window
// (see readWindow) and keeps in sel only the rows whose value lies in
// [lo,hi), returning how many it kept.
func (rc *RemoteColumns) narrow(c *sim.Clock, qp *rdma.QP, sel selection, addr uint64, dirty map[int]int64, lo, hi int64) (int, error) {
	var w window
	kept := 0
	for row0 := 0; row0 < rc.rows; row0 += windowRows {
		if err := rc.readWindow(c, qp, &w, addr, row0, dirty); err != nil {
			return 0, err
		}
		for i := range w.rows {
			if !sel.has(row0 + i) {
				continue
			}
			if v := w.at(i); v >= lo && v < hi {
				kept++
			} else {
				sel.unset(row0 + i)
			}
		}
	}
	return kept, nil
}

// filter runs a filter on the memory node (qp nil) or pulls it over the
// fabric: a predicate pass over predCol selects the rows whose value lies
// in [lo,hi) and reports their count to sized (when set), then a value
// pass over valCol calls fn with each selected row's value, in row order.
// Pulled, both columns are paged in whole, and the compute side's dirty
// values are merged for free (they are local).
func (rc *RemoteColumns) filter(c *sim.Clock, qp *rdma.QP, predCol string, lo, hi int64, valCol string, sized func(n int), fn func(v int64)) error {
	pa, err := rc.addrOf(predCol)
	if err != nil {
		return err
	}
	va, err := rc.addrOf(valCol)
	if err != nil {
		return err
	}
	var pd, vd map[int]int64
	if qp != nil {
		rc.mu.Lock()
		pd, vd = rc.localDirty[predCol], rc.localDirty[valCol]
		rc.mu.Unlock()
	}
	sel := newSelection(rc.rows)
	n, err := rc.narrow(c, qp, sel, pa, pd, lo, hi)
	if err != nil {
		return err
	}
	if sized != nil {
		sized(n)
	}
	var w window
	for row0 := 0; row0 < rc.rows; row0 += windowRows {
		if err := rc.readWindow(c, qp, &w, va, row0, vd); err != nil {
			return err
		}
		for i := range w.rows {
			if sel.has(row0 + i) {
				fn(w.at(i))
			}
		}
	}
	return nil
}

// PullFilterSum is the NO-pushdown baseline: page the columns in over the
// fabric (4KB remote-paging granularity, as in the disaggregated OSes
// TELEPORT builds on) and evaluate locally.
func (rc *RemoteColumns) PullFilterSum(c *sim.Clock, qp *rdma.QP, predCol string, lo, hi int64, sumCol string) (sum int64, count int64, err error) {
	if err := rc.filter(c, qp, predCol, lo, hi, sumCol, nil, func(v int64) {
		sum += v
		count++
	}); err != nil {
		return 0, 0, err
	}
	c.Advance(rc.cfg.CPU.Cost(rc.rows * 16))
	return sum, count, nil
}

// PushFilterSum is the TELEPORT path: synchronize dirty cached data on
// demand, then one RPC executes filter+sum on the memory node; only 16
// bytes return.
func (rc *RemoteColumns) PushFilterSum(c *sim.Clock, qp *rdma.QP, predCol string, lo, hi int64, sumCol string) (sum int64, count int64, err error) {
	if err := rc.Sync(c, qp); err != nil {
		return 0, 0, err
	}
	req := encodeFilterSumReq(predCol, lo, hi, sumCol)
	resp, err := qp.Call(c, "teleport.filtersum", req)
	if err != nil {
		return 0, 0, err
	}
	if len(resp) != 16 {
		return 0, 0, errors.New("offload: bad pushdown response")
	}
	return int64(binary.LittleEndian.Uint64(resp)), int64(binary.LittleEndian.Uint64(resp[8:])), nil
}

func encodeFilterSumReq(predCol string, lo, hi int64, sumCol string) []byte {
	req := make([]byte, 0, 32+len(predCol)+len(sumCol))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(lo))
	req = append(req, b[:]...)
	binary.LittleEndian.PutUint64(b[:], uint64(hi))
	req = append(req, b[:]...)
	req = append(req, byte(len(predCol)))
	req = append(req, predCol...)
	req = append(req, byte(len(sumCol)))
	req = append(req, sumCol...)
	return req
}

func decodeFilterSumReq(req []byte) (predCol string, lo, hi int64, sumCol string, err error) {
	if len(req) < 18 {
		return "", 0, 0, "", errors.New("offload: short request")
	}
	lo = int64(binary.LittleEndian.Uint64(req))
	hi = int64(binary.LittleEndian.Uint64(req[8:]))
	p := 16
	n := int(req[p])
	p++
	if len(req) < p+n+1 {
		return "", 0, 0, "", errors.New("offload: short request")
	}
	predCol = string(req[p : p+n])
	p += n
	m := int(req[p])
	p++
	if len(req) < p+m {
		return "", 0, 0, "", errors.New("offload: short request")
	}
	sumCol = string(req[p : p+m])
	return predCol, lo, hi, sumCol, nil
}

// handleFilterSum runs on the memory node: scan both columns from local
// memory (DRAM cost, no fabric) and return the aggregate.
func (rc *RemoteColumns) handleFilterSum(c *sim.Clock, req []byte) []byte {
	predCol, lo, hi, sumCol, err := decodeFilterSumReq(req)
	if err != nil {
		return nil
	}
	var sum, count int64
	if rc.filter(c, nil, predCol, lo, hi, sumCol, nil, func(v int64) {
		sum += v
		count++
	}) != nil {
		return nil
	}
	// Memory-side work: a simple filter+sum vectorizes and streams at
	// DRAM bandwidth (TELEPORT targets exactly these light-weight,
	// memory-intensive operators).
	c.Advance(rc.cfg.DRAM.Cost(rc.rows * 16))
	resp := make([]byte, 16)
	binary.LittleEndian.PutUint64(resp, uint64(sum))
	binary.LittleEndian.PutUint64(resp[8:], uint64(count))
	return resp
}

// StageKind enumerates Farview operator-stack stages.
type StageKind uint8

// Farview stages.
const (
	StageSelect  StageKind = iota + 1 // filter rows by [Lo,Hi) on Col
	StageProject                      // keep only Col (narrows row width)
	StageGroupBy                      // group by Col…
	StageAgg                          // …sum Col per group
)

// Stage is one operator in the Farview stack.
type Stage struct {
	Kind StageKind
	Col  string
	Lo   int64
	Hi   int64
}

// RunStack executes a Farview operator stack on the memory node. With
// pipelining the stages stream into each other (cost ≈ slowest stage);
// without it each stage materializes its intermediate to device memory
// (cost = sum of stages + intermediate writes). Results return over the
// fabric.
func (rc *RemoteColumns) RunStack(c *sim.Clock, qp *rdma.QP, stages []Stage, pipelined bool) (map[int64]int64, error) {
	if err := rc.Sync(c, qp); err != nil {
		return nil, err
	}
	req := encodeStackReq(stages, pipelined)
	resp, err := qp.Call(c, "farview.stack", req)
	if err != nil {
		return nil, err
	}
	if len(resp) < 4 {
		return nil, errors.New("offload: bad stack response")
	}
	n := int(binary.LittleEndian.Uint32(resp))
	if len(resp) < 4+n*16 {
		return nil, errors.New("offload: truncated stack response")
	}
	out := make(map[int64]int64, n)
	for i := 0; i < n; i++ {
		g := int64(binary.LittleEndian.Uint64(resp[4+i*16:]))
		v := int64(binary.LittleEndian.Uint64(resp[4+i*16+8:]))
		out[g] = v
	}
	return out, nil
}

func encodeStackReq(stages []Stage, pipelined bool) []byte {
	req := []byte{byte(len(stages)), 0}
	if pipelined {
		req[1] = 1
	}
	for _, s := range stages {
		req = append(req, byte(s.Kind), byte(len(s.Col)))
		req = append(req, s.Col...)
		var b [16]byte
		binary.LittleEndian.PutUint64(b[:], uint64(s.Lo))
		binary.LittleEndian.PutUint64(b[8:], uint64(s.Hi))
		req = append(req, b[:]...)
	}
	return req
}

func decodeStackReq(req []byte) (stages []Stage, pipelined bool, err error) {
	if len(req) < 2 {
		return nil, false, errors.New("offload: short stack request")
	}
	n := int(req[0])
	pipelined = req[1] == 1
	p := 2
	for i := 0; i < n; i++ {
		if len(req) < p+2 {
			return nil, false, errors.New("offload: short stack request")
		}
		kind := StageKind(req[p])
		cl := int(req[p+1])
		p += 2
		if len(req) < p+cl+16 {
			return nil, false, errors.New("offload: short stack request")
		}
		col := string(req[p : p+cl])
		p += cl
		lo := int64(binary.LittleEndian.Uint64(req[p:]))
		hi := int64(binary.LittleEndian.Uint64(req[p+8:]))
		p += 16
		stages = append(stages, Stage{Kind: kind, Col: col, Lo: lo, Hi: hi})
	}
	return stages, pipelined, nil
}

// handleStack executes the operator stack node-side.
func (rc *RemoteColumns) handleStack(c *sim.Clock, req []byte) []byte {
	stages, pipelined, err := decodeStackReq(req)
	if err != nil {
		return nil
	}
	// Evaluate: selected rows flow through the stack.
	sel := newSelection(rc.rows)
	liveRows := rc.rows
	stageCosts := make([]time.Duration, 0, len(stages))
	var groupCol, aggCol string
	for _, s := range stages {
		cost := rc.cfg.DRAM.Cost(liveRows * 8)
		switch s.Kind {
		case StageSelect:
			a, err := rc.addrOf(s.Col)
			if err != nil {
				return nil
			}
			if liveRows, err = rc.narrow(c, nil, sel, a, nil, s.Lo, s.Hi); err != nil {
				return nil
			}
		case StageProject:
			// Narrowing: subsequent stages touch fewer bytes.
		case StageGroupBy:
			groupCol = s.Col
		case StageAgg:
			aggCol = s.Col
		}
		// Each stage streams at device bandwidth (Farview's operators
		// are implemented in memory-attached hardware).
		stageCosts = append(stageCosts, cost)
	}
	// Charge the stack: pipelined = max stage; otherwise sum of stages
	// plus intermediate materialization (write + read per boundary).
	if pipelined {
		var max time.Duration
		for _, d := range stageCosts {
			if d > max {
				max = d
			}
		}
		c.Advance(max)
	} else {
		var total time.Duration
		for i, d := range stageCosts {
			total += d
			if i < len(stageCosts)-1 {
				total += 2 * rc.cfg.DRAM.Cost(liveRows*8)
			}
		}
		c.Advance(total)
	}
	// Compute the result (group -> sum, or -> count without an Agg
	// stage), reading the group and aggregate columns in lockstep.
	var ga, aa uint64
	if groupCol != "" {
		if ga, err = rc.addrOf(groupCol); err != nil {
			return nil
		}
	}
	if aggCol != "" {
		if aa, err = rc.addrOf(aggCol); err != nil {
			return nil
		}
	}
	var gw, aw window
	out := make(map[int64]int64)
	for row0 := 0; row0 < rc.rows; row0 += windowRows {
		if groupCol != "" && rc.readWindow(c, nil, &gw, ga, row0, nil) != nil {
			return nil
		}
		if aggCol != "" && rc.readWindow(c, nil, &aw, aa, row0, nil) != nil {
			return nil
		}
		for i := range min(windowRows, rc.rows-row0) {
			if !sel.has(row0 + i) {
				continue
			}
			g, v := int64(0), int64(1)
			if groupCol != "" {
				g = gw.at(i)
			}
			if aggCol != "" {
				v = aw.at(i)
			}
			out[g] += v
		}
	}
	resp := make([]byte, 4+len(out)*16)
	binary.LittleEndian.PutUint32(resp, uint32(len(out)))
	p := resp[4:]
	for g, v := range out {
		binary.LittleEndian.PutUint64(p, uint64(g))
		binary.LittleEndian.PutUint64(p[8:], uint64(v))
		p = p[16:]
	}
	return resp
}
