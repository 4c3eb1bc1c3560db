package query

import (
	"encoding/binary"
	"fmt"

	"github.com/disagglab/disagg/internal/cxl"
	"github.com/disagglab/disagg/internal/device"
	"github.com/disagglab/disagg/internal/memnode"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/rdma"
	"github.com/disagglab/disagg/internal/sim"
)

// Source serves column blocks with medium-appropriate costs. Scan
// operators read through a Source; where the bytes live (local DRAM,
// remote memory, CXL, object storage) is the experimental variable.
type Source interface {
	Schema() Schema
	NumRows() int
	// ReadBlock fetches rows [block*BlockRows, end) of the given columns
	// into dst (one slice per requested column), charging the medium.
	ReadBlock(c *sim.Clock, block int, cols []int) ([][]int64, error)
	// Zones returns the zone map for a column, or nil if unavailable.
	Zones(col int) *ZoneMap
}

// zoneSet is a lazily built zone-map cache.
type zoneSet struct {
	t     *Table
	zones map[int]*ZoneMap
}

func newZoneSet(t *Table) *zoneSet { return &zoneSet{t: t, zones: make(map[int]*ZoneMap)} }

func (z *zoneSet) get(col int) *ZoneMap {
	if zm, ok := z.zones[col]; ok {
		return zm
	}
	zm := z.t.BuildZoneMap(col)
	z.zones[col] = &zm
	return &zm
}

func blockBounds(rows, block int) (lo, hi int) {
	lo = block * BlockRows
	hi = lo + BlockRows
	if hi > rows {
		hi = rows
	}
	return
}

// LocalSource serves a table from compute-local DRAM.
type LocalSource struct {
	cfg   *sim.Config
	table *Table
	zs    *zoneSet
	dram  *device.DRAM
}

// NewLocalSource wraps a table in local memory.
func NewLocalSource(cfg *sim.Config, t *Table) *LocalSource {
	return &LocalSource{cfg: cfg, table: t, zs: newZoneSet(t), dram: device.NewDRAM(cfg, 4)}
}

// Schema implements Source.
func (s *LocalSource) Schema() Schema { return s.table.Schema }

// NumRows implements Source.
func (s *LocalSource) NumRows() int { return s.table.NumRows() }

// Zones implements Source.
func (s *LocalSource) Zones(col int) *ZoneMap { return s.zs.get(col) }

// ReadBlock implements Source.
func (s *LocalSource) ReadBlock(c *sim.Clock, block int, cols []int) ([][]int64, error) {
	lo, hi := blockBounds(s.table.NumRows(), block)
	if lo >= hi {
		return nil, fmt.Errorf("query: block %d out of range", block)
	}
	out := make([][]int64, len(cols))
	for i, col := range cols {
		s.dram.Access(c, (hi-lo)*8)
		out[i] = s.table.Cols[col][lo:hi]
	}
	return out, nil
}

// RemoteSource serves a table resident in a disaggregated memory pool,
// fetched with one-sided RDMA, with an optional compute-local block cache
// holding a fraction of the table (the E12 "local memory fraction" knob).
type RemoteSource struct {
	cfg    *sim.Config
	schema Schema
	rows   int
	zs     *zoneSet
	qp     *rdma.QP
	// colAddrs[i] is the remote base address of column i.
	colAddrs []uint64
	// cache: (col,block) -> cached values; capacity in blocks. The
	// cache PINS the first cacheCap blocks it sees (application-managed
	// placement a la MonetDB: the engine decides which fraction of the
	// data stays local, instead of letting scans flood an LRU).
	cacheCap int
	cache    map[[2]int][]int64
	hits     int64
	misses   int64
}

// NewRemoteSource uploads the table into the pool and returns a source
// reading it over the fabric. cacheBlocks bounds the local block cache
// (0 disables caching).
func NewRemoteSource(cfg *sim.Config, pool *memnode.Pool, t *Table, stats *rdma.Stats, cacheBlocks int) (*RemoteSource, error) {
	s := &RemoteSource{
		cfg:      cfg,
		schema:   t.Schema,
		rows:     t.NumRows(),
		zs:       newZoneSet(t),
		qp:       pool.Connect(stats),
		cacheCap: cacheBlocks,
		cache:    make(map[[2]int][]int64),
	}
	setup := sim.NewClock()
	for _, col := range t.Cols {
		addr, err := pool.Alloc(uint64(len(col) * 8))
		if err != nil {
			return nil, err
		}
		buf := make([]byte, len(col)*8)
		for i, v := range col {
			binary.LittleEndian.PutUint64(buf[i*8:], uint64(v))
		}
		if err := s.qp.Write(setup, addr, buf); err != nil {
			return nil, err
		}
		s.colAddrs = append(s.colAddrs, addr)
	}
	return s, nil
}

// Schema implements Source.
func (s *RemoteSource) Schema() Schema { return s.schema }

// NumRows implements Source.
func (s *RemoteSource) NumRows() int { return s.rows }

// Zones implements Source (zone maps are tiny and cached client-side).
func (s *RemoteSource) Zones(col int) *ZoneMap { return s.zs.get(col) }

// CacheStats reports (hits, misses).
func (s *RemoteSource) CacheStats() (int64, int64) { return s.hits, s.misses }

// ReadBlock implements Source.
func (s *RemoteSource) ReadBlock(c *sim.Clock, block int, cols []int) ([][]int64, error) {
	lo, hi := blockBounds(s.rows, block)
	if lo >= hi {
		return nil, fmt.Errorf("query: block %d out of range", block)
	}
	out := make([][]int64, len(cols))
	for i, col := range cols {
		key := [2]int{col, block}
		if vals, ok := s.cache[key]; ok {
			s.hits++
			c.Advance(s.cfg.DRAM.Cost((hi - lo) * 8))
			out[i] = vals
			continue
		}
		s.misses++
		buf := make([]byte, (hi-lo)*8)
		if err := s.qp.Read(c, s.colAddrs[col]+uint64(lo*8), buf); err != nil {
			return nil, err
		}
		vals := make([]int64, hi-lo)
		for j := range vals {
			vals[j] = int64(binary.LittleEndian.Uint64(buf[j*8:]))
		}
		if s.cacheCap > 0 && len(s.cache) < s.cacheCap {
			s.cache[key] = vals
		}
		out[i] = vals
	}
	return out, nil
}

// CXLSource serves a table resident on a CXL memory expander with
// sequential (prefetched) block reads.
type CXLSource struct {
	cfg      *sim.Config
	schema   Schema
	rows     int
	zs       *zoneSet
	dev      *cxl.Device
	colAddrs []uint64
	// Sequential marks scans as prefetch-friendly; false models
	// random-heavy access (per-line base latency).
	Sequential bool
}

// NewCXLSource uploads the table onto the expander.
func NewCXLSource(cfg *sim.Config, dev *cxl.Device, t *Table) (*CXLSource, error) {
	s := &CXLSource{cfg: cfg, schema: t.Schema, rows: t.NumRows(), zs: newZoneSet(t), dev: dev, Sequential: true}
	setup := sim.NewClock()
	var next uint64
	for _, col := range t.Cols {
		buf := make([]byte, len(col)*8)
		for i, v := range col {
			binary.LittleEndian.PutUint64(buf[i*8:], uint64(v))
		}
		if next+uint64(len(buf)) > dev.Size() {
			return nil, fmt.Errorf("query: CXL device full")
		}
		if err := dev.StoreSeq(setup, next, buf); err != nil {
			return nil, err
		}
		s.colAddrs = append(s.colAddrs, next)
		next += uint64(len(buf))
	}
	return s, nil
}

// Schema implements Source.
func (s *CXLSource) Schema() Schema { return s.schema }

// NumRows implements Source.
func (s *CXLSource) NumRows() int { return s.rows }

// Zones implements Source.
func (s *CXLSource) Zones(col int) *ZoneMap { return s.zs.get(col) }

// ReadBlock implements Source.
func (s *CXLSource) ReadBlock(c *sim.Clock, block int, cols []int) ([][]int64, error) {
	lo, hi := blockBounds(s.rows, block)
	if lo >= hi {
		return nil, fmt.Errorf("query: block %d out of range", block)
	}
	out := make([][]int64, len(cols))
	for i, col := range cols {
		buf := make([]byte, (hi-lo)*8)
		var err error
		if s.Sequential {
			err = s.dev.LoadSeq(c, s.colAddrs[col]+uint64(lo*8), buf)
		} else {
			err = s.dev.Load(c, s.colAddrs[col]+uint64(lo*8), buf)
		}
		if err != nil {
			return nil, err
		}
		vals := make([]int64, hi-lo)
		for j := range vals {
			vals[j] = int64(binary.LittleEndian.Uint64(buf[j*8:]))
		}
		out[i] = vals
	}
	return out, nil
}

// ObjectSource serves a table stored as per-column block objects in cloud
// object storage (Snowflake's immutable micro-partitions). Zone maps are
// kept in the (free) metadata service.
type ObjectSource struct {
	cfg    *sim.Config
	schema Schema
	rows   int
	zs     *zoneSet
	store  *device.ObjectStore
	prefix string
}

// NewObjectSource uploads the table as block objects under prefix.
func NewObjectSource(cfg *sim.Config, store *device.ObjectStore, t *Table, prefix string) *ObjectSource {
	s := &ObjectSource{cfg: cfg, schema: t.Schema, rows: t.NumRows(), zs: newZoneSet(t), store: store, prefix: prefix}
	setup := sim.NewClock()
	for col := range t.Cols {
		for b := 0; b < t.NumBlocks(); b++ {
			lo, hi := blockBounds(t.NumRows(), b)
			buf := make([]byte, (hi-lo)*8)
			for i, v := range t.Cols[col][lo:hi] {
				binary.LittleEndian.PutUint64(buf[i*8:], uint64(v))
			}
			store.Put(setup, s.objKey(col, b), buf)
		}
	}
	return s
}

func (s *ObjectSource) objKey(col, block int) string {
	return fmt.Sprintf("%s/c%d/b%d", s.prefix, col, block)
}

// Schema implements Source.
func (s *ObjectSource) Schema() Schema { return s.schema }

// NumRows implements Source.
func (s *ObjectSource) NumRows() int { return s.rows }

// Zones implements Source.
func (s *ObjectSource) Zones(col int) *ZoneMap { return s.zs.get(col) }

// ReadBlock implements Source.
func (s *ObjectSource) ReadBlock(c *sim.Clock, block int, cols []int) ([][]int64, error) {
	lo, hi := blockBounds(s.rows, block)
	if lo >= hi {
		return nil, fmt.Errorf("query: block %d out of range", block)
	}
	out := make([][]int64, len(cols))
	for i, col := range cols {
		buf, err := s.store.Get(c, s.objKey(col, block))
		if err != nil {
			return nil, err
		}
		vals := make([]int64, hi-lo)
		for j := range vals {
			vals[j] = int64(binary.LittleEndian.Uint64(buf[j*8:]))
		}
		page.Release(buf) // Get's copy, decoded
		out[i] = vals
	}
	return out, nil
}
