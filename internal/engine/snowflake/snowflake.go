// Package snowflake implements the Snowflake-style OLAP architecture of
// §2.2: immutable columnar micro-partitions in cloud object storage, a
// metadata/cloud-services layer holding zone maps (min-max indexes), and
// elastic Virtual Warehouses — stateless compute clusters with local
// ephemeral caches — that can be added or removed without any data
// movement because all state is in the shared storage tier.
package snowflake

import (
	"errors"
	"fmt"
	"sync"

	"github.com/disagglab/disagg/internal/device"
	"github.com/disagglab/disagg/internal/query"
	"github.com/disagglab/disagg/internal/sim"
)

// ErrNoTable is returned for queries on unknown tables.
var ErrNoTable = errors.New("snowflake: no such table")

// Service is the cloud-services + storage layer: the object store holding
// every table's immutable micro-partitions and the metadata that names them.
type Service struct {
	cfg   *sim.Config
	Store *device.ObjectStore

	mu     sync.Mutex
	tables map[string]*query.ObjectSource
	nextWH int
}

// NewService creates the service with its own object store.
func NewService(cfg *sim.Config) *Service {
	return &Service{
		cfg:    cfg,
		Store:  device.NewObjectStore(cfg),
		tables: make(map[string]*query.ObjectSource),
	}
}

// LoadTable ingests a table as immutable micro-partition objects.
func (s *Service) LoadTable(name string, t *query.Table) {
	src := query.NewObjectSource(s.cfg, s.Store, t, name)
	s.mu.Lock()
	s.tables[name] = src
	s.mu.Unlock()
}

// Warehouse is one elastic compute cluster with a local block cache.
type Warehouse struct {
	svc *Service
	// Name identifies the VW.
	Name string
	// cacheBlocks is the ephemeral-disk cache capacity.
	cacheBlocks int

	mu     sync.Mutex
	caches map[string]*query.CachedSource
}

// AddWarehouse provisions a new VW — a pure metadata operation: no data
// moves (E4's contrast with shared-nothing rebalancing).
func (s *Service) AddWarehouse(c *sim.Clock, cacheBlocks int) *Warehouse {
	s.mu.Lock()
	id := s.nextWH
	s.nextWH++
	s.mu.Unlock()
	// Control-plane provisioning round trip.
	op := s.cfg.Begin(c, "tcp.rpc")
	c.Advance(s.cfg.TCP.Cost(256))
	op.End(256)
	return &Warehouse{svc: s, Name: fmt.Sprintf("wh-%d", id), cacheBlocks: cacheBlocks, caches: make(map[string]*query.CachedSource)}
}

// Source returns the warehouse's cached view of a table.
func (w *Warehouse) Source(name string) (query.Source, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if cs, ok := w.caches[name]; ok {
		return cs, nil
	}
	w.svc.mu.Lock()
	src, ok := w.svc.tables[name]
	w.svc.mu.Unlock()
	if !ok {
		return nil, ErrNoTable
	}
	cs := query.NewCachedSource(w.svc.cfg, src, w.cacheBlocks)
	w.caches[name] = cs
	return cs, nil
}

// Run executes a query plan built from the warehouse's table views.
func (w *Warehouse) Run(c *sim.Clock, build func(src func(string) (query.Source, error)) (query.Operator, error)) (*query.Batch, error) {
	op, err := build(w.Source)
	if err != nil {
		return nil, err
	}
	return query.Collect(c, op)
}

// CacheHitRatio reports the warehouse's block-cache hit ratio for a table.
func (w *Warehouse) CacheHitRatio(name string) float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if cs, ok := w.caches[name]; ok {
		return cs.HitRatio()
	}
	return 0
}
