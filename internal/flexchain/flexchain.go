// Package flexchain implements the FlexChain design of §3.1: a permissioned
// XOV (execute-order-validate) blockchain whose world state lives in a
// tiered key-value store over disaggregated memory — a small hot cache on
// the compute (validator) node backed by the memory pool — so compute and
// memory scale with their own demands. Disaggregation shifts the
// bottleneck to the VALIDATE phase, which FlexChain attacks by building a
// dependency graph over the block's transactions and validating
// independent transactions in parallel.
package flexchain

import (
	"encoding/binary"
	"sync"
	"time"

	"github.com/disagglab/disagg/internal/buffer"
	"github.com/disagglab/disagg/internal/memnode"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/sim"
)

// Version is a world-state version number (block height based).
type Version uint64

// Tx is one endorsed transaction: the read set it was simulated against
// and the writes it wants to apply.
type Tx struct {
	ID     int
	Reads  map[uint64]Version // key -> version observed at endorsement
	Writes map[uint64]uint64  // key -> new value
}

// State is the tiered world-state store: a compute-local cache in front of
// versioned records in the disaggregated memory pool.
type State struct {
	cfg  *sim.Config
	pool *memnode.Pool

	mu    sync.Mutex
	addrs map[uint64]uint64 // key -> remote record address
	cache *buffer.Pool      // hot tier: record images keyed by key
	// committed versions (authoritative, mirrors remote contents).
	versions map[uint64]Version
	values   map[uint64]uint64
}

// record layout in the pool: version(8) value(8).
const recordSize = 16

// NewState creates the tiered store with a hot cache of cacheRecords.
func NewState(cfg *sim.Config, pool *memnode.Pool, cacheRecords int) *State {
	s := &State{
		cfg:      cfg,
		pool:     pool,
		addrs:    make(map[uint64]uint64),
		versions: make(map[uint64]Version),
		values:   make(map[uint64]uint64),
	}
	s.cache = buffer.NewPool(cfg, cacheRecords, s.fetchRecord, nil)
	return s
}

// fetchRecord loads a record from the pool on a hot-tier miss.
func (s *State) fetchRecord(c *sim.Clock, id page.ID) ([]byte, error) {
	s.mu.Lock()
	addr, ok := s.addrs[uint64(id)]
	s.mu.Unlock()
	buf := make([]byte, recordSize)
	if !ok {
		return buf, nil // unset key: version 0, value 0
	}
	qp := s.pool.Connect(nil)
	if err := qp.Read(c, addr, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Read returns (value, version) of a key through the tiered store.
func (s *State) Read(c *sim.Clock, key uint64) (value uint64, v Version, err error) {
	err = s.cache.Read(c, page.ID(key), func(data []byte) {
		value, v = binary.LittleEndian.Uint64(data[8:]), Version(binary.LittleEndian.Uint64(data))
	})
	return value, v, err
}

// apply installs a committed write at the given version (remote write +
// cache refresh).
func (s *State) apply(c *sim.Clock, key, value uint64, v Version) error {
	s.mu.Lock()
	addr, ok := s.addrs[key]
	var err error
	if !ok {
		addr, err = s.pool.Alloc(recordSize)
		if err != nil {
			s.mu.Unlock()
			return err
		}
		s.addrs[key] = addr
	}
	s.versions[key] = v
	s.values[key] = value
	s.mu.Unlock()
	buf := make([]byte, recordSize)
	binary.LittleEndian.PutUint64(buf, uint64(v))
	binary.LittleEndian.PutUint64(buf[8:], value)
	qp := s.pool.Connect(nil)
	if err := qp.Write(c, addr, buf); err != nil {
		return err
	}
	return s.cache.Install(c, page.ID(key), buf, false)
}

// Validator commits blocks against the state.
type Validator struct {
	cfg   *sim.Config
	state *State
	// height is the current block height (doubles as the version stamp).
	height Version
	// Parallelism is the validator's worker count for parallel
	// validation (FlexChain's dependency-graph scheduling).
	Parallelism int
}

// NewValidator creates a validator over the state.
func NewValidator(cfg *sim.Config, state *State, parallelism int) *Validator {
	if parallelism < 1 {
		parallelism = 1
	}
	return &Validator{cfg: cfg, state: state, Parallelism: parallelism}
}

// Height reports the committed block height.
func (v *Validator) Height() Version { return v.height }

// validateOne re-reads the transaction's read set and checks versions
// (MVCC validation); cost rides the tiered store.
func (v *Validator) validateOne(c *sim.Clock, tx *Tx) (bool, error) {
	for key, sawVersion := range tx.Reads {
		_, cur, err := v.state.Read(c, key)
		if err != nil {
			return false, err
		}
		if cur != sawVersion {
			return false, nil // stale read: transaction invalid
		}
	}
	return true, nil
}

// CommitBlock validates and commits a block, returning the IDs of valid
// transactions. With parallel=false every transaction validates serially
// (the classic XOV pipeline); with parallel=true FlexChain's dependency
// graph lets independent transactions validate concurrently — the block's
// validation time becomes the longest dependency CHAIN instead of the sum.
// Conflicting transactions are still decided in block order.
func (v *Validator) CommitBlock(c *sim.Clock, block []*Tx, parallel bool) ([]int, error) {
	v.height++
	var validIDs []int
	if !parallel {
		for _, tx := range block {
			ok, err := v.validateOne(c, tx)
			if err != nil {
				return nil, err
			}
			if ok {
				if err := v.applyTx(c, tx); err != nil {
					return nil, err
				}
				validIDs = append(validIDs, tx.ID)
			}
		}
		return validIDs, nil
	}
	// Dependency graph: tx j depends on earlier tx i when j reads or
	// writes a key i writes (write-read, write-write), or writes a key
	// i reads (read-write) — block order decides conflicts.
	levels := scheduleLevels(block)
	// Parallel validation: each level's transactions validate
	// concurrently across the validator's workers; the level costs its
	// slowest member (subject to worker count), and time accrues level
	// by level.
	for _, level := range levels {
		var worst time.Duration
		for gi := 0; gi < len(level); gi += v.Parallelism {
			end := gi + v.Parallelism
			if end > len(level) {
				end = len(level)
			}
			var waveWorst time.Duration
			for _, tx := range level[gi:end] {
				probe := c.Fork()
				ok, err := v.validateOne(&probe, tx)
				if err != nil {
					return nil, err
				}
				if ok {
					if err := v.applyTx(&probe, tx); err != nil {
						return nil, err
					}
					validIDs = append(validIDs, tx.ID)
				}
				if d := probe.Now() - c.Now(); d > waveWorst {
					waveWorst = d
				}
			}
			worst += waveWorst
		}
		c.Advance(worst)
	}
	return validIDs, nil
}

func (v *Validator) applyTx(c *sim.Clock, tx *Tx) error {
	for key, val := range tx.Writes {
		if err := v.state.apply(c, key, val, v.height); err != nil {
			return err
		}
	}
	return nil
}

// scheduleLevels topologically layers the block by conflict dependencies.
func scheduleLevels(block []*Tx) [][]*Tx {
	n := len(block)
	level := make([]int, n)
	maxLevel := 0
	conflicts := func(a, b *Tx) bool {
		for k := range a.Writes {
			if _, ok := b.Reads[k]; ok {
				return true
			}
			if _, ok := b.Writes[k]; ok {
				return true
			}
		}
		for k := range a.Reads {
			if _, ok := b.Writes[k]; ok {
				return true
			}
		}
		return false
	}
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			if conflicts(block[i], block[j]) && level[i]+1 > level[j] {
				level[j] = level[i] + 1
			}
		}
		if level[j] > maxLevel {
			maxLevel = level[j]
		}
	}
	out := make([][]*Tx, maxLevel+1)
	for i, tx := range block {
		out[level[i]] = append(out[level[i]], tx)
	}
	return out
}

// Levels exposes the dependency layering (tests, metrics).
func Levels(block []*Tx) int { return len(scheduleLevels(block)) }
