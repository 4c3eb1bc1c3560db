// Package sharednothing implements the classic distributed baseline the
// tutorial contrasts the shared architectures with (§1): data is hash-
// partitioned across N server nodes, each owning its shard's pages, log
// and locks. Single-partition transactions commit locally; cross-partition
// transactions pay two-phase commit. Elastic rescaling must physically
// move data between nodes — the cost shared-storage designs avoid (E4).
package sharednothing

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/disagglab/disagg/internal/checkpoint"
	"github.com/disagglab/disagg/internal/device"
	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/txn"
	"github.com/disagglab/disagg/internal/wal"
)

// partition is one shared-nothing node: its shard of the keyspace with
// local durability.
type partition struct {
	mu    sync.Mutex
	data  map[uint64][]byte
	log   *wal.Log
	ssd   *device.SSD
	locks *txn.LockTable
}

// Engine is the shared-nothing engine.
type Engine struct {
	cfg    *sim.Config
	layout heap.Layout
	stats  engine.Stats

	mu     sync.RWMutex
	parts  []*partition
	nextTx atomic.Uint64
	// commitSeq is the engine-wide commit stamp: per-partition logs keep
	// independent LSN spaces (and a cross-partition transaction has no
	// single LSN at all), so stamping uses a global sequence assigned
	// while the transaction still holds its write locks.
	commitSeq atomic.Uint64
	// MovedBytes accumulates rebalancing traffic (E4 metric).
	MovedBytes atomic.Int64

	// ckpt bounds the per-partition logs: each node forces its shard
	// image and truncates its local log below the captured head.
	ckpt *checkpoint.Coordinator

	// closed makes Execute shed once Close has retired the engine. retired
	// holds the logs of the partitions Rebalance replaced: their shards
	// were copied out, and Close releases them with the live ones.
	closed  atomic.Bool
	retired []*wal.Log

	// txs recycles Execute's scratch (txState).
	txs sync.Pool
}

// New creates an engine with n partitions.
func New(cfg *sim.Config, layout heap.Layout, n int) *Engine {
	e := &Engine{cfg: cfg, layout: layout}
	for i := 0; i < n; i++ {
		e.parts = append(e.parts, newPartition(cfg))
	}
	e.ckpt = checkpoint.New(cfg, "ckpt.sharednothing")
	e.txs.New = func() any {
		s := &txState{e: e}
		s.read = s.readKey
		return s
	}
	return e
}

func newPartition(cfg *sim.Config) *partition {
	return &partition{
		data:  make(map[uint64][]byte),
		log:   wal.NewLog(),
		ssd:   device.NewSSD(cfg, 32),
		locks: txn.NewLockTable(),
	}
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "shared-nothing" }

// Stats implements engine.Engine.
func (e *Engine) Stats() *engine.Stats { return &e.stats }

// Partitions reports the current node count.
func (e *Engine) Partitions() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.parts)
}

func (e *Engine) partOf(key uint64) (int, *partition) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	i := int((key * 0x9E3779B97F4A7C15 >> 32) % uint64(len(e.parts)))
	return i, e.parts[i]
}

// Execute implements engine.Engine. The coordinator is the partition of
// the first key touched; remote accesses pay network round trips, and
// multi-partition commits pay 2PC.
//
// This is the one engine that does not commit through engine.Pipeline:
// the pipeline is built around a single authoritative log, lock table and
// LSN space, and here each partition owns its own of all three, a
// transaction's records are split across the participants' logs, its stamp
// is a global sequence rather than an LSN, and prepare/commit are joined
// parallel rounds. One pipeline per partition under a coordinator would
// fit, but the coordinator and the partition wiring are more code than
// this function. Records are appended only once every lock is held and
// the read set is validated, and the node's SSD force cannot fail, so no
// partition log holds an aborted write.
func (e *Engine) Execute(c *sim.Clock, fn func(tx engine.Tx) error) error {
	if e.closed.Load() {
		return engine.Shed(&e.stats)
	}
	e.stats.Attempts.Add(1)
	s := e.txs.Get().(*txState)
	defer s.release()
	s.txID, s.coord = e.nextTx.Add(1), -1
	st := engine.NewStagedTx(c, s.read)
	defer st.Release()
	if err := fn(st); err != nil {
		e.stats.Aborts.Add(1)
		return err
	}
	writes := st.Writes()
	for _, w := range writes {
		i, p := e.partOf(w.Key)
		if s.coord == -1 {
			s.coord = i
		}
		s.legs = append(s.legs, leg{part: i, p: p, w: w})
	}
	// Lock in key order (deadlock-free), then group the legs by participant:
	// each participant's run keeps its writes in key order.
	for n, l := range s.legs {
		if err := l.p.locks.Acquire(c, s.txID, l.w.Key, txn.Exclusive, txn.DefaultAcquire); err != nil {
			s.unlock(s.legs[:n])
			e.stats.Aborts.Add(1)
			return engine.ErrConflict
		}
	}
	defer s.unlock(s.legs)
	// Validate: a read whose key now holds another value array missed a
	// commit that this transaction's other reads saw or its writes would
	// overwrite.
	for _, r := range s.seen {
		if _, p := e.partOf(r.key); p.head(r.key) != r.val {
			e.stats.Aborts.Add(1)
			return engine.ErrConflict
		}
	}
	if len(s.legs) == 0 {
		e.stats.Commits.Add(1)
		return nil
	}
	slices.SortFunc(s.legs, func(a, b leg) int { return cmp.Compare(a.part, b.part) })
	legs := s.legs

	// Commit: local fast path or 2PC.
	participants := 0
	for lo := 0; lo < len(legs); lo = run(legs, lo) {
		participants++
	}
	if participants > 1 {
		// Prepare: one parallel round trip to all remote participants,
		// each force-logging a prepare record.
		maxPrep := time.Duration(0)
		var prepNet int64
		for lo, hi := 0, 0; lo < len(legs); lo = hi {
			hi = run(legs, lo)
			probe := s.forkProbe(c)
			logBytes := 64 * (hi - lo)
			if legs[lo].part != s.coord {
				probe.Advance(e.cfg.TCP.Cost(logBytes))
				prepNet += int64(logBytes)
				e.stats.NetBytes.Add(int64(logBytes))
			}
			legs[lo].p.ssd.Write(probe, logBytes)
			maxPrep = max(maxPrep, probe.Now()-c.Now())
		}
		// The joined parallel round (messaging + each participant's
		// prepare force) rides the fan-out span: per-leg device time is
		// hidden by the join, so the protocol owns the latency.
		op := e.cfg.Begin(c, "tcp.prepare")
		c.Advance(maxPrep)
		op.End(prepNet)
	}
	// Commit records + apply, parallel across participants.
	maxCommit := time.Duration(0)
	var commitNet int64
	for lo, hi := 0, 0; lo < len(legs); lo = hi {
		hi = run(legs, lo)
		probe := s.forkProbe(c)
		p := legs[lo].p
		// The participant's log copies each staged value; the shard stores
		// that copy, at the layout's value size.
		recs := s.recs[:0]
		for _, l := range legs[lo:hi] {
			recs = append(recs, wal.Record{Type: wal.TypeUpdate, TxID: s.txID, PageID: uint64(e.layout.PageOf(l.w.Key)), Key: l.w.Key, After: l.w.Val})
		}
		recs = append(recs, wal.Record{Type: wal.TypeCommit, TxID: s.txID})
		s.recs = recs
		p.log.Reserve(recs)
		p.log.Decide(recs, true)
		logBytes := wal.Size(recs)
		if legs[lo].part != s.coord {
			probe.Advance(e.cfg.TCP.Cost(logBytes))
			commitNet += int64(logBytes)
			e.stats.NetBytes.Add(int64(logBytes))
		}
		p.ssd.Write(probe, logBytes)
		e.stats.LogBytes.Add(int64(logBytes))
		p.mu.Lock()
		for _, r := range recs[:len(recs)-1] {
			p.data[r.Key] = e.layout.Fit(r.After) // the log writes its images once
		}
		p.mu.Unlock()
		maxCommit = max(maxCommit, probe.Now()-c.Now())
	}
	// As with prepare: the joined commit round (messaging + per-node log
	// force) is the protocol's latency.
	cop := e.cfg.Begin(c, "tcp.commit")
	c.Advance(maxCommit)
	cop.End(commitNet)
	st.StampCommit(e.commitSeq.Add(1))
	e.stats.Commits.Add(1)
	return nil
}

// txState is one Execute's scratch, recycled through Engine.txs so that a
// transaction allocates none of it: the coordinator its first access picks,
// the read path (built once per state, not per transaction), what each read
// saw, one leg per write — which is also the list of locks it holds — the
// records of the participant being committed, and the clock each
// participant's leg of a parallel round is timed on.
type txState struct {
	e     *Engine
	txID  uint64
	coord int
	read  engine.ReadFunc
	seen  []readVal
	legs  []leg
	recs  []wal.Record
	probe sim.Clock
}

// readVal is one key the transaction read and the value array it found there
// (nil for none). Every commit stores fresh bytes (the log's copy of its
// image, which the log never writes again, or a fitted copy of it), and
// holding this one keeps its address from being reused, so a different
// array at validation is a commit the read missed: the array is the key's
// version.
type readVal struct {
	key uint64
	val *byte
}

// leg is one write at its partition.
type leg struct {
	part int
	p    *partition
	w    engine.Write
}

// run returns the end of the participant's run of legs that starts at lo.
func run(legs []leg, lo int) int {
	hi := lo + 1
	for hi < len(legs) && legs[hi].part == legs[lo].part {
		hi++
	}
	return hi
}

// readKey is the transaction's read path. The first key touched picks the
// coordinator; a read at any other partition is one network round trip.
func (s *txState) readKey(c *sim.Clock, key uint64) ([]byte, error) {
	e := s.e
	i, p := e.partOf(key)
	if s.coord == -1 {
		s.coord = i
	} else if i != s.coord {
		e.cfg.RPC(c, e.layout.ValSize+16)
		e.stats.NetBytes.Add(int64(e.layout.ValSize + 16))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	v, ok := p.data[key]
	s.seen = append(s.seen, readVal{key: key, val: first(v)})
	if ok {
		return slices.Clone(v), nil
	}
	return make([]byte, e.layout.ValSize), nil
}

// head returns the first byte of key's value array (nil for none).
func (p *partition) head(key uint64) *byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return first(p.data[key])
}

// first is v's first byte, or nil for an empty v.
func first(v []byte) *byte {
	if len(v) == 0 {
		return nil
	}
	return &v[0]
}

// forkProbe returns the probe clock as a fresh fork of c.
func (s *txState) forkProbe(c *sim.Clock) *sim.Clock {
	s.probe = c.Fork()
	return &s.probe
}

// unlock releases the locks of legs.
func (s *txState) unlock(legs []leg) {
	for _, l := range legs {
		l.p.locks.Unlock(s.txID, l.w.Key, txn.Exclusive)
	}
}

// release empties the state, dropping what it refers to, and recycles it.
func (s *txState) release() {
	clear(s.seen)
	s.seen = s.seen[:0]
	clear(s.legs)
	s.legs = s.legs[:0]
	clear(s.recs)
	s.recs = s.recs[:0]
	s.e.txs.Put(s)
}

// Checkpoint implements engine.Checkpointer. Per-partition logs keep
// independent LSN spaces, so the published horizon is the global commit
// sequence; each node captures its own log head alongside it, forces its
// shard image to local SSD, and truncates its local log below the
// captured head. The shard image (not the log) is the authoritative
// recovery source in this model, so the capture-flush-truncate ordering
// is what keeps the two in step.
func (e *Engine) Checkpoint(c *sim.Clock) error {
	var parts []*partition
	var heads []wal.LSN
	return e.ckpt.Checkpoint(c, checkpoint.Round{
		Durable: func() wal.LSN { return wal.LSN(e.commitSeq.Load()) },
		Flush: func(c *sim.Clock, h wal.LSN) error {
			e.mu.RLock()
			parts = append([]*partition(nil), e.parts...)
			e.mu.RUnlock()
			heads = make([]wal.LSN, len(parts))
			for i, p := range parts {
				p.mu.Lock()
				heads[i] = p.log.Head() - 1
				imageBytes := len(p.data) * e.layout.ValSize
				p.mu.Unlock()
				p.ssd.Write(c, imageBytes)
			}
			return nil
		},
		Truncate: func(c *sim.Clock, h wal.LSN) error {
			for i, p := range parts {
				p.log.TruncateBefore(heads[i] + 1)
				p.ssd.Write(c, 24) // per-node checkpoint master record
			}
			return nil
		},
	})
}

// RecoveryHorizon implements engine.Checkpointer.
func (e *Engine) RecoveryHorizon() wal.LSN { return e.ckpt.Horizon() }

// Close implements io.Closer: the engine retires for good. Execute sheds
// from now on; each partition drops its shard, whose values are the log's
// images, and then releases its log (wal.Log.Release), as do the logs of
// the partitions Rebalance replaced. A second Close does nothing.
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	e.mu.Lock()
	parts, retired := e.parts, e.retired
	e.retired = nil
	e.mu.Unlock()
	for _, p := range parts {
		p.mu.Lock()
		clear(p.data)
		p.mu.Unlock()
		p.log.Release()
	}
	for _, l := range retired {
		l.Release()
	}
	return nil
}

// Rebalance rescales to n partitions, physically moving every key whose
// home changes and charging the transfer — the elasticity tax of
// shared-nothing (E4).
func (e *Engine) Rebalance(c *sim.Clock, n int) (moved int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	old := e.parts
	oldN := uint64(len(old))
	parts := make([]*partition, n)
	for i := range parts {
		parts[i] = newPartition(e.cfg)
	}
	for _, p := range old {
		e.retired = append(e.retired, p.log)
		p.mu.Lock()
		for k, v := range p.data {
			h := k * 0x9E3779B97F4A7C15 >> 32
			ni := int(h % uint64(n))
			parts[ni].data[k] = slices.Clone(v)
			if int(h%oldN) != ni {
				moved += int64(len(v))
			}
		}
		p.mu.Unlock()
	}
	// Data movement: streamed over the network and rewritten to SSD.
	op := e.cfg.Begin(c, "tcp.rebalance")
	c.Advance(e.cfg.TCP.Cost(int(moved)))
	op.End(moved)
	parts[0].ssd.Write(c, int(moved))
	e.MovedBytes.Add(moved)
	e.stats.NetBytes.Add(moved)
	e.parts = parts
	return moved
}
