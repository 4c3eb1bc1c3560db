// Package sharednothing implements the classic distributed baseline the
// tutorial contrasts the shared architectures with (§1): data is hash-
// partitioned across N server nodes, each owning its shard's pages, log
// and locks. Single-partition transactions commit locally; cross-partition
// transactions pay two-phase commit. Elastic rescaling must physically
// move data between nodes — the cost shared-storage designs avoid (E4).
package sharednothing

import (
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
}

// New creates an engine with n partitions.
func New(cfg *sim.Config, layout heap.Layout, n int) *Engine {
	e := &Engine{cfg: cfg, layout: layout}
	for i := 0; i < n; i++ {
		e.parts = append(e.parts, newPartition(cfg))
	}
	e.ckpt = checkpoint.New(cfg, "ckpt.sharednothing")
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
// this function. Records are appended only once every lock is held, and
// the node's SSD force cannot fail, so no partition log holds an aborted
// write.
func (e *Engine) Execute(c *sim.Clock, fn func(tx engine.Tx) error) error {
	e.stats.Attempts.Add(1)
	txID := e.nextTx.Add(1)
	coord := -1
	st := engine.NewStagedTx(c, func(c *sim.Clock, key uint64) ([]byte, error) {
		i, p := e.partOf(key)
		if coord == -1 {
			coord = i
		} else if i != coord {
			// Remote read: one network round trip.
			op := e.cfg.Begin(c, "tcp.rpc")
			c.Advance(e.cfg.TCP.Cost(e.layout.ValSize + 16))
			op.End(int64(e.layout.ValSize + 16))
			e.stats.NetBytes.Add(int64(e.layout.ValSize + 16))
			e.stats.NetMsgs.Add(1)
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		if v, ok := p.data[key]; ok {
			return slices.Clone(v), nil
		}
		return make([]byte, e.layout.ValSize), nil
	})
	defer st.Release()
	if err := fn(st); err != nil {
		e.stats.Aborts.Add(1)
		return err
	}
	writes := st.Writes()
	if len(writes) == 0 {
		e.stats.Commits.Add(1)
		return nil
	}
	// Group write set by partition.
	byPart := map[int][]engine.Write{}
	for _, w := range writes {
		i, _ := e.partOf(w.Key)
		if coord == -1 {
			coord = i
		}
		byPart[i] = append(byPart[i], w)
	}
	// Lock per partition (sorted keys: deadlock-free).
	type held struct {
		p *partition
		k uint64
	}
	var locks []held
	abort := func() {
		for _, h := range locks {
			h.p.locks.Unlock(txID, h.k, txn.Exclusive)
		}
		e.stats.Aborts.Add(1)
	}
	for _, w := range writes {
		_, p := e.partOf(w.Key)
		if err := p.locks.Acquire(c, txID, w.Key, txn.Exclusive, txn.DefaultAcquire); err != nil {
			abort()
			return engine.ErrConflict
		}
		locks = append(locks, held{p, w.Key})
	}
	defer func() {
		for _, h := range locks {
			h.p.locks.Unlock(txID, h.k, txn.Exclusive)
		}
	}()

	// Commit: local fast path or 2PC.
	participants := len(byPart)
	if participants > 1 {
		// Prepare: one parallel round trip to all remote participants,
		// each force-logging a prepare record.
		maxPrep := time.Duration(0)
		var prepNet int64
		for i, ks := range byPart {
			probe := sim.NewClock()
			logBytes := 64 * len(ks)
			if i != coord {
				probe.Advance(e.cfg.TCP.Cost(logBytes))
				prepNet += int64(logBytes)
				e.stats.NetBytes.Add(int64(logBytes))
				e.stats.NetMsgs.Add(1)
			}
			e.parts[i].ssd.Write(probe, logBytes)
			if probe.Now() > maxPrep {
				maxPrep = probe.Now()
			}
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
	for i, ws := range byPart {
		probe := sim.NewClock()
		p := e.parts[i]
		logBytes := 0
		for _, w := range ws {
			rec := wal.Record{Type: wal.TypeUpdate, TxID: txID, PageID: uint64(e.layout.PageOf(w.Key)), Key: w.Key, After: w.Val}
			p.log.Append(rec)
			logBytes += rec.EncodedSize()
		}
		cm := wal.Record{Type: wal.TypeCommit, TxID: txID}
		p.log.Append(cm)
		logBytes += cm.EncodedSize()
		if i != coord {
			probe.Advance(e.cfg.TCP.Cost(logBytes))
			commitNet += int64(logBytes)
			e.stats.NetBytes.Add(int64(logBytes))
			e.stats.NetMsgs.Add(1)
		}
		p.ssd.Write(probe, logBytes)
		e.stats.LogBytes.Add(int64(logBytes))
		p.mu.Lock()
		for _, w := range ws {
			p.data[w.Key] = w.Val // staged values are never written again
		}
		p.mu.Unlock()
		if probe.Now() > maxCommit {
			maxCommit = probe.Now()
		}
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
