package storagenode

import (
	"fmt"
	"slices"
	"time"

	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/wal"
)

// Medium selects the durable medium backing a log store.
type Medium int

// Log store media.
const (
	MediumSSD Medium = iota
	MediumPM
)

// LogStore is a dedicated durability tier for log records: the Socrates
// XLOG service, Taurus log stores, and the PilotDB PM log layer all
// instantiate it with different media. Appends are synchronous and
// durable; the store retains records for replay.
type LogStore struct {
	cfg    *sim.Config
	medium Medium
	meter  *sim.Meter

	// server's ledger holds each delivery undecided until the writer's
	// decision reaches it: a decided record joins records, one whose writer
	// saw the append fail (a torn prefix, a group append short of its
	// quorum) never does. Its lock guards the fields below.
	server
	records wal.Segments
	// Each slot's Link and last chain each page's records for SincePage.
	// Records can arrive out of LSN order, so a link is a position in
	// records plus one (0: none): slot i's link is the previous record of
	// its page, last[p] page p's newest. Commit and abort records are not
	// chained.
	last map[uint64]uint64
	// floor is the lowest LSN guaranteed retained (1 until the first
	// truncation). Reads reaching below it fail with wal.ErrTruncated
	// instead of silently yielding a partial prefix.
	floor wal.LSN
}

// pushLocked stores one record the ledger newly received.
func (ls *LogStore) pushLocked(rec *wal.Record) {
	ls.records.Push().Rec = *rec
	ls.linkLocked(ls.records.Len() - 1)
}

// linkLocked links the record in slot i into its page's chain.
func (ls *LogStore) linkLocked(i int) {
	sl := ls.records.At(i)
	sl.Link = 0
	if r := &sl.Rec; r.Type != wal.TypeCommit && r.Type != wal.TypeAbort {
		sl.Link = ls.last[r.PageID]
		ls.last[r.PageID] = uint64(i) + 1
	}
}

// NewLogStore creates a log store on the given medium.
func NewLogStore(cfg *sim.Config, medium Medium) *LogStore {
	return &LogStore{cfg: cfg, medium: medium, meter: sim.NewMeter(cfg.NICSlots), server: server{led: newLedger()}, last: make(map[uint64]uint64), floor: 1}
}

// Append durably stores the records: one network round trip plus the
// medium's persist cost for the payload. Appends are idempotent per LSN
// (duplicate deliveries of already-durable records are absorbed, and so are
// late ones of records below the truncation floor), and
// fault injection can tear an append mid-batch: a prefix of the records
// lands, the rest is lost, and the caller sees an error — the
// crash-point-mid-WAL-append case engines must treat as an unacknowledged
// commit. The store holds the prefix undecided, so no read, high LSN or
// length sees it, and a truncation past it forgets it.
func (ls *LogStore) Append(c *sim.Clock, recs []wal.Record) error {
	err := ls.deliver(c, recs)
	if err == nil {
		ls.decide(recs, ls.pushLocked)
	}
	return err
}

// deliver is the one way records reach a store: admit, inject, hold what
// lands undecided, and charge the persist. Only a whole delivery succeeds;
// a torn one holds a prefix, uncharged. The decision is the caller's.
func (ls *LogStore) deliver(c *sim.Clock, recs []wal.Record) error {
	// Admission gate on the store's service meter: under overload the
	// append is shed before the fault decision and any charge.
	if err := ls.cfg.Admit(c, "logstore.append", ls.meter); err != nil {
		return err
	}
	op := ls.cfg.Begin(c, "logstore.append")
	f := ls.cfg.Inject(c, "logstore.append")
	if f.Drop {
		op.End(0)
		return f.FaultErr()
	}
	persistRecs := recs
	if f.Torn {
		persistRecs = recs[:len(recs)/2]
	}
	if !ls.hold(persistRecs) {
		op.End(0)
		return ErrReplicaDown
	}
	if f.Torn {
		op.End(int64(wal.Size(persistRecs)))
		return f.FaultErr()
	}
	n := wal.Size(recs)
	ls.meter.Charge(c, ls.cost(n, true))
	op.End(int64(n))
	return nil
}

// cost is one request moving n bytes to (write) or from the store's medium.
// PM is reached by compute-node-driven one-sided RDMA and drains at its
// write bandwidth (PilotDB, §2.3); SSD behind a TCP round trip.
func (ls *LogStore) cost(n int, write bool) time.Duration {
	if ls.medium == MediumPM {
		if !write {
			return ls.cfg.RDMA.Cost(n)
		}
		return ls.cfg.RDMA.Cost(n) + sim.LatencyModel{BytesPerSec: ls.cfg.PMWrite.BytesPerSec}.Cost(n)
	}
	if !write {
		return ls.cfg.TCP.Cost(n) + ls.cfg.SSDRead.Cost(n)
	}
	return ls.cfg.TCP.Cost(n) + ls.cfg.SSDWrite.Cost(n)
}

// TruncateBefore durably discards records with LSN < upTo and raises the
// retention floor — the checkpoint coordinator's truncation RPC: one
// control round trip plus a metadata persist on the store's medium.
// Truncation is idempotent and monotonic (a stale horizon is a no-op).
// Fault injection can drop the RPC (nothing truncated) or tear it (the
// floor advances only half way; the caller retries on the next round).
func (ls *LogStore) TruncateBefore(c *sim.Clock, upTo wal.LSN) error {
	op := ls.cfg.Begin(c, "logstore.truncate")
	f := ls.cfg.Inject(c, "logstore.truncate")
	if f.Drop {
		op.End(0)
		return f.FaultErr()
	}
	target := upTo
	ls.mu.Lock()
	if ls.failed {
		ls.mu.Unlock()
		op.End(0)
		return ErrReplicaDown
	}
	if f.Torn && target > ls.floor {
		// Crash-point mid-truncation: only part of the range is reclaimed.
		target = ls.floor + (target-ls.floor)/2
	}
	dropped := 0
	if target > ls.floor {
		ls.floor = target
		ls.led.cover(target - 1)
		// Compact in place and cut the tail; positions shift, so the chains
		// are rebuilt.
		clear(ls.last)
		kept := 0
		for i := range ls.records.Len() {
			sl := ls.records.At(i)
			if sl.Rec.LSN < target {
				continue
			}
			ls.records.At(kept).Rec = sl.Rec
			ls.linkLocked(kept)
			kept++
		}
		dropped = ls.records.Len() - kept
		ls.records.Cut(kept)
	}
	ls.mu.Unlock()
	ls.meter.Charge(c, ls.cost(24, true))
	op.End(int64(dropped))
	if f.Torn {
		return f.FaultErr()
	}
	return nil
}

// Floor reports the lowest LSN guaranteed retained.
func (ls *LogStore) Floor() wal.LSN {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.floor
}

// SincePage returns records for one page with LSN > after. The store
// maintains per-page log chains (as PilotDB's PM layer does), so only the
// relevant records are visited and cross the network. Requests below the
// truncation floor fail with wal.ErrTruncated: the gap may have held
// records for this page, so the chain would be silently incomplete.
func (ls *LogStore) SincePage(c *sim.Clock, pageID uint64, after wal.LSN) ([]wal.Record, error) {
	op := ls.cfg.Begin(c, "logstore.read")
	if f := ls.cfg.Inject(c, "logstore.read"); f.Drop || f.Torn {
		op.End(0)
		return nil, f.FaultErr()
	}
	ls.mu.Lock()
	if ls.failed {
		ls.mu.Unlock()
		op.End(0)
		return nil, ErrReplicaDown
	}
	if after+1 < ls.floor {
		floor := ls.floor
		ls.mu.Unlock()
		op.End(0)
		return nil, fmt.Errorf("%w: page %d since %d, floor %d", wal.ErrTruncated, pageID, after, floor)
	}
	var out []wal.Record
	for i := ls.last[pageID]; i > 0; {
		sl := ls.records.At(int(i - 1))
		if sl.Rec.LSN > after {
			out = append(out, sl.Rec)
		}
		i = sl.Link
	}
	slices.Reverse(out)
	ls.mu.Unlock()
	n := wal.Size(out)
	ls.meter.Charge(c, ls.cost(n, false))
	op.End(int64(n))
	return out, nil
}

// Len reports stored record count.
func (ls *LogStore) Len() int {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.records.Len()
}

// LogStoreGroup replicates a log store N ways with a write quorum — the
// Taurus log-store arrangement (synchronously replicated logs; frugal
// asynchronous pages).
type LogStoreGroup struct {
	Stores []*LogStore
	Quorum int
	cfg    *sim.Config
	meter  *sim.Meter
}

// NewLogStoreGroup builds n stores with the given quorum on the medium.
func NewLogStoreGroup(cfg *sim.Config, n, quorum int, medium Medium) *LogStoreGroup {
	g := &LogStoreGroup{Quorum: quorum, cfg: cfg, meter: sim.NewMeter(cfg.NICSlots)}
	for i := 0; i < n; i++ {
		g.Stores = append(g.Stores, NewLogStore(cfg, medium))
	}
	return g
}

// Append replicates the records, returning at quorum: the clock advances
// by the quorum-th fastest store's persist latency (appends fan out in
// parallel). As on a Volume, each store holds its delivery undecided, and
// only Quorum whole deliveries decide it, on every store at once and
// uncharged: a failed append leaves nothing counted or served.
func (g *LogStoreGroup) Append(c *sim.Clock, recs []wal.Record) error {
	if err := g.cfg.Admit(c, "logstore.quorum", g.meter); err != nil {
		return err
	}
	op := g.cfg.Begin(c, "logstore.quorum")
	var ackBuf [8]time.Duration // one per store, on the stack for up to eight
	acks := ackBuf[:0]
	var leg sim.Clock
	for _, ls := range g.Stores {
		leg = c.Fork()
		if err := ls.deliver(&leg, recs); err != nil {
			continue
		}
		acks = append(acks, leg.Now()-c.Now())
	}
	if len(acks) < g.Quorum {
		op.End(0)
		return ErrNoQuorum
	}
	for _, ls := range g.Stores {
		ls.decide(recs, ls.pushLocked)
	}
	g.meter.ChargeQuorum(c, acks, g.Quorum)
	op.End(int64(wal.Size(recs)))
	return nil
}

// TruncateBefore fans the truncation horizon out to every store in
// parallel (a fork of c per store; the caller pays the slowest store's
// RPC, it is background work either way). Truncation needs no quorum — a
// store that misses the horizon retains extra records and retries next
// round — but total failure is surfaced so coordinators can count it.
func (g *LogStoreGroup) TruncateBefore(c *sim.Clock, upTo wal.LSN) error {
	op := g.cfg.Begin(c, "logstore.truncate.fanout")
	var slowest time.Duration
	okCount := 0
	var lastErr error
	var leg sim.Clock
	for _, ls := range g.Stores {
		leg = c.Fork()
		if err := ls.TruncateBefore(&leg, upTo); err != nil {
			lastErr = err
			continue
		}
		slowest = max(slowest, leg.Now()-c.Now())
		okCount++
	}
	g.meter.Charge(c, slowest)
	op.End(int64(okCount))
	if okCount == 0 && lastErr != nil {
		return lastErr
	}
	return nil
}

// Floor reports the highest retention floor across the stores: below it
// no single store is guaranteed to retain records (individual stores may
// lag the horizon when a truncation RPC was dropped).
func (g *LogStoreGroup) Floor() wal.LSN {
	var floor wal.LSN = 1
	for _, ls := range g.Stores {
		if f := ls.Floor(); f > floor {
			floor = f
		}
	}
	return floor
}

// HighLSN reports the highest LSN durable at a quorum of stores.
func (g *LogStoreGroup) HighLSN() wal.LSN {
	if len(g.Stores) < g.Quorum {
		return 0
	}
	lsns := make([]wal.LSN, len(g.Stores))
	for i, ls := range g.Stores {
		lsns[i] = ls.HighLSN()
	}
	slices.Sort(lsns)
	return lsns[len(lsns)-g.Quorum]
}
