// Package storagenode implements the disaggregated storage tier shared by
// the storage-disaggregation engines (§2): individual storage replicas that
// accept log records and materialize pages from them asynchronously
// ("log-as-the-database", Aurora), quorum-replicated volumes (6 replicas /
// 3 AZs, write quorum 4, read quorum 3), dedicated log stores (Socrates
// XLOG, Taurus log stores), and gossip-based anti-entropy between page
// stores (Taurus).
package storagenode

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/wal"
)

// Package errors.
var (
	ErrReplicaDown  = errors.New("storagenode: replica down")
	ErrNoQuorum     = errors.New("storagenode: quorum unavailable")
	ErrStaleReplica = errors.New("storagenode: replica behind requested LSN")
)

// Replica is one storage server: durable pages plus a buffer of received
// log records that are applied ("materialized") to pages lazily, off the
// commit path — the core Aurora storage-engine idea.
type Replica struct {
	cfg    *sim.Config
	Name   string
	AZ     int
	layout heap.Layout
	// netScale models the network distance from the writer (same-AZ
	// replicas are closer than cross-AZ ones).
	netScale float64
	nic      *sim.Meter

	mu    sync.Mutex
	pages map[page.ID][]byte
	// pending holds each page's received, unmaterialised records. A list
	// belongs to this replica alone and keeps its capacity when it empties
	// (prunePendingLocked), so a page's next ingest appends into it.
	pending map[page.ID][]wal.Record
	// undecided holds the records of quorum appends whose outcome has not
	// reached the replica (hold): not received — no prefix, no high LSN,
	// never materialised, never shipped — until the writer's commit decision
	// promotes them (decide) or a decided record at their LSN, the commit or
	// the abort healing ships, supersedes them. The list keeps its capacity.
	undecided []wal.Record
	highLSN   wal.LSN
	// prefixLSN is the highest L such that every LSN in [1, L] has been
	// received. Single-store feeds (Taurus page stores) leave holes, so
	// freshness must be judged by the contiguous prefix, not the max.
	prefixLSN wal.LSN
	// holes holds received LSNs beyond the prefix (bounded by the number
	// of gaps, drained as the prefix advances).
	holes map[wal.LSN]struct{}
	// horizon is the recovery horizon this replica has adopted: every
	// LSN <= horizon is covered by checkpointed page state, the source
	// log below horizon+1 may be truncated, and re-deliveries at or
	// below it are dropped rather than re-materialized.
	horizon wal.LSN
	failed  bool
	// appliedRecords counts materialized records (for tests/metrics).
	appliedRecords int64
}

// NewReplica creates an empty replica. The layout is used to format pages
// on demand when the first log record for a page arrives.
func NewReplica(cfg *sim.Config, name string, az int, layout heap.Layout, netScale float64) *Replica {
	if netScale <= 0 {
		netScale = 1
	}
	return &Replica{
		cfg:      cfg,
		Name:     name,
		AZ:       az,
		layout:   layout,
		netScale: netScale,
		nic:      sim.NewMeter(cfg.NICSlots),
		pages:    make(map[page.ID][]byte),
		pending:  make(map[page.ID][]wal.Record),
		holes:    make(map[wal.LSN]struct{}),
	}
}

// netCost models one message of n bytes from the writer to this replica,
// before queueing.
func (r *Replica) netCost(n int) float64 {
	return float64(r.cfg.TCP.Cost(n)) * r.netScale
}

// Fail crashes the replica. Pages and buffered log records are durable
// (they were acknowledged only after reaching persistent media).
func (r *Replica) Fail() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed = true
}

// Restart brings the replica back.
func (r *Replica) Restart() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed = false
}

// Failed reports crash state.
func (r *Replica) Failed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failed
}

// HighLSN reports the highest LSN this replica has received.
func (r *Replica) HighLSN() wal.LSN {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.highLSN
}

// AppliedRecords reports how many records have been materialized.
func (r *Replica) AppliedRecords() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.appliedRecords
}

// ingest buffers records without charging network cost (the volume layer
// accounts transfer once per quorum write). Crashed replicas miss the
// records — they must catch up via CatchUpFrom.
//
// Ownership: recs stays the caller's — every record is copied by value into
// the page's pending list — but each record's After is kept by reference
// until the record is materialised or dropped. That is the engine.Hooks
// contract: After is a fresh slice nobody writes again.
func (r *Replica) ingest(recs []wal.Record) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failed {
		return false
	}
	for i := range recs {
		r.receiveLocked(&recs[i])
	}
	r.advancePrefixLocked()
	r.dropSupersededLocked()
	return true
}

// receiveLocked takes one decided record: a page change joins its page's
// pending list, and its LSN counts as received.
func (r *Replica) receiveLocked(rec *wal.Record) {
	if !r.lacksLocked(rec.LSN) {
		return
	}
	switch rec.Type {
	case wal.TypeUpdate, wal.TypeInsert, wal.TypeDelete:
		r.pending[page.ID(rec.PageID)] = append(r.pending[page.ID(rec.PageID)], *rec)
	}
	if rec.LSN > r.highLSN {
		r.highLSN = rec.LSN
	}
	r.holes[rec.LSN] = struct{}{}
}

// lacksLocked reports whether a record at lsn is one the replica still has
// to take: not a duplicate delivery, and above the adopted recovery horizon.
// The checkpointed page images cover a record at or below the horizon;
// re-materialising it (a gossip round re-delivering pre-checkpoint records)
// would stamp a freshly formatted page with a below-horizon LSN and serve it
// as if complete.
func (r *Replica) lacksLocked(lsn wal.LSN) bool {
	return !r.hasLSN(lsn) && lsn > r.horizon
}

// advancePrefixLocked advances the contiguous prefix through filled holes.
func (r *Replica) advancePrefixLocked() {
	for {
		if _, ok := r.holes[r.prefixLSN+1]; !ok {
			break
		}
		delete(r.holes, r.prefixLSN+1)
		r.prefixLSN++
	}
}

// hold buffers the records of a quorum append undecided (Volume.AppendLog):
// until the writer's decision reaches the replica, it neither counts nor
// materialises nor ships them. Ownership is as for ingest.
func (r *Replica) hold(recs []wal.Record) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failed {
		return false
	}
	for _, rec := range recs {
		if r.lacksLocked(rec.LSN) {
			r.undecided = append(r.undecided, rec)
		}
	}
	return true
}

// decide delivers the writer's commit decision for recs, sorted by LSN: the
// replica's undecided copies of them are received, as ingest would take
// them. A replica that is down misses the decision, and healing later ships
// it the log's records in their place.
func (r *Replica) decide(recs []wal.Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failed || len(r.undecided) == 0 {
		return
	}
	r.pruneUndecidedLocked(func(u *wal.Record) bool {
		if _, in := slices.BinarySearchFunc(recs, u.LSN, byLSN); !in {
			return true
		}
		r.receiveLocked(u)
		return false
	})
	r.advancePrefixLocked()
}

func byLSN(rec wal.Record, lsn wal.LSN) int { return cmp.Compare(rec.LSN, lsn) }

// dropSupersededLocked forgets the undecided records whose LSN the replica
// has since received decided — the writer's commit, or the abort healing
// ships — or that its recovery horizon covers.
func (r *Replica) dropSupersededLocked() {
	if len(r.undecided) > 0 {
		r.pruneUndecidedLocked(func(u *wal.Record) bool { return r.lacksLocked(u.LSN) })
	}
}

// pruneUndecidedLocked keeps the undecided records keep reports true for,
// in order, compacting the list in place and clearing its vacated tail.
func (r *Replica) pruneUndecidedLocked(keep func(u *wal.Record) bool) {
	kept := r.undecided[:0]
	for i := range r.undecided {
		if keep(&r.undecided[i]) {
			kept = append(kept, r.undecided[i])
		}
	}
	clear(r.undecided[len(kept):])
	r.undecided = kept
}

// hasLSN reports whether the replica has received the record at lsn.
func (r *Replica) hasLSN(lsn wal.LSN) bool {
	if lsn <= r.prefixLSN {
		return true
	}
	_, ok := r.holes[lsn]
	return ok
}

// PrefixLSN reports the highest LSN up to which the replica has a complete,
// gap-free log.
func (r *Replica) PrefixLSN() wal.LSN {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.prefixLSN
}

// Ingest delivers records directly to this replica, charging its network
// link (single-replica tiers: Socrates page servers, Taurus page stores).
// Fault injection can drop the delivery (transient error: no record lands),
// tear it (a prefix lands, the rest is lost, caller sees an error), or
// duplicate it (absorbed — ingest dedups by LSN).
func (r *Replica) Ingest(c *sim.Clock, recs []wal.Record) error {
	op := r.cfg.Begin(c, "replica.ingest")
	f := r.cfg.Inject(c, "replica.ingest")
	if f.Drop {
		op.End(0)
		return f.FaultErr()
	}
	deliver := recs
	if f.Torn {
		deliver = recs[:len(recs)/2]
	}
	n := encodedSize(deliver)
	r.nic.Charge(c, sim.LatencyModel{Base: r.cfg.TCP.Base, BytesPerSec: r.cfg.TCP.BytesPerSec}.Cost(n))
	if !r.ingest(deliver) {
		op.End(0)
		return ErrReplicaDown
	}
	if f.Duplicate {
		r.ingest(deliver) // repeat delivery; LSN dedup absorbs it
	}
	op.End(int64(n))
	if f.Torn {
		return f.FaultErr()
	}
	return nil
}

func encodedSize(recs []wal.Record) int {
	n := 0
	for i := range recs {
		n += recs[i].EncodedSize()
	}
	return n
}

// materializeLocked applies pending records to the page, formatting it
// first if needed. CPU cost is charged to the caller performing the read
// (Aurora charges this to background appliers; charging the reader is the
// conservative choice and only matters when reads outpace materialization).
func (r *Replica) materializeLocked(c *sim.Clock, id page.ID) []byte {
	data, ok := r.pages[id]
	if !ok {
		data = r.layout.FormatPage(id).Bytes()
		r.pages[id] = data
	}
	pend := r.pending[id]
	if len(pend) == 0 {
		return data
	}
	// Gossip and repair can deliver records out of order; redo must be
	// applied in LSN order for the page-LSN idempotence check to hold.
	slices.SortFunc(pend, func(a, b wal.Record) int { return cmp.Compare(a.LSN, b.LSN) })
	p := page.Wrap(data)
	r.prunePendingLocked(id, func(rec *wal.Record) bool {
		if rec.LSN <= r.horizon {
			// Covered by the adopted checkpoint: the page image (local or
			// adopted from a checkpointed peer) already reflects it. Drop
			// rather than re-apply onto a possibly fresher image.
			return false
		}
		if rec.LSN > r.prefixLSN {
			// Past a log hole: applying this record would stamp the page
			// with an LSN that overstates completeness (ReadPage would
			// then serve the page as fresh while a dropped record for
			// another key on it is still missing). Hold it until the
			// prefix catches up.
			return true
		}
		if rec.LSN <= wal.LSN(p.LSN()) {
			return false
		}
		// Redo: install the after-image.
		if err := r.layout.WriteValue(data, rec.Key, rec.After, uint64(rec.LSN)); err == nil {
			r.appliedRecords++
		}
		if c != nil {
			c.Advance(r.cfg.CPU.Cost(len(rec.After) + 16))
		}
		return false
	})
	return data
}

// prunePendingLocked keeps the records of page id's pending list that keep
// reports true for, in order, compacting the list in place. The vacated
// tail is cleared so the dropped records' After images can be collected,
// and the list stays in r.pending, emptied or not, with its capacity.
func (r *Replica) prunePendingLocked(id page.ID, keep func(rec *wal.Record) bool) {
	pend := r.pending[id]
	if len(pend) == 0 {
		return
	}
	kept := pend[:0]
	for i := range pend {
		if keep(&pend[i]) {
			kept = append(kept, pend[i])
		}
	}
	clear(pend[len(kept):])
	r.pending[id] = kept
}

// ReadPage returns the page materialized to at least minLSN, charging the
// network round trip and materialization. It fails on crashed replicas and
// on replicas that have not received log up to minLSN (stale gossip copy).
func (r *Replica) ReadPage(c *sim.Clock, id page.ID, minLSN wal.LSN) ([]byte, error) {
	op := r.cfg.Begin(c, "replica.read")
	if f := r.cfg.Inject(c, "replica.read"); f.Drop || f.Torn {
		op.End(0)
		return nil, f.FaultErr()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failed {
		op.End(0)
		return nil, ErrReplicaDown
	}
	data := r.materializeLocked(c, id)
	// Fresh enough if the log prefix covers minLSN, or the materialized
	// page itself is already at minLSN (e.g. installed via WritePage).
	if r.prefixLSN < minLSN && wal.LSN(page.Wrap(data).LSN()) < minLSN {
		op.End(0)
		return nil, ErrStaleReplica
	}
	r.nic.Charge(c, sim.LatencyModel{Base: r.cfg.TCP.Base, BytesPerSec: r.cfg.TCP.BytesPerSec}.Cost(len(data)))
	op.End(int64(len(data)))
	// The copy becomes a compute node's cache frame (buffer.Fetcher).
	out := page.Alloc(len(data))
	copy(out, data)
	return out, nil
}

// WritePage installs a full page image (page-shipping path used by PolarDB
// alongside log shipping, and by checkpointers).
func (r *Replica) WritePage(c *sim.Clock, id page.ID, data []byte) error {
	op := r.cfg.Begin(c, "replica.write")
	if f := r.cfg.Inject(c, "replica.write"); f.Drop || f.Torn {
		op.End(0)
		return f.FaultErr()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failed {
		op.End(0)
		return ErrReplicaDown
	}
	r.nic.Charge(c, sim.LatencyModel{Base: r.cfg.TCP.Base, BytesPerSec: r.cfg.TCP.BytesPerSec}.Cost(len(data)))
	op.End(int64(len(data)))
	cp := make([]byte, len(data))
	copy(cp, data)
	r.pages[id] = cp
	if lsn := wal.LSN(page.Wrap(cp).LSN()); lsn > r.highLSN {
		r.highLSN = lsn
	}
	// Page image supersedes pending records at or below its LSN.
	pl := wal.LSN(page.Wrap(cp).LSN())
	r.prunePendingLocked(id, func(rec *wal.Record) bool { return rec.LSN > pl })
	return nil
}

// pendingPagesLocked lists the pages with unmaterialised records.
func (r *Replica) pendingPagesLocked() []page.ID {
	var ids []page.ID
	for id, pend := range r.pending {
		if len(pend) > 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// PendingRecords reports buffered, unmaterialized records.
func (r *Replica) PendingRecords() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, p := range r.pending {
		n += len(p)
	}
	return n
}

// Horizon reports the recovery horizon this replica has adopted.
func (r *Replica) Horizon() wal.LSN {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.horizon
}

// AdvanceHorizon adopts a new recovery horizon: the caller (a checkpoint
// coordinator) asserts this replica's state covers every LSN <= h —
// either the records have all been delivered (converged via catch-up) or
// checkpointed page images were installed via WritePage. The replica
// materializes what the horizon completes, advances its contiguous
// prefix to h, and drops bookkeeping at or below it; subsequent
// re-deliveries at or below h are absorbed rather than re-materialized.
func (r *Replica) AdvanceHorizon(c *sim.Clock, h wal.LSN) {
	op := r.cfg.Begin(c, "replica.horizon")
	r.mu.Lock()
	if h <= r.horizon {
		r.mu.Unlock()
		op.End(0)
		return
	}
	for lsn := range r.holes {
		if lsn <= h {
			delete(r.holes, lsn)
		}
	}
	if h > r.prefixLSN {
		r.prefixLSN = h
	}
	for {
		if _, ok := r.holes[r.prefixLSN+1]; !ok {
			break
		}
		delete(r.holes, r.prefixLSN+1)
		r.prefixLSN++
	}
	// Materialize everything the new prefix completes BEFORE adopting the
	// horizon: pending records at or below h must reach their pages now —
	// after adoption they would be treated as covered and dropped.
	for _, id := range r.pendingPagesLocked() {
		r.materializeLocked(c, id)
	}
	r.horizon = h
	r.dropSupersededLocked()
	if h > r.highLSN {
		r.highLSN = h
	}
	r.mu.Unlock()
	op.End(int64(h))
}

// adoptCheckpoint copies the peer's checkpointed page images needed to
// cover horizon h onto this replica (the truncated range below h cannot
// be replayed from any log). The peer must itself cover h. Returns pages
// copied.
func (r *Replica) adoptCheckpoint(c *sim.Clock, peer *Replica, h wal.LSN) (int, error) {
	peer.mu.Lock()
	if peer.failed {
		peer.mu.Unlock()
		return 0, ErrReplicaDown
	}
	if peer.prefixLSN < h && peer.horizon < h {
		peer.mu.Unlock()
		return 0, ErrStaleReplica
	}
	images := make(map[page.ID][]byte)
	ids := make([]page.ID, 0, len(peer.pages)+len(peer.pending))
	for id := range peer.pages {
		ids = append(ids, id)
	}
	for id := range peer.pending {
		if _, ok := peer.pages[id]; !ok {
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		data := peer.materializeLocked(nil, id)
		cp := make([]byte, len(data))
		copy(cp, data)
		images[id] = cp
	}
	peer.mu.Unlock()

	r.mu.Lock()
	bytes, copied := 0, 0
	for id, img := range images {
		lsn := wal.LSN(page.Wrap(img).LSN())
		if cur, ok := r.pages[id]; ok && wal.LSN(page.Wrap(cur).LSN()) >= lsn {
			continue
		}
		r.pages[id] = img
		if lsn > r.highLSN {
			r.highLSN = lsn
		}
		// The image supersedes pending records at or below its LSN.
		r.prunePendingLocked(id, func(rec *wal.Record) bool { return rec.LSN > lsn })
		bytes += len(img)
		copied++
	}
	r.mu.Unlock()
	c.Advance(sim.LatencyModel{Base: r.cfg.TCP.Base, BytesPerSec: r.cfg.TCP.BytesPerSec}.Cost(bytes))
	r.AdvanceHorizon(c, h)
	return copied, nil
}

// CatchUpFrom copies missing state from a healthy peer (recovery after a
// crash or a gossip round). It transfers only records the peer has beyond
// this replica's highLSN, charging network transfer for the delta, and
// returns the number of records transferred. When the source log has
// been truncated past this replica's prefix, the gap cannot be replayed:
// the replica first adopts the peer's checkpointed page images covering
// the recovery horizon, then tail-replays above it — without this, a
// post-truncation catch-up would silently skip the gap and re-materialize
// below-horizon records onto pages whose checkpointed images live
// elsewhere.
func (r *Replica) CatchUpFrom(c *sim.Clock, peer *Replica, log *wal.Log) (int, error) {
	r.mu.Lock()
	if r.failed {
		r.mu.Unlock()
		return 0, ErrReplicaDown
	}
	from := r.prefixLSN
	r.mu.Unlock()
	adopted := 0
	if floor := log.Floor(); from+1 < floor {
		n, err := r.adoptCheckpoint(c, peer, floor-1)
		if err != nil {
			return 0, err
		}
		adopted = n
		from = floor - 1
	}

	peer.mu.Lock()
	peerFailed := peer.failed
	peer.mu.Unlock()
	if peerFailed {
		return adopted, ErrReplicaDown
	}
	// Ship exactly the records the peer holds and the receiver lacks
	// (the receiver may have holes above its prefix).
	s := shipment{r: r}
	err := log.Range(from, ^wal.LSN(0), func(rec *wal.Record) error {
		peer.mu.Lock()
		has := peer.hasLSN(rec.LSN)
		peer.mu.Unlock()
		if !has {
			return nil
		}
		r.mu.Lock()
		lacks := !r.hasLSN(rec.LSN)
		r.mu.Unlock()
		if lacks {
			s.add(rec)
		}
		return nil
	})
	s.flush()
	if err != nil {
		return adopted, err
	}
	s.charge(c)
	return adopted + s.records, nil
}

// shipment is one catch-up's delivery, made in fixed chunks: a full chunk
// is ingested while the walk goes on, and the network is charged once, over
// the encoded size of everything shipped, when it ends. Ingesting a chunk
// early changes no later lacks-check of the walk (its LSNs ascend), and a
// walk cut short keeps what it delivered: records extend the replica's log,
// the prefix only over what it holds.
type shipment struct {
	r       *Replica
	chunk   [64]wal.Record
	n       int
	records int
	bytes   int
}

func (s *shipment) add(rec *wal.Record) {
	s.chunk[s.n] = *rec
	s.n++
	s.records++
	s.bytes += rec.EncodedSize()
	if s.n == len(s.chunk) {
		s.flush()
	}
}

// flush ingests the partial chunk and clears it, so the chunk keeps no
// After image reachable.
func (s *shipment) flush() {
	if s.n == 0 {
		return
	}
	s.r.ingest(s.chunk[:s.n])
	clear(s.chunk[:s.n])
	s.n = 0
}

// charge advances c by the transfer of everything shipped; an empty
// shipment costs nothing.
func (s *shipment) charge(c *sim.Clock) {
	if s.records > 0 && c != nil {
		c.Advance(sim.LatencyModel{Base: s.r.cfg.TCP.Base, BytesPerSec: s.r.cfg.TCP.BytesPerSec}.Cost(s.bytes))
	}
}

// CatchUpFromLog ships every record the replica lacks straight from the
// authoritative log (heal path: injected drops and torn deliveries can
// leave LSN holes no peer holds either, which would stall the prefix
// forever). Returns the number of records shipped. When the log has been
// truncated past this replica's prefix the gap is unrecoverable from the
// log: the replica ships nothing (rather than silently skipping the gap
// and later serving partially materialized pages) and must instead adopt
// checkpointed page images via CatchUpFrom/WritePage.
func (r *Replica) CatchUpFromLog(c *sim.Clock, log *wal.Log) int {
	r.mu.Lock()
	if r.failed {
		r.mu.Unlock()
		return 0
	}
	from := r.prefixLSN
	r.mu.Unlock()
	// A walk that starts below the truncation floor ships nothing: the gap.
	s := shipment{r: r}
	err := log.Range(from, ^wal.LSN(0), func(rec *wal.Record) error {
		r.mu.Lock()
		lacks := !r.hasLSN(rec.LSN)
		r.mu.Unlock()
		if lacks {
			s.add(rec)
		}
		return nil
	})
	s.flush()
	if err != nil {
		return 0
	}
	s.charge(c)
	return s.records
}

// String implements fmt.Stringer.
func (r *Replica) String() string {
	return fmt.Sprintf("replica(%s az=%d lsn=%d)", r.Name, r.AZ, r.HighLSN())
}
