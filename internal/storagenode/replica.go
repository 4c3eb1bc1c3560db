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
	"time"

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

// Replica is one storage server: a buffer of received log records that are
// applied ("materialized") to pages lazily, off the commit path — the core
// Aurora storage-engine idea — plus the durable images of the pages it has
// records for. A page nobody has logged to has no stored state: a read
// formats it blank into the caller's frame.
type Replica struct {
	cfg    *sim.Config
	Name   string
	AZ     int
	layout heap.Layout
	// netScale models the network distance from the writer (same-AZ
	// replicas are closer than cross-AZ ones).
	netScale float64
	nic      *sim.Meter

	// server's ledger holds quorum appends undecided (hold) until the
	// writer's commit decision receives them (decide) or a decided record at
	// their LSN, the abort healing ships, supersedes them. Its lock guards
	// the fields below.
	server
	pages map[page.ID][]byte
	// pending holds each page's received, unmaterialised updates, as what
	// redo reads of them. A list belongs to this replica alone and keeps its
	// capacity when it empties (prunePendingLocked), so a page's next ingest
	// appends into it.
	pending map[page.ID][]pendingUpdate
	// horizon is the recovery horizon this replica has adopted: every
	// LSN <= horizon is covered by checkpointed page state, the source
	// log below horizon+1 may be truncated, and re-deliveries at or
	// below it are dropped rather than re-materialized.
	horizon wal.LSN
	// appliedRecords counts materialized records (for tests/metrics).
	appliedRecords int64
}

// NewReplica creates an empty replica. The layout is used to format a page
// when its first log record is materialized, and to format a blank page
// straight into the frame of a read that finds no record for it.
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
		server:   server{led: newLedger()},
		pages:    make(map[page.ID][]byte),
		pending:  make(map[page.ID][]pendingUpdate),
	}
}

// pendingUpdate is one received, unmaterialised update record: the fields
// redo reads. Its page is the pending map's key, and only updates are
// pended, so the rest of the record is not kept.
type pendingUpdate struct {
	LSN   wal.LSN
	Key   uint64
	After []byte
}

// netCost models one message of n bytes from the writer to this replica,
// before queueing.
func (r *Replica) netCost(n int) time.Duration {
	return time.Duration(float64(r.cfg.TCP.Cost(n)) * r.netScale)
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
// Ownership: recs stays the caller's — an update's LSN and key are copied
// into its page's pending list — but each update's After is kept by
// reference until it is materialised or dropped. That is the engine.Hooks
// contract: After is a fresh slice nobody writes again.
func (r *Replica) ingest(recs []wal.Record) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failed {
		return false
	}
	for i := range recs {
		if r.led.receive(recs[i].LSN) {
			r.pendLocked(&recs[i])
		}
	}
	r.led.decide(nil, nil) // forget the undecided copies these supersede
	return true
}

// pendLocked takes one record the ledger newly received: a page change
// joins its page's pending list. A duplicate delivery never gets here, and
// neither does a record at or below the adopted recovery horizon, which the
// ledger covers: the checkpointed page images hold it, and re-materialising
// it (a gossip round re-delivering pre-checkpoint records) would stamp a
// freshly formatted page with a below-horizon LSN and serve it as if
// complete.
func (r *Replica) pendLocked(rec *wal.Record) {
	if rec.Type == wal.TypeUpdate {
		id := page.ID(rec.PageID)
		r.pending[id] = append(r.pending[id], pendingUpdate{LSN: rec.LSN, Key: rec.Key, After: rec.After})
	}
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
	n := wal.Size(deliver)
	r.nic.Charge(c, r.cfg.TCP.Cost(n))
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

// materializeLocked applies pending records to the page, formatting and
// storing its image first if it has none. A page with neither an image nor
// pending records has nothing to apply: it returns nil and stores nothing,
// so the replica holds only the pages it has records for. CPU cost is
// charged to the caller performing the read (Aurora charges this to
// background appliers; charging the reader is the conservative choice and
// only matters when reads outpace materialization).
func (r *Replica) materializeLocked(c *sim.Clock, id page.ID) []byte {
	data, ok := r.pages[id]
	pend := r.pending[id]
	if len(pend) == 0 {
		return data
	}
	if !ok {
		data = r.layout.FormatPage(id).Bytes()
		r.pages[id] = data
	}
	// Gossip and repair can deliver records out of order; redo must be
	// applied in LSN order for the page-LSN idempotence check to hold.
	slices.SortFunc(pend, func(a, b pendingUpdate) int { return cmp.Compare(a.LSN, b.LSN) })
	p := page.Wrap(data)
	r.prunePendingLocked(id, func(rec *pendingUpdate) bool {
		if rec.LSN <= r.horizon {
			// Covered by the adopted checkpoint: the page image (local or
			// adopted from a checkpointed peer) already reflects it. Drop
			// rather than re-apply onto a possibly fresher image.
			return false
		}
		if rec.LSN > r.led.prefix {
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

// prunePendingLocked keeps the updates of page id's pending list that keep
// reports true for, in order, compacting the list in place. The vacated
// tail is cleared so the dropped updates' After images can be collected,
// and the list stays in r.pending, emptied or not, with its capacity.
func (r *Replica) prunePendingLocked(id page.ID, keep func(rec *pendingUpdate) bool) {
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
	// page itself is already at minLSN (e.g. copied by adoptCheckpoint). A
	// page with no image is blank, at LSN 0.
	var lsn wal.LSN
	if data != nil {
		lsn = wal.LSN(page.Wrap(data).LSN())
	}
	if r.led.prefix < minLSN && lsn < minLSN {
		op.End(0)
		return nil, ErrStaleReplica
	}
	size := r.layout.PageSize
	r.nic.Charge(c, r.cfg.TCP.Cost(size))
	op.End(int64(size))
	// The frame becomes a compute node's cache frame (buffer.Fetcher).
	out := page.Alloc(size)
	if data == nil {
		r.layout.Format(out, id)
	} else {
		copy(out, data)
	}
	return out, nil
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
// checkpointed page images were copied by adoptCheckpoint. The replica
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
	r.led.cover(h)
	// Materialize everything the new prefix completes BEFORE adopting the
	// horizon: pending records at or below h must reach their pages now —
	// after adoption they would be treated as covered and dropped.
	for _, id := range r.pendingPagesLocked() {
		r.materializeLocked(c, id)
	}
	r.horizon = h
	r.mu.Unlock()
	op.End(int64(h))
}

// adoptCheckpoint copies the peer's checkpointed page images needed to
// cover horizon h onto this replica (the truncated range below h cannot
// be replayed from any log): those of the pages the peer has records for.
// The peer must itself cover h. Returns pages copied.
func (r *Replica) adoptCheckpoint(c *sim.Clock, peer *Replica, h wal.LSN) (int, error) {
	peer.mu.Lock()
	if peer.failed {
		peer.mu.Unlock()
		return 0, ErrReplicaDown
	}
	if peer.led.prefix < h && peer.horizon < h {
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
		if data == nil {
			continue
		}
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
		r.led.high = max(r.led.high, lsn)
		// The image supersedes pending records at or below its LSN.
		r.prunePendingLocked(id, func(rec *pendingUpdate) bool { return rec.LSN > lsn })
		bytes += len(img)
		copied++
	}
	r.mu.Unlock()
	c.Advance(r.cfg.TCP.Cost(bytes))
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
	if r.Failed() {
		return 0, ErrReplicaDown
	}
	from, adopted := r.PrefixLSN(), 0
	if floor := log.Floor(); from+1 < floor {
		n, err := r.adoptCheckpoint(c, peer, floor-1)
		if err != nil {
			return 0, err
		}
		adopted, from = n, floor-1
	}
	if peer.Failed() {
		return adopted, ErrReplicaDown
	}
	n, err := r.ship(c, log, from, peer)
	return adopted + n, err
}

// CatchUpFromLog ships every record the replica lacks straight from the
// authoritative log (heal path: injected drops and torn deliveries can
// leave LSN holes no peer holds either, which would stall the prefix
// forever). Returns the number of records shipped. When the log has been
// truncated past this replica's prefix the gap is unrecoverable from the
// log: the replica ships nothing (rather than silently skipping the gap
// and later serving partially materialized pages) and must instead adopt
// checkpointed page images via CatchUpFrom.
func (r *Replica) CatchUpFromLog(c *sim.Clock, log *wal.Log) int {
	if r.Failed() {
		return 0
	}
	n, _ := r.ship(c, log, r.PrefixLSN(), nil)
	return n
}

// ship is the one catch-up walk: it delivers the records of log above from
// that the replica lacks and peer (if any) holds, charging c. A walk the
// truncation floor cuts short fails uncharged, keeping what it delivered.
func (r *Replica) ship(c *sim.Clock, log *wal.Log, from wal.LSN, peer *Replica) (int, error) {
	s := shipment{r: r}
	err := log.Range(from, ^wal.LSN(0), func(rec *wal.Record) error {
		if (peer == nil || peer.has(rec.LSN)) && !r.has(rec.LSN) {
			s.add(rec)
		}
		return nil
	})
	s.flush()
	if err != nil {
		return 0, err
	}
	s.charge(c)
	return s.records, nil
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
		c.Advance(s.r.cfg.TCP.Cost(s.bytes))
	}
}

// String implements fmt.Stringer.
func (r *Replica) String() string {
	return fmt.Sprintf("replica(%s az=%d lsn=%d)", r.Name, r.AZ, r.HighLSN())
}
