// Package wal implements the write-ahead log shared by every OLTP engine:
// typed log records with a binary codec and a sequential in-memory log with
// group commit ("the log is the database" — Aurora, §2.1). The redo rule
// that applies a record to a page image is engine.Pipeline.Redo.
//
// The log has two read primitives. Log.Range walks an LSN range, checks the
// truncation floor and runs its callback outside the log's lock: checkpoint
// flushes, crash recovery, replica catch-up. Log.RedoPage walks one page's
// chain (the log is chained per page, as the storage side is organised) and
// runs its callback under the lock: a page miss replays its own records.
//
// The log owns its redo images. Reserve and Append copy each update's image
// into chunks of ChunkSize bytes taken from page.Alloc and point the record
// at that copy, so the caller's buffer is free again when they return, and
// every later holder of the record (a Durable hook, a replica's pending
// list, a log store's slot, a materialized view) aliases the log's bytes.
// An image is never written again. TruncateBefore drops the chunks that lie
// wholly below the floor to the garbage collector, not to the free list,
// because such holders may still alias them; Release hands every chunk to
// page.Release once nothing reads the log or its holders any more.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/disagglab/disagg/internal/page"
)

// LSN is a log sequence number. LSN 0 is "nil" (no record).
type LSN uint64

// Type enumerates log record kinds.
type Type uint8

// Log record kinds.
const (
	TypeUpdate Type = iota + 1
	TypeCommit
	TypeAbort
)

func (t Type) String() string {
	switch t {
	case TypeUpdate:
		return "update"
	case TypeCommit:
		return "commit"
	case TypeAbort:
		return "abort"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Record is one log record. Update records carry the page, key and the
// redo image only: the engines log redo, never undo, so a record holds no
// before-image. Commit/Abort carry only transaction metadata.
type Record struct {
	LSN    LSN
	Type   Type
	TxID   uint64
	PageID uint64
	Key    uint64
	After  []byte // redo image
}

// recordHeader is the wire header: lsn type tx page key ulen alen. The
// undo-length word ulen is always 0, as the engines log redo only; the
// header keeps it because the simulated network and log byte counts are
// charged by wire size.
const recordHeader = 8 + 1 + 8 + 8 + 8 + 4 + 4

// EncodedSize reports the record's wire size.
func (r *Record) EncodedSize() int { return recordHeader + len(r.After) }

// Size reports the wire size of recs back to back.
func Size(recs []Record) int {
	n := 0
	for i := range recs {
		n += recs[i].EncodedSize()
	}
	return n
}

// Encode appends the record's wire form to dst and returns the result.
func (r *Record) Encode(dst []byte) []byte {
	var hdr [recordHeader]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(r.LSN))
	hdr[8] = byte(r.Type)
	binary.LittleEndian.PutUint64(hdr[9:], r.TxID)
	binary.LittleEndian.PutUint64(hdr[17:], r.PageID)
	binary.LittleEndian.PutUint64(hdr[25:], r.Key)
	binary.LittleEndian.PutUint32(hdr[37:], uint32(len(r.After))) // hdr[33:37], ulen, stays 0
	dst = append(dst, hdr[:]...)
	dst = append(dst, r.After...)
	return dst
}

// Common codec errors.
var (
	ErrShortRecord = errors.New("wal: short record")
	ErrBadRecord   = errors.New("wal: bad record")
)

// Decode parses one record from p, returning the record and the number of
// bytes consumed. A nonzero undo length is a bad record. The record's After
// is p's own bytes, not a copy, with its capacity capped at the record's
// end, so an append to it reallocates instead of writing over the next
// record: p must not change while the record is in use.
func Decode(p []byte) (Record, int, error) {
	if len(p) < recordHeader {
		return Record{}, 0, ErrShortRecord
	}
	var r Record
	r.LSN = LSN(binary.LittleEndian.Uint64(p[0:]))
	r.Type = Type(p[8])
	if r.Type < TypeUpdate || r.Type > TypeAbort {
		return Record{}, 0, fmt.Errorf("%w: type %d", ErrBadRecord, p[8])
	}
	r.TxID = binary.LittleEndian.Uint64(p[9:])
	r.PageID = binary.LittleEndian.Uint64(p[17:])
	r.Key = binary.LittleEndian.Uint64(p[25:])
	if ulen := binary.LittleEndian.Uint32(p[33:]); ulen != 0 {
		return Record{}, 0, fmt.Errorf("%w: undo length %d", ErrBadRecord, ulen)
	}
	alen := binary.LittleEndian.Uint32(p[37:])
	if uint64(len(p)-recordHeader) < uint64(alen) {
		return Record{}, 0, ErrShortRecord
	}
	total := recordHeader + int(alen)
	if total > recordHeader {
		r.After = p[recordHeader:total:total]
	}
	return r, total, nil
}

// DecodePrefix parses the longest clean prefix of a record stream,
// tolerating a torn tail: a trailing partial record (short header or
// truncated payload — what a crash mid-append leaves behind) is discarded
// rather than reported as an error. A structurally bad record (invalid
// type byte, nonzero undo length) still fails: that is corruption, not a
// crash artifact.
// Returns the records and the number of bytes consumed.
func DecodePrefix(p []byte) ([]Record, int, error) {
	var out []Record
	used := 0
	for len(p) > 0 {
		r, n, err := Decode(p)
		if errors.Is(err, ErrShortRecord) {
			return out, used, nil
		}
		if err != nil {
			return out, used, err
		}
		out = append(out, r)
		p = p[n:]
		used += n
	}
	return out, used, nil
}

// ErrTruncated is returned by Range when the requested range reaches
// below the truncation floor: records there were discarded by a
// checkpoint, so a replay from that point would silently miss updates.
// Callers must restart from a checkpointed page image at or above the
// floor instead.
var ErrTruncated = errors.New("wal: requested range below truncation floor")

// Log is a thread-safe, append-only in-memory log. Durability of appended
// records is the engine's concern (engines ship encoded records to log
// tiers / storage nodes and only then acknowledge commits).
//
// Records are dense and LSN-ordered (Append and Reserve assign next++,
// TruncateBefore keeps a suffix): the record at lsn is slot lsn-first().
//
// A transaction reaches the log in two steps. Reserve assigns its records
// LSNs and chains them on their pages, but leaves their slots undecided —
// the zero Record, seen by no reader: Range stops before the first one and
// RedoPage passes over it — until Decide fills them with the records once
// they are durable, or with aborts, which every reader skips, once they
// cannot be. Append is both steps at once. Decided is the end of the
// contiguous decided prefix.
type Log struct {
	mu      sync.Mutex
	records Segments
	// Each slot's Link and last are the per-page redo chain (RedoPage). For
	// an update, the link is the LSN of the previous update of the same
	// page, else 0 — commit and abort records carry PageID 0, a real page,
	// and are not chained. last[p] is the LSN of page p's newest update. A link below first() ends the
	// chain. The links sit beside the records, not in them: a Record is
	// copied by value on every commit.
	last  map[uint64]LSN
	chain []LSN // RedoPage's scratch: one page's LSNs, newest first
	next  LSN
	// decided is the highest LSN at or below which no slot is undecided.
	decided LSN
	// floor is the lowest LSN guaranteed retained: TruncateBefore(upTo)
	// raises it to upTo. Records below the floor are gone for good.
	floor LSN
	// chunks hold the retained records' images, oldest first; images are
	// copied into the last one from offset fill on.
	chunks []chunk
	fill   int
}

// ChunkSize is the length of the buffers the log copies update images into.
const ChunkSize = 32 << 10

// chunk is one image buffer and the highest LSN whose image it holds.
type chunk struct {
	buf  []byte
	high LSN
}

// NewLog returns an empty log whose first LSN is 1.
func NewLog() *Log { return &Log{next: 1, floor: 1, last: make(map[uint64]LSN)} }

// first is the LSN slot 0 has, or would have; the caller holds l.mu.
func (l *Log) first() LSN { return l.next - LSN(l.records.Len()) }

// slot returns the slot of a retained lsn; the caller holds l.mu.
func (l *Log) slot(lsn LSN) *Slot { return l.records.At(int(lsn - l.first())) }

// Append assigns r the next LSN and stores it decided, with a copy of its
// image, returning the LSN.
func (l *Log) Append(r Record) LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reserve(&r).Rec = r
	l.settle()
	return r.LSN
}

// Reserve assigns recs the next LSNs, in order, and chains them on their
// pages, leaving their slots undecided. Each update's After is copied into
// the log and re-pointed at the copy, which is what Decide must be handed.
func (l *Log) Reserve(recs []Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range recs {
		l.reserve(&recs[i])
	}
}

// reserve assigns r the next LSN, points its image at the log's copy,
// chains it on its page and returns the undecided slot it appends for it;
// the caller holds l.mu.
func (l *Log) reserve(r *Record) *Slot {
	r.LSN = l.next
	l.next++
	if len(r.After) > 0 {
		r.After = l.keep(r.LSN, r.After)
	}
	sl := l.records.Push()
	if r.Type == TypeUpdate {
		sl.Link = uint64(l.last[r.PageID])
		l.last[r.PageID] = r.LSN
	}
	return sl
}

// keep copies img, the image of record lsn, into the log's chunks and
// returns the copy, its capacity capped so an append to it cannot reach the
// next image. An image longer than a chunk gets a buffer of its own. The
// caller holds l.mu.
func (l *Log) keep(lsn LSN, img []byte) []byte {
	n := len(img)
	if n > ChunkSize {
		return slices.Clone(img)
	}
	if len(l.chunks) == 0 || l.fill+n > ChunkSize {
		l.chunks = append(l.chunks, chunk{buf: page.Alloc(ChunkSize)})
		l.fill = 0
	}
	ch := &l.chunks[len(l.chunks)-1]
	cp := ch.buf[l.fill : l.fill+n : l.fill+n]
	copy(cp, img)
	l.fill += n
	ch.high = lsn
	return cp
}

// Decide fills the reserved slots of recs: with the records themselves when
// commit is set, else with aborts of their transaction. A slot keeps its
// first decision. It returns Decided.
func (l *Log) Decide(recs []Record, commit bool) LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	first := l.first()
	for _, r := range recs {
		if r.LSN < first {
			continue
		}
		sl := l.slot(r.LSN)
		if sl.Rec.Type != 0 {
			continue
		}
		if !commit {
			r = Record{LSN: r.LSN, Type: TypeAbort, TxID: r.TxID}
		}
		sl.Rec = r
	}
	l.settle()
	return l.decided
}

// Decided reports the highest LSN at or below which every slot is decided.
func (l *Log) Decided() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.decided
}

// settle advances decided over the slots decided since; the caller holds
// l.mu.
func (l *Log) settle() {
	l.decided = max(l.decided, l.first()-1)
	for l.decided+1 < l.next && l.slot(l.decided+1).Rec.Type != 0 {
		l.decided++
	}
}

// Head returns the next LSN to be assigned.
func (l *Log) Head() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Len reports the number of records.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records.Len()
}

// Range calls fn on every record with after < LSN <= upto, in LSN order;
// an upto past the head walks to the head, a walk that meets an undecided
// slot stops there as if at the head, and after >= upto visits nothing.
// It fails with ErrTruncated as soon as an LSN it still has to visit lies
// below the truncation floor — at the start, or because a truncation
// overtook the walk — rather than pass a partial prefix off as complete.
//
// The lock is taken once per record and fn runs outside it, on the walk's
// one reused copy of the record (the images are the log's own: read-only).
// So fn may call back into the Log, as a checkpoint's redo does when the
// page it mutates has to be fetched through RedoPage first. Range stops at
// fn's first error and returns it.
func (l *Log) Range(after, upto LSN, fn func(*Record) error) error {
	var rec *Record // made at the first visit: an empty walk allocates nothing
	for after < upto {
		next := after + 1
		l.mu.Lock()
		if next < l.floor {
			floor := l.floor
			l.mu.Unlock()
			return fmt.Errorf("%w: walk at %d, floor %d", ErrTruncated, next, floor)
		}
		if next >= l.next || l.slot(next).Rec.Type == 0 {
			l.mu.Unlock()
			return nil
		}
		if rec == nil {
			rec = new(Record)
		}
		*rec = l.slot(next).Rec
		l.mu.Unlock()
		if err := fn(rec); err != nil {
			return err
		}
		after = next
	}
	return nil
}

// RedoPage calls fn on every retained, decided update record of pageID
// with LSN > after, in ascending LSN order, found through the page's chain
// instead of by walking the whole tail. Unlike Range it does not check the
// truncation floor; a caller that must not miss truncated records also
// checks Floor.
//
// fn runs under the log's lock, on the log's own records: it must not
// retain or modify the record (its images included) and must not call back
// into the Log. RedoPage stops at fn's first error and returns it.
func (l *Log) RedoPage(pageID uint64, after LSN, fn func(*Record) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	first := l.first()
	l.chain = l.chain[:0]
	for lsn := l.last[pageID]; lsn > after && lsn >= first; {
		sl := l.slot(lsn)
		if sl.Rec.Type == TypeUpdate { // not undecided, not aborted
			l.chain = append(l.chain, lsn)
		}
		lsn = LSN(sl.Link)
	}
	for i := len(l.chain) - 1; i >= 0; i-- {
		if err := fn(&l.slot(l.chain[i]).Rec); err != nil {
			return err
		}
	}
	return nil
}

// Floor reports the lowest LSN guaranteed retained (1 when nothing has
// been truncated). Every LSN below the floor has been discarded.
func (l *Log) Floor() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.floor
}

// TruncateBefore discards records with LSN < upTo (checkpointing) and
// raises the truncation floor to upTo. The floor is monotonic: truncating
// below the current floor is a no-op. The dropped records' slots are
// cleared and their emptied segments reused: a regularly checkpointed log
// stops allocating slots. Every chunk but the one being filled whose images
// all lie below the floor is dropped; its images stay valid for whoever
// still holds them.
func (l *Log) TruncateBefore(upTo LSN) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if upTo <= l.floor {
		return
	}
	l.floor = upTo
	for id, lsn := range l.last {
		if lsn < upTo {
			delete(l.last, id)
		}
	}
	// Records are dense, so the cut is an index (first() <= the old floor <
	// upTo; upTo may lie past the head).
	l.records.DropFront(int(min(uint64(upTo-l.first()), uint64(l.records.Len()))))
	l.settle()
	k := 0
	for k < len(l.chunks)-1 && l.chunks[k].high < upTo {
		k++
	}
	n := copy(l.chunks, l.chunks[k:])
	clear(l.chunks[n:])
	l.chunks = l.chunks[:n]
}

// Release hands every chunk the log holds to page.Release. The caller
// guarantees that nothing reads the log's images any more — not the log,
// and not any record or value that aliases them; the log itself may be
// appended to again.
func (l *Log) Release() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.chunks {
		page.Release(l.chunks[i].buf)
	}
	clear(l.chunks)
	l.chunks, l.fill = l.chunks[:0], 0
}
