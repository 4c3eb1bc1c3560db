package storagenode

import (
	"cmp"
	"slices"

	"github.com/disagglab/disagg/internal/wal"
)

// ledger is what a storage server holds of the log, by LSN: the records it
// has received, the highest of them, and the records it holds undecided
// until the writer's decision reaches it. An undecided record is not
// received — it is never counted, served or shipped — until a commit
// decision receives it or a decided record at its LSN supersedes it.
// Replica and LogStore each keep one under their own lock.
type ledger struct {
	// prefix is the highest L such that every LSN in [1, L] has been
	// received. Single-store feeds (Taurus page stores) and aborted LSNs a
	// log store never sees leave holes, so freshness is judged by the
	// prefix, not the high LSN.
	prefix wal.LSN
	// holes holds received LSNs beyond the prefix (bounded by the number
	// of gaps, drained as the prefix advances).
	holes map[wal.LSN]struct{}
	high  wal.LSN
	// undecided is in arrival order; compacted in place, it keeps its
	// capacity.
	undecided []wal.Record
}

func newLedger() ledger { return ledger{holes: make(map[wal.LSN]struct{})} }

// has reports whether the record at lsn has been received.
func (l *ledger) has(lsn wal.LSN) bool {
	if lsn <= l.prefix {
		return true
	}
	_, ok := l.holes[lsn]
	return ok
}

// receive counts lsn as received, reporting false for a duplicate.
func (l *ledger) receive(lsn wal.LSN) bool {
	if l.has(lsn) {
		return false
	}
	l.high = max(l.high, lsn)
	if lsn == l.prefix+1 {
		l.advance(lsn)
	} else {
		l.holes[lsn] = struct{}{}
	}
	return true
}

// advance moves the prefix to p and on through the holes it reaches.
func (l *ledger) advance(p wal.LSN) {
	l.prefix = p
	for len(l.holes) > 0 {
		if _, ok := l.holes[l.prefix+1]; !ok {
			return
		}
		delete(l.holes, l.prefix+1)
		l.prefix++
	}
}

// hold keeps rec undecided unless its LSN has been received. Ownership is
// as for Replica.ingest: the record is copied, its After kept.
func (l *ledger) hold(rec *wal.Record) {
	if !l.has(rec.LSN) {
		l.undecided = append(l.undecided, *rec)
	}
}

// decide receives the undecided records whose LSN is in committed, sorted
// by LSN, handing each newly received one to take, and forgets every other
// undecided record received since it was held.
func (l *ledger) decide(committed []wal.Record, take func(rec *wal.Record)) {
	if len(l.undecided) == 0 {
		return
	}
	kept := l.undecided[:0]
	for i := range l.undecided {
		u := &l.undecided[i]
		if _, in := slices.BinarySearchFunc(committed, u.LSN, func(rec wal.Record, lsn wal.LSN) int {
			return cmp.Compare(rec.LSN, lsn)
		}); in {
			if l.receive(u.LSN) {
				take(u)
			}
		} else if !l.has(u.LSN) {
			kept = append(kept, *u)
		}
	}
	clear(l.undecided[len(kept):])
	l.undecided = kept
}

// cover counts every LSN up to h as received: a recovery horizon or a
// truncation floor asserts that checkpointed state holds them.
func (l *ledger) cover(h wal.LSN) {
	if h > l.prefix {
		for lsn := range l.holes {
			if lsn <= h {
				delete(l.holes, lsn)
			}
		}
		l.high = max(l.high, h)
		l.advance(h)
	}
	l.decide(nil, nil)
}
