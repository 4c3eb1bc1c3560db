package storagenode

import (
	"sync"

	"github.com/disagglab/disagg/internal/wal"
)

// server is the storage-server core a Replica and a LogStore embed: what it
// stores survives a crash, and while down it takes no delivery or decision.
type server struct {
	mu     sync.Mutex
	failed bool
	led    ledger
}

// Fail crashes the server.
func (s *server) Fail() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failed = true
}

// Restart brings the server back with its durable contents.
func (s *server) Restart() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failed = false
}

// Failed reports crash state.
func (s *server) Failed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// HighLSN reports the highest LSN the server has received.
func (s *server) HighLSN() wal.LSN {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.led.high
}

// PrefixLSN reports the highest LSN up to which the server's log is gap-free.
func (s *server) PrefixLSN() wal.LSN {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.led.prefix
}

// has reports whether the server has received the record at lsn.
func (s *server) has(lsn wal.LSN) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.led.has(lsn)
}

// hold keeps the records of an append undecided: until the writer's
// decision reaches the server, it neither counts nor stores nor serves
// them. It reports false, holding nothing, when the server is down.
// Ownership is as for ledger.hold.
func (s *server) hold(recs []wal.Record) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return false
	}
	for i := range recs {
		s.led.hold(&recs[i])
	}
	return true
}

// decide delivers the writer's commit decision for recs: the server's
// undecided copies of them are received, each handed to take under the
// lock. A server that is down misses the decision.
func (s *server) decide(recs []wal.Record, take func(rec *wal.Record)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.failed {
		s.led.decide(recs, take)
	}
}

// ledger is what a storage server holds of the log, by LSN: the records it
// has received, the highest of them, and the records it holds undecided
// until the writer's decision reaches it. An undecided record is not
// received — it is never counted, served or shipped — until a commit
// decision receives it or a decided record at its LSN supersedes it.
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

// decide receives the undecided records whose LSN is in committed, handing
// each newly received one to take, and forgets every other undecided record
// received since it was held.
func (l *ledger) decide(committed []wal.Record, take func(rec *wal.Record)) {
	if len(l.undecided) == 0 {
		return
	}
	kept := l.undecided[:0]
	at := 0 // search on from the last match: holds mostly follow committed's order
	for i := range l.undecided {
		u := &l.undecided[i]
		if j := indexFrom(committed, u.LSN, at); j >= 0 {
			at = j + 1
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

// indexFrom returns the index of the record at lsn in recs, or -1,
// searching from recs[from] on and wrapping around.
func indexFrom(recs []wal.Record, lsn wal.LSN, from int) int {
	for k := range recs {
		if j := (from + k) % len(recs); recs[j].LSN == lsn {
			return j
		}
	}
	return -1
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
