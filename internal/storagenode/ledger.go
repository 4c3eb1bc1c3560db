package storagenode

import (
	"slices"
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
	// undecided holds the copies held undecided, in the order they were
	// held. The first stale of them outlived a decision that did not name
	// them: staleAt indexes those by LSN, one copy each, so a decision
	// touches only its own batch and the copies held since the last one
	// (mostly that batch). A stale copy decided or superseded since is
	// zeroed (LSN 0) until the list compacts in place, keeping its
	// capacity.
	undecided []wal.Record
	stale     int
	staleAt   map[wal.LSN]int
	dropped   int   // zeroed stale copies
	batch     []int // decide's scratch: the batch's stale copies, by index
}

func newLedger() ledger {
	return ledger{holes: make(map[wal.LSN]struct{}), staleAt: make(map[wal.LSN]int)}
}

// has reports whether the record at lsn has been received.
func (l *ledger) has(lsn wal.LSN) bool {
	if lsn <= l.prefix {
		return true
	}
	_, ok := l.holes[lsn]
	return ok
}

// receive counts lsn as received, reporting false for a duplicate, and
// forgets the undecided copies of it: the record received supersedes them.
func (l *ledger) receive(lsn wal.LSN) bool {
	if !l.mark(lsn) {
		return false
	}
	if len(l.undecided) > 0 {
		if i, ok := l.staleAt[lsn]; ok {
			l.drop(i)
		}
		fresh := slices.DeleteFunc(l.undecided[l.stale:], func(u wal.Record) bool { return u.LSN == lsn })
		l.undecided = l.undecided[:l.stale+len(fresh)]
		l.compact()
	}
	return true
}

// mark counts lsn as received, reporting false for a duplicate.
func (l *ledger) mark(lsn wal.LSN) bool {
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
// each newly received one to take in the order they were held. The copies
// it leaves become stale, one per LSN.
func (l *ledger) decide(committed []wal.Record, take func(rec *wal.Record)) {
	if len(l.undecided) == 0 {
		return
	}
	if len(l.staleAt) > 0 {
		batch := l.batch[:0]
		for i := range committed {
			if at, ok := l.staleAt[committed[i].LSN]; ok {
				batch = append(batch, at)
			}
		}
		slices.Sort(batch)
		for j, at := range batch {
			if j > 0 && at == batch[j-1] {
				continue // committed names the LSN twice
			}
			if u := &l.undecided[at]; l.mark(u.LSN) {
				take(u)
			}
			l.drop(at)
		}
		l.batch = batch
	}
	n, at := l.stale, 0 // search on from the last match: holds mostly follow committed's order
	for i := l.stale; i < len(l.undecided); i++ {
		u := &l.undecided[i]
		if j := indexFrom(committed, u.LSN, at); j >= 0 {
			at = j + 1
			if l.mark(u.LSN) {
				take(u)
			}
		} else if _, dup := l.staleAt[u.LSN]; !dup {
			l.staleAt[u.LSN] = n
			l.undecided[n] = *u
			n++
		}
	}
	clear(l.undecided[n:])
	l.undecided, l.stale = l.undecided[:n], n
	l.compact()
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

// drop forgets the stale copy at index i.
func (l *ledger) drop(i int) {
	delete(l.staleAt, l.undecided[i].LSN)
	l.undecided[i] = wal.Record{}
	l.dropped++
}

// compact squeezes the zeroed copies out of the stale ones once they are
// at least half of them, so each costs O(1) amortised.
func (l *ledger) compact() {
	if l.dropped == 0 || l.dropped*2 < l.stale {
		return
	}
	n := 0
	for i := range l.undecided[:l.stale] {
		if u := l.undecided[i]; u.LSN != 0 {
			l.staleAt[u.LSN] = n
			l.undecided[n] = u
			n++
		}
	}
	m := n + copy(l.undecided[n:], l.undecided[l.stale:])
	clear(l.undecided[m:])
	l.undecided, l.stale, l.dropped = l.undecided[:m], n, 0
}

// cover counts every LSN up to h as received: a recovery horizon or a
// truncation floor asserts that checkpointed state holds them.
func (l *ledger) cover(h wal.LSN) {
	if h <= l.prefix {
		return
	}
	for lsn := range l.holes {
		if lsn <= h {
			delete(l.holes, lsn)
		}
	}
	l.high = max(l.high, h)
	l.advance(h)
	for i := range l.undecided[:l.stale] {
		if lsn := l.undecided[i].LSN; lsn != 0 && lsn <= h {
			l.drop(i)
		}
	}
	fresh := slices.DeleteFunc(l.undecided[l.stale:], func(u wal.Record) bool { return u.LSN <= h })
	l.undecided = l.undecided[:l.stale+len(fresh)]
	l.compact()
}
