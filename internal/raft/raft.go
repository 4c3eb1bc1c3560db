// Package raft implements the leader-based replicated log that PolarFS
// uses for durability (a ParallelRaft-flavored Raft, §2.1): a leader
// appends entries, replicates them to followers in parallel over RDMA,
// and commits at majority; followers persist entries before acking.
// Leadership changes elect the longest-log survivor. The election and
// replication rules follow Raft's safety argument (term checks, majority
// intersection); ParallelRaft's out-of-order acknowledgement is modeled by
// acking each append independently rather than serializing on a single
// in-flight window.
package raft

import (
	"errors"
	"slices"
	"sync"
	"time"

	"github.com/disagglab/disagg/internal/sim"
)

// Package errors.
var (
	ErrNoQuorum  = errors.New("raft: majority unavailable")
	ErrNotLeader = errors.New("raft: not leader")
	ErrNoEntry   = errors.New("raft: no such entry")
	// ErrCompacted is returned by Entry for indices below the compaction
	// point: the entry was discarded by a checkpoint and readers must
	// start from checkpointed state instead.
	ErrCompacted = errors.New("raft: entry compacted away")
)

// Entry is one replicated log entry.
type Entry struct {
	Term uint64
	Data []byte
}

// Peer is one replica of the group.
type Peer struct {
	ID int

	mu   sync.Mutex
	term uint64
	// log holds entries (snap+1 .. snap+len(log)): snap entries below
	// were compacted away by a checkpoint (their effects live in
	// checkpointed state), so log[i] is the entry at index snap+i+1.
	log      []Entry
	snap     int // number of compacted entries (all committed)
	commit   int // highest committed index (1-based; 0 = none)
	failed   bool
	netScale float64
}

// logicalLenLocked is the index of the peer's last entry, counting
// compacted ones. Callers hold p.mu.
func (p *Peer) logicalLenLocked() int { return p.snap + len(p.log) }

// Term reports the peer's current term.
func (p *Peer) Term() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.term
}

// LogLen reports the index of the last persisted entry (compacted
// entries count: they were persisted before being checkpointed away).
func (p *Peer) LogLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.logicalLenLocked()
}

// Failed reports crash state.
func (p *Peer) Failed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failed
}

// Group is a Raft group with a distinguished leader.
type Group struct {
	cfg   *sim.Config
	meter *sim.Meter

	mu     sync.Mutex
	peers  []*Peer
	leader int
}

// NewGroup creates n peers; peer 0 starts as leader in term 1. PolarFS
// uses 3-way replication.
func NewGroup(cfg *sim.Config, n int) *Group {
	g := &Group{cfg: cfg, meter: sim.NewMeter(cfg.NICSlots)}
	for i := 0; i < n; i++ {
		g.peers = append(g.peers, &Peer{ID: i, term: 1, netScale: 1 + 0.15*float64(i)})
	}
	return g
}

// Leader reports the current leader's ID.
func (g *Group) Leader() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.leader
}

// Peers exposes the replicas (failure injection in tests/experiments).
func (g *Group) Peers() []*Peer { return g.peers }

// alive counts healthy peers.
func (g *Group) alive() int {
	n := 0
	for _, p := range g.peers {
		if !p.Failed() {
			n++
		}
	}
	return n
}

// Append replicates data and returns its (1-based) index once a majority
// has persisted it. The caller's clock advances by the majority-th fastest
// follower acknowledgement: replication is parallel, and each entry is
// acked independently (ParallelRaft). Fault injection can drop the append
// before any peer persists it, or tear it: the leader persists the entry
// but the caller sees an error before replication completes — an
// unacknowledged write a later quorum commit may still surface.
//
// The group takes data: the entry holds the caller's slice, shared by every
// peer that persists it, so the caller must never write to it again.
func (g *Group) Append(c *sim.Clock, data []byte) (int, error) {
	d := [1][]byte{data}
	return g.AppendBatch(c, d[:])
}

// AppendBatch replicates datas as one group flush: the entries occupy
// consecutive indices (the returned index is the first) and the whole
// group costs a single replication round on the combined payload — one
// leader persist, one parallel follower fan-out, one fault decision. A
// torn batch persists only a prefix of the entries on the leader before
// the caller errors, so every rider of the flush must treat its commit as
// unacknowledged. The group takes each payload, as Append does (the slice
// datas itself stays the caller's).
func (g *Group) AppendBatch(c *sim.Clock, datas [][]byte) (int, error) {
	if len(datas) == 0 {
		return 0, nil
	}
	// Admission gate on the replication meter: shed the append under
	// overload before the fault decision and the replication round.
	if err := g.cfg.Admit(c, "raft.append", g.meter); err != nil {
		return 0, err
	}
	op := g.cfg.Begin(c, "raft.append")
	f := g.cfg.Inject(c, "raft.append")
	if f.Drop {
		op.End(0)
		return 0, f.FaultErr()
	}
	g.mu.Lock()
	leader := g.peers[g.leader]
	g.mu.Unlock()

	total := 0
	for _, data := range datas {
		total += len(data)
	}
	persisted := len(datas)
	if f.Torn {
		// Crash-point mid-flush: only a prefix of the group reaches the
		// leader's log (at least one entry, matching the single-append
		// tear), and no caller learns an index.
		persisted = (len(datas) + 1) / 2
	}

	leader.mu.Lock()
	if leader.failed {
		leader.mu.Unlock()
		op.End(0)
		return 0, ErrNotLeader
	}
	term := leader.term
	for _, data := range datas[:persisted] {
		leader.log = append(leader.log, Entry{Term: term, Data: data})
	}
	// The followers copy the group from the leader's log. entries aliases
	// the array the group was appended to, which nothing writes again: later
	// appends go past it, compaction and snapshot installs move the log to
	// a new array, and a newer leader overwriting this one's entries
	// replaces the array first (below).
	entries := leader.log[len(leader.log)-persisted:]
	index := leader.logicalLenLocked() - persisted + 1 // first index of the group
	last := leader.logicalLenLocked()
	leader.mu.Unlock()

	if f.Torn {
		// The persisted prefix may still surface: a later successful
		// append at a higher index commits it too (Raft prefix commit) —
		// exactly the ambiguous-outcome case.
		op.End(0)
		return 0, f.FaultErr()
	}

	// Leader persist (NVMe) + parallel follower replication, both on the
	// combined payload — this amortization is the whole point of group
	// commit.
	persist := g.cfg.SSDWrite.Cost(total)
	// The leader's own ack, then one per follower: on the stack for up to
	// eight peers.
	var ackBuf [8]time.Duration
	acks := append(ackBuf[:0], persist)
	for _, p := range g.peers {
		if p == leader {
			continue
		}
		p.mu.Lock()
		if p.failed {
			p.mu.Unlock()
			continue
		}
		if p.term <= term {
			p.term = term
			// Place each entry at its exact index. Concurrent appends
			// may arrive out of order (ParallelRaft acks entries
			// independently); holes are extended with placeholders
			// that the straggler overwrites when it arrives. Indices are
			// logical: each peer subtracts its own compaction offset. A
			// compaction may have overtaken this append (a later group
			// committed over the hole and CompactTo dropped it): entries at
			// or below the snapshot are covered by it, a straddling group is
			// trimmed.
			for p.logicalLenLocked() < last {
				p.log = append(p.log, Entry{})
			}
			if p.overwritesOlderTermLocked(index, term, len(entries)) {
				p.log = slices.Clone(p.log)
			}
			if at := index - 1 - p.snap; at >= 0 {
				copy(p.log[at:], entries)
			} else if -at < len(entries) {
				copy(p.log, entries[-at:])
			}
			ack := time.Duration(float64(g.cfg.RDMA.Cost(total))*p.netScale) + g.cfg.SSDWrite.Cost(total)
			acks = append(acks, ack)
		} else {
			p.mu.Unlock()
			op.End(0)
			return 0, ErrNotLeader // stale leader
		}
		p.mu.Unlock()
	}
	majority := len(g.peers)/2 + 1
	if len(acks) < majority {
		op.End(0)
		return 0, ErrNoQuorum
	}
	g.meter.ChargeQuorum(c, acks, majority)

	// Advance commit on leader and (lazily) followers.
	leader.mu.Lock()
	if last > leader.commit {
		leader.commit = last
	}
	leader.mu.Unlock()
	for _, p := range g.peers {
		p.mu.Lock()
		if !p.failed && p.logicalLenLocked() >= last && last > p.commit {
			p.commit = last
		}
		p.mu.Unlock()
	}
	op.End(int64(total))
	return index, nil
}

// overwritesOlderTermLocked reports whether placing n entries of term at
// index would overwrite an entry of an older term: a stale leader's
// divergent suffix, which that leader's own AppendBatch may still be
// reading. Callers hold p.mu.
func (p *Peer) overwritesOlderTermLocked(index int, term uint64, n int) bool {
	for i := max(index-1-p.snap, 0); i < min(index-1-p.snap+n, len(p.log)); i++ {
		if t := p.log[i].Term; t != 0 && t < term {
			return true
		}
	}
	return false
}

// CommitIndex reports the leader's commit index.
func (g *Group) CommitIndex() int {
	g.mu.Lock()
	leader := g.peers[g.leader]
	g.mu.Unlock()
	leader.mu.Lock()
	defer leader.mu.Unlock()
	return leader.commit
}

// Entry returns the committed entry at index (1-based), charging a local
// SSD read on the leader.
func (g *Group) Entry(c *sim.Clock, index int) (Entry, error) {
	g.mu.Lock()
	leader := g.peers[g.leader]
	g.mu.Unlock()
	leader.mu.Lock()
	defer leader.mu.Unlock()
	if index < 1 || index > leader.commit {
		return Entry{}, ErrNoEntry
	}
	if index <= leader.snap {
		return Entry{}, ErrCompacted
	}
	e := leader.log[index-1-leader.snap]
	c.Advance(g.cfg.SSDRead.Cost(len(e.Data)))
	return e, nil
}

// CompactTo discards entries at or below index on every alive peer whose
// commit covers them — the raft leg of a checkpoint truncation. The
// caller asserts checkpointed state covers the compacted entries. The
// clock is charged one metadata persist per peer (parallel fan-out, so
// the slowest peer's cost); fault injection at "raft.compact" can drop
// the round (no peer compacts) — compaction retries idempotently on the
// next checkpoint.
func (g *Group) CompactTo(c *sim.Clock, index int) error {
	op := g.cfg.Begin(c, "raft.compact")
	if f := g.cfg.Inject(c, "raft.compact"); f.Drop || f.Torn {
		op.End(0)
		return f.FaultErr()
	}
	dropped := 0
	for _, p := range g.peers {
		p.mu.Lock()
		to := index
		if to > p.commit {
			to = p.commit
		}
		if !p.failed && to > p.snap {
			keep := to - p.snap
			if keep > len(p.log) {
				keep = len(p.log)
			}
			p.log = append([]Entry(nil), p.log[keep:]...)
			dropped += keep
			p.snap += keep
		}
		p.mu.Unlock()
	}
	g.meter.Charge(c, g.cfg.SSDWrite.Cost(64))
	op.End(int64(dropped))
	return nil
}

// FailPeer crashes a peer (its persisted log survives).
func (g *Group) FailPeer(i int) {
	p := g.peers[i]
	p.mu.Lock()
	p.failed = true
	p.mu.Unlock()
}

// RestartPeer revives a peer with its persisted log.
func (g *Group) RestartPeer(i int) {
	p := g.peers[i]
	p.mu.Lock()
	p.failed = false
	p.mu.Unlock()
}

// Elect runs a leader election among the healthy peers: the longest-log,
// highest-term candidate wins (Raft's up-to-date rule), the term is
// bumped, and the caller pays one voting round trip to a majority.
func (g *Group) Elect(c *sim.Clock) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.alive() < len(g.peers)/2+1 {
		return 0, ErrNoQuorum
	}
	best := -1
	var bestLen int
	var maxTerm uint64
	for _, p := range g.peers {
		p.mu.Lock()
		if p.term > maxTerm {
			maxTerm = p.term
		}
		// Up-to-date comparison uses logical length: compacted entries
		// still count (they are committed by construction).
		if !p.failed && (best == -1 || p.logicalLenLocked() > bestLen) {
			best = p.ID
			bestLen = p.logicalLenLocked()
		}
		p.mu.Unlock()
	}
	// One vote round trip to the majority-th fastest peer.
	var acks []time.Duration
	for _, p := range g.peers {
		if p.Failed() {
			continue
		}
		p.mu.Lock()
		acks = append(acks, time.Duration(float64(g.cfg.RDMA.Cost(64))*p.netScale))
		p.term = maxTerm + 1
		p.mu.Unlock()
	}
	g.meter.ChargeQuorum(c, acks, len(g.peers)/2+1)
	g.leader = best
	// The new leader's committed prefix is authoritative; followers
	// truncate divergent suffixes on their next append (handled in
	// Append via length adjustment).
	return best, nil
}

// CatchUp copies missing entries from the leader to a restarted peer,
// charging transfer for the delta. A peer whose log ends below the
// leader's compaction point cannot be caught up entry-by-entry (the gap
// is compacted away): it installs the leader's snapshot offset and
// retained tail wholesale instead. Returns entries shipped.
func (g *Group) CatchUp(c *sim.Clock, i int) int {
	g.mu.Lock()
	leader := g.peers[g.leader]
	g.mu.Unlock()
	p := g.peers[i]
	leader.mu.Lock()
	entries := append([]Entry(nil), leader.log...)
	snap := leader.snap
	commit := leader.commit
	leader.mu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failed {
		return 0
	}
	from := p.logicalLenLocked()
	bytes := 0
	shipped := 0
	if from < snap {
		// Snapshot install: adopt the leader's compaction point and its
		// whole retained tail (checkpointed state covers the rest).
		p.snap = snap
		p.log = append([]Entry(nil), entries...)
		for _, e := range entries {
			bytes += len(e.Data)
		}
		shipped = len(entries)
	} else {
		for _, e := range entries[from-snap:] {
			p.log = append(p.log, e)
			bytes += len(e.Data)
			shipped++
		}
	}
	if commit > p.commit {
		p.commit = commit
	}
	c.Advance(g.cfg.RDMA.Cost(bytes))
	return shipped
}
