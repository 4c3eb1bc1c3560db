package storagenode

import (
	"sync/atomic"

	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/wal"
)

// PageStoreGroup is the Taurus page-store arrangement (§2.1): the writer
// sends each log batch to only ONE page store (cutting writer fan-out and
// network cost), and the stores converge via gossip anti-entropy rounds.
// Reads must find a store that is fresh enough, so bounded staleness is a
// first-class, observable property.
type PageStoreGroup struct {
	cfg    *sim.Config
	Stores []*Replica
	// authoritative log used by gossip to ship missing records (stands
	// in for the peer-to-peer record exchange).
	log  *wal.Log
	next atomic.Int64
}

// NewPageStoreGroup creates n page stores fed round-robin.
func NewPageStoreGroup(cfg *sim.Config, n int, layout heap.Layout, log *wal.Log) *PageStoreGroup {
	g := &PageStoreGroup{cfg: cfg, log: log}
	for i := 0; i < n; i++ {
		g.Stores = append(g.Stores, NewReplica(cfg, "ps-"+string(rune('a'+i)), i%3, layout, 1.0+0.1*float64(i)))
	}
	return g
}

// WriteToOne ships the records to a single page store (round-robin),
// charging only that one transfer — Taurus's "frugal" write path.
func (g *PageStoreGroup) WriteToOne(c *sim.Clock, recs []wal.Record) error {
	for tries := 0; tries < len(g.Stores); tries++ {
		s := g.Stores[int(g.next.Add(1)-1)%len(g.Stores)]
		if s.Failed() {
			continue
		}
		return s.Ingest(c, recs)
	}
	return ErrNoQuorum
}

// GossipRound runs one anti-entropy round: every store catches up from the
// freshest healthy peer, then from the authoritative log itself — injected
// drops can lose a delivery entirely, leaving holes no peer holds, and the
// log-store tier is the anti-entropy source of last resort for those.
// Returns total records shipped. Gossip runs on background clocks; pass a
// throwaway clock unless modeling its cost.
func (g *PageStoreGroup) GossipRound(c *sim.Clock) int {
	// All-pairs exchange seeded from every store: each store catches up
	// from each healthy peer, so holes propagate even when no single
	// store holds everything.
	total := 0
	for _, s := range g.Stores {
		if s.Failed() {
			continue
		}
		for _, peer := range g.Stores {
			if peer == s || peer.Failed() {
				continue
			}
			n, err := s.CatchUpFrom(c, peer, g.log)
			if err == nil {
				total += n
			}
		}
	}
	_, shipped := Converge(c, g.Stores, g.log, 0)
	return total + shipped
}

// ReadPage serves a page at minLSN from any fresh-enough store, preferring
// the freshest (Taurus readers route by LSN freshness maps).
func (g *PageStoreGroup) ReadPage(c *sim.Clock, id page.ID, minLSN wal.LSN) ([]byte, error) {
	var best *Replica
	for _, s := range g.Stores {
		if s.Failed() || s.PrefixLSN() < minLSN {
			continue
		}
		if best == nil || s.PrefixLSN() > best.PrefixLSN() {
			best = s
		}
	}
	if best == nil {
		return nil, ErrStaleReplica
	}
	return best.ReadPage(c, id, minLSN)
}

// MaxLag reports the LSN distance between the freshest and stalest healthy
// stores — the bounded-staleness metric for experiment E3.
func (g *PageStoreGroup) MaxLag() wal.LSN {
	var lo, hi wal.LSN
	first := true
	for _, s := range g.Stores {
		if s.Failed() {
			continue
		}
		h := s.PrefixLSN()
		if first {
			lo, hi = h, h
			first = false
			continue
		}
		if h < lo {
			lo = h
		}
		if h > hi {
			hi = h
		}
	}
	return hi - lo
}
