package buffer

import (
	"sync/atomic"

	"github.com/disagglab/disagg/internal/buffer/coherence"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/sim"
)

// TwoTier is LegoBase's two-level cache: a small compute-local LRU backed
// by a large remote-memory LRU, backed by the storage fetcher. Pages
// evicted from the local tier are demoted to the remote tier.
type TwoTier struct {
	Local  *Pool
	Remote *RemotePool
	fetch  Fetcher
	// Capture, when set, restamps a copy of every page demoted into the
	// remote tier before it is written there (engine.Pipeline.Capture).
	Capture func(img []byte)

	localHits  atomic.Int64
	remoteHits atomic.Int64
	storage    atomic.Int64
}

// NewTwoTier wires the two tiers. Dirty local evictions are demoted into
// the remote pool via the pool's writeback hook, and a local miss fills from
// below.
func NewTwoTier(cfg *sim.Config, localCap int, remote *RemotePool, fetch Fetcher) *TwoTier {
	t := &TwoTier{Remote: remote, fetch: fetch}
	t.Local = NewPool(cfg, localCap, t.below, func(c *sim.Clock, id page.ID, data []byte) error {
		if t.Capture != nil {
			img := page.Alloc(len(data))
			defer page.Release(img)
			copy(img, data)
			t.Capture(img)
			data = img
		}
		return remote.Put(c, id, data)
	})
	return t
}

// SetCoherence registers both tiers with the directory (as name.local and
// name.remote) and wires stamp validation into each.
func (t *TwoTier) SetCoherence(d *coherence.Directory, name string, stampOf StampFunc) {
	t.Local.SetCoherence(d.Register(name+".local", t.Local), stampOf)
	t.Remote.SetCoherence(d.Register(name+".remote", t.Remote), stampOf)
}

// below loads the page from under the local tier: the remote pool, else
// storage (which also populates the remote pool). It is the local pool's
// Fetcher, so a frame evicted between Read and a following Local.Mutate is
// refilled instead of failing the mutate with ErrNoFetcher.
func (t *TwoTier) below(c *sim.Clock, id page.ID) ([]byte, error) {
	buf := page.Alloc(t.Remote.pageSize)
	ok, err := t.Remote.Get(c, id, buf)
	if !ok {
		// A miss or an error: the probe buffer was never shared, and the
		// storage fetch below can fill it.
		page.Release(buf)
	}
	if err != nil {
		return nil, err
	}
	if ok {
		t.remoteHits.Add(1)
		return buf, nil
	}
	t.storage.Add(1)
	if buf, err = t.fetch(c, id); err != nil {
		return nil, err
	}
	if err := t.Remote.Put(c, id, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Read runs fn (which may be nil) on the page's bytes, trying local, then
// remote, then storage. The local probe goes through View so a hit is
// atomic with validation (a Contains-then-Get pair raced invalidations
// between the two lock acquisitions). On a miss fn runs on the fetched
// buffer while it is still private; then that buffer becomes the frame.
func (t *TwoTier) Read(c *sim.Clock, id page.ID, fn func(data []byte)) error {
	if t.Local.View(c, id, fn) {
		t.localHits.Add(1)
		return nil
	}
	buf, err := t.below(c, id)
	if err != nil {
		return err
	}
	if fn != nil {
		fn(buf)
	}
	return t.Local.Install(c, id, buf, false)
}

// Get returns a copy of the page bytes, for callers that must own them.
func (t *TwoTier) Get(c *sim.Clock, id page.ID) ([]byte, error) {
	var out []byte
	if err := t.Read(c, id, func(data []byte) { out = append([]byte(nil), data...) }); err != nil {
		return nil, err
	}
	return out, nil
}

// Mutate updates the page in the local tier (write path; demotion to the
// remote tier happens on eviction, and durability is the engine's log).
func (t *TwoTier) Mutate(c *sim.Clock, id page.ID, fn func(data []byte) error) error {
	if !t.Local.View(c, id, nil) {
		// Pull a fresh copy into the local tier first (a stale local
		// frame was just dropped by the probe's validation).
		if err := t.Read(c, id, nil); err != nil {
			return err
		}
	}
	return t.Local.Mutate(c, id, fn)
}

// TierStats reports (local hits, remote hits, storage fetches).
func (t *TwoTier) TierStats() (local, remote, storage int64) {
	return t.localHits.Load(), t.remoteHits.Load(), t.storage.Load()
}

// CombinedHitRatio reports the fraction of accesses served without
// touching storage.
func (t *TwoTier) CombinedHitRatio() float64 {
	l, r, s := t.TierStats()
	total := l + r + s
	if total == 0 {
		return 0
	}
	return float64(l+r) / float64(total)
}
