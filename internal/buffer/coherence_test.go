package buffer

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/disagglab/disagg/internal/buffer/coherence"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/sim/fault"
)

// --- Satellite: FlushAll partial-flush error semantics ---

// Regression: a mid-loop writeback failure used to return immediately,
// silently skipping every dirty page after the failed one. FlushAll must
// flush everything it can, keep failed pages dirty, and aggregate the
// errors.
func TestFlushAllFlushesPastFailuresAndAggregates(t *testing.T) {
	cfg := sim.DefaultConfig()
	fs := newFakeStore(cfg, 8, 256)
	failing := map[page.ID]bool{2: true, 4: true}
	wb := func(c *sim.Clock, id page.ID, data []byte) error {
		if failing[id] {
			return fmt.Errorf("device fault on page %d", id)
		}
		return fs.writeback(c, id, data)
	}
	p := NewPool(cfg, 8, fs.fetch, wb)
	c := sim.NewClock()
	for i := 0; i < 6; i++ {
		if err := p.Mutate(c, page.ID(i), func(d []byte) error {
			copy(d, fmt.Sprintf("dirty-%d", i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	err := p.FlushAll(c)
	if err == nil {
		t.Fatal("FlushAll with failing pages returned nil error")
	}
	// Both failures must be visible to the checkpointer.
	if !strings.Contains(err.Error(), "page 2") || !strings.Contains(err.Error(), "page 4") {
		t.Fatalf("aggregated error missing a failed page: %v", err)
	}
	if dirty := p.DirtyIDs(); len(dirty) != 2 {
		t.Fatalf("dirty after partial flush = %v, want exactly the 2 failed pages", dirty)
	}
	// Every non-failing page was flushed — including pages the old code
	// skipped because they followed a failure in LRU order.
	for i := 0; i < 6; i++ {
		id := page.ID(i)
		if failing[id] {
			continue
		}
		if !bytes.HasPrefix(fs.pages[id], []byte(fmt.Sprintf("dirty-%d", i))) {
			t.Fatalf("page %d not flushed past the failure", i)
		}
	}
	// Heal the device: the retried flush drains the remainder.
	failing = map[page.ID]bool{}
	if err := p.FlushAll(c); err != nil {
		t.Fatal(err)
	}
	if got := p.DirtyIDs(); len(got) != 0 {
		t.Fatalf("dirty after retry = %v", got)
	}
}

// The same semantics under the seeded fault injector: after a faulty
// checkpoint every page is either persisted or still dirty — none are lost
// in between.
func TestFlushAllUnderInjectedDeviceFault(t *testing.T) {
	cfg := sim.DefaultConfig()
	fs := newFakeStore(cfg, 16, 256)
	inj := fault.New(99, fault.Profile{Name: "flush-io", Drop: 0.5, Sites: []string{"buffer."}})
	wb := func(c *sim.Clock, id page.ID, data []byte) error {
		if out := inj.Inject(c, "buffer.writeback"); out.Drop {
			return out.Err
		}
		return fs.writeback(c, id, data)
	}
	p := NewPool(cfg, 16, fs.fetch, wb)
	c := sim.NewClock()
	for i := 0; i < 12; i++ {
		if err := p.Mutate(c, page.ID(i), func(d []byte) error {
			copy(d, fmt.Sprintf("v-%d", i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	err := p.FlushAll(c)
	dirty := map[page.ID]bool{}
	for _, id := range p.DirtyIDs() {
		dirty[id] = true
	}
	if err == nil && len(dirty) != 0 {
		t.Fatalf("nil error but %d pages still dirty", len(dirty))
	}
	for i := 0; i < 12; i++ {
		id := page.ID(i)
		persisted := bytes.HasPrefix(fs.pages[id], []byte(fmt.Sprintf("v-%d", i)))
		if !persisted && !dirty[id] {
			t.Fatalf("page %d neither persisted nor dirty (lost by partial flush)", i)
		}
	}
	inj.Heal()
	if err := p.FlushAll(c); err != nil {
		t.Fatal(err)
	}
	if got := p.DirtyIDs(); len(got) != 0 {
		t.Fatalf("dirty after healed flush = %v", got)
	}
}

// --- Satellite: dirty-victim eviction retry storm ---

// Regression: a failed writeback used to leave the victim at the LRU back,
// so every subsequent miss re-attempted the same writeback (livelock under
// a storage fault window). The victim must rotate to the front so the next
// eviction picks a different victim.
func TestEvictionRotatesFailedVictim(t *testing.T) {
	cfg := sim.DefaultConfig()
	fs := newFakeStore(cfg, 10, 256)
	victimAttempts := 0
	wb := func(c *sim.Clock, id page.ID, data []byte) error {
		if id == 0 {
			victimAttempts++
			return errors.New("storage node down")
		}
		return fs.writeback(c, id, data)
	}
	p := NewPool(cfg, 2, fs.fetch, wb)
	c := sim.NewClock()
	// Page 0 dirty and LRU (accessed first), page 1 clean and MRU.
	if err := p.Mutate(c, 0, func(d []byte) error { copy(d, "dirty-0"); return nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(c, 1); err != nil {
		t.Fatal(err)
	}
	// First miss: evicts page 0, writeback fails, the caller sees the
	// error once.
	if _, err := p.Get(c, 2); err == nil {
		t.Fatal("expected the first eviction attempt to surface the writeback failure")
	}
	if victimAttempts != 1 {
		t.Fatalf("victim writeback attempts = %d, want 1", victimAttempts)
	}
	// Retry: the failed victim rotated to the front, so the eviction
	// picks the clean page 1 and succeeds. The old code livelocked here,
	// re-attempting page 0 on every call.
	if _, err := p.Get(c, 2); err != nil {
		t.Fatalf("retry after rotation failed: %v", err)
	}
	if victimAttempts != 1 {
		t.Fatalf("victim re-attempted %d times after rotation, want no retries", victimAttempts-1)
	}
	// The dirty victim survived both evictions — its update is not lost.
	if !p.Contains(0) {
		t.Fatal("dirty victim was dropped despite failed writeback")
	}
	d, err := p.Get(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(d, []byte("dirty-0")) {
		t.Fatalf("dirty victim lost its update: %q", d[:8])
	}
}

// Under the seeded injector, a fault window must not pin the pool on one
// victim: progress resumes within a bounded number of retries even with
// every frame dirty.
func TestEvictionProgressUnderFaultWindow(t *testing.T) {
	cfg := sim.DefaultConfig()
	fs := newFakeStore(cfg, 64, 256)
	inj := fault.New(7, fault.Profile{Name: "evict-io", Drop: 0.7, Sites: []string{"buffer."}})
	wb := func(c *sim.Clock, id page.ID, data []byte) error {
		if out := inj.Inject(c, "buffer.writeback"); out.Drop {
			return out.Err
		}
		return fs.writeback(c, id, data)
	}
	p := NewPool(cfg, 4, fs.fetch, wb)
	c := sim.NewClock()
	for i := 0; i < 4; i++ {
		if err := p.Mutate(c, page.ID(i), func(d []byte) error { copy(d, "x"); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	got := false
	for attempt := 0; attempt < 64; attempt++ {
		if _, err := p.Get(c, 50); err == nil {
			got = true
			break
		}
	}
	if !got {
		t.Fatal("eviction never made progress under the fault window (victim not rotating?)")
	}
}

// --- Satellite: probe misses must not skew HitRatio ---

func TestViewProbesDoNotInflateMisses(t *testing.T) {
	cfg := sim.DefaultConfig()
	fs := newFakeStore(cfg, 10, 256)
	p := NewPool(cfg, 4, fs.fetch, nil)
	c := sim.NewClock()
	if _, err := p.Get(c, 0); err != nil { // 1 demand miss
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ { // 5 probe misses
		if p.View(c, page.ID(i), nil) {
			t.Fatalf("page %d unexpectedly cached", i)
		}
	}
	if !p.View(c, 0, nil) { // 1 hit (probe hits are real hits)
		t.Fatal("cached page not served by View")
	}
	if got := p.ProbeMisses(); got != 5 {
		t.Fatalf("probe misses = %d, want 5", got)
	}
	// hits=1, demand misses=1: ratio 0.5. The pre-fix counter folded the
	// 5 probes into misses (ratio 1/7), skewing any policy fed by it.
	if got := p.HitRatio(); got != 0.5 {
		t.Fatalf("hit ratio = %v, want 0.5 (probe misses must not count)", got)
	}
	if fs.fetches != 1 {
		t.Fatalf("probes fetched: fetches = %d, want 1", fs.fetches)
	}
}

// --- Coherence: directory + tiers ---

func pageStampOf(data []byte) uint64 { return page.Wrap(data).LSN() }

func stampPage(data []byte, lsn uint64) { page.Wrap(data).SetLSN(lsn) }

// zeroHeaders clears the fake pages' leading bytes: newFakeStore fills
// pages with a text label whose first 8 bytes would otherwise read as a
// garbage page LSN.
func zeroHeaders(fs *fakeStore) {
	for _, d := range fs.pages {
		for i := 0; i < 16 && i < len(d); i++ {
			d[i] = 0
		}
	}
}

func TestDirectoryInvalidateFansOutToHolders(t *testing.T) {
	cfg := sim.DefaultConfig()
	fs := newFakeStore(cfg, 8, 256)
	zeroHeaders(fs)
	dir := coherence.NewDirectory(cfg, "test.coherence", coherence.ModeInvalidate)
	writer := NewPool(cfg, 4, fs.fetch, nil)
	reader := NewPool(cfg, 4, fs.fetch, nil)
	wh := dir.Register("writer", writer)
	writer.SetCoherence(wh, pageStampOf)
	reader.SetCoherence(dir.Register("reader", reader), pageStampOf)
	c := sim.NewClock()

	if _, err := writer.Get(c, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.Get(c, 1); err != nil {
		t.Fatal(err)
	}
	// Writer commits: re-stamps its own frame, publishes, holders drop.
	if err := writer.Mutate(c, 1, func(d []byte) error {
		copy(d[8:], "new")
		stampPage(d, 10)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	dir.Publish(c, []coherence.PageStamp{{ID: 1, Stamp: 10}}, wh)

	if reader.Contains(1) {
		t.Fatal("holder tier still caches the page after an invalidate publish")
	}
	if !writer.Contains(1) {
		t.Fatal("the excluded writer tier lost its own frame")
	}
	// The writer's re-stamped frame is served without a refetch.
	before := fs.fetches
	d, err := writer.Get(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fs.fetches != before {
		t.Fatal("fresh writer frame was refetched")
	}
	if !bytes.HasPrefix(d[8:], []byte("new")) {
		t.Fatalf("writer frame lost its update: %q", d[8:12])
	}
	s := dir.Stats()
	if s.Publishes != 1 || s.Rounds != 1 || s.Invalidations != 1 || s.Bumps != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if dir.Version(1) != 10 {
		t.Fatalf("version = %d, want 10", dir.Version(1))
	}
}

func TestModeBumpConvertsInvalidationsToStaleHits(t *testing.T) {
	cfg := sim.DefaultConfig()
	fs := newFakeStore(cfg, 8, 256)
	dir := coherence.NewDirectory(cfg, "test.coherence", coherence.ModeBump)
	a := NewPool(cfg, 4, fs.fetch, nil)
	b := NewPool(cfg, 4, fs.fetch, nil)
	// stampOf nil: frames are stamped with the directory version at fill
	// time (the conservative floor for tiers whose data carries no stamp).
	a.SetCoherence(dir.Register("a", a), nil)
	b.SetCoherence(dir.Register("b", b), nil)
	c := sim.NewClock()

	if _, err := a.Get(c, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get(c, 3); err != nil {
		t.Fatal(err)
	}
	dir.Publish(c, []coherence.PageStamp{{ID: 3, Stamp: 7}}, nil)

	// No fan-out in bump mode: both copies still resident...
	if !a.Contains(3) || !b.Contains(3) {
		t.Fatal("bump mode must not drop holder copies eagerly")
	}
	if s := dir.Stats(); s.Invalidations != 0 {
		t.Fatalf("bump mode sent %d invalidations", s.Invalidations)
	}
	// ...but the stale copy is caught lazily on the next access.
	before := fs.fetches
	if _, err := b.Get(c, 3); err != nil {
		t.Fatal(err)
	}
	if fs.fetches != before+1 {
		t.Fatal("stale copy served without revalidation refetch")
	}
	if b.StaleHits() != 1 {
		t.Fatalf("pool stale hits = %d, want 1", b.StaleHits())
	}
	if s := dir.Stats(); s.StaleHits < 1 {
		t.Fatalf("directory stale hits = %d", s.StaleHits)
	}
	// The refetched frame carries the floor stamp and is now served.
	before = fs.fetches
	if _, err := b.Get(c, 3); err != nil {
		t.Fatal(err)
	}
	if fs.fetches != before {
		t.Fatal("revalidated frame refetched again (refetch livelock)")
	}
}

func TestPublishBatchingCoalescesRounds(t *testing.T) {
	cfg := sim.DefaultConfig()
	dir := coherence.NewDirectory(cfg, "test.coherence", coherence.ModeInvalidate)
	dir.EnableBatching(4, 10*time.Microsecond)
	sim.RunGroup(4, func(id int, c *sim.Clock) int {
		for i := 0; i < 8; i++ {
			dir.Publish(c, []coherence.PageStamp{{ID: page.ID(id*8 + i), Stamp: uint64(i + 1)}}, nil)
		}
		return 8
	})
	s := dir.Stats()
	if s.Publishes != 32 {
		t.Fatalf("publishes = %d, want 32", s.Publishes)
	}
	if s.Rounds >= s.Publishes {
		t.Fatalf("batched publishes did not coalesce: %d rounds for %d publishes", s.Rounds, s.Publishes)
	}
	// Every publication took effect regardless of which round carried it.
	for w := 0; w < 4; w++ {
		for i := 0; i < 8; i++ {
			if got := dir.Version(page.ID(w*8 + i)); got != uint64(i+1) {
				t.Fatalf("version[%d] = %d, want %d", w*8+i, got, i+1)
			}
		}
	}
}

// Two writers can publish to one page out of stamp order. The page's
// version stays at its highest stamp, but its publication count moves on
// every publish, the lower one included: commit validation reads the
// count, so a read pinned before either publish cannot pass as fresh.
func TestDirectoryCountsOutOfOrderPublications(t *testing.T) {
	cfg := sim.DefaultConfig()
	dir := coherence.NewDirectory(cfg, "test.coherence", coherence.ModeInvalidate)
	c := sim.NewClock()
	const pg, other = page.ID(3), page.ID(4)
	if v, n := dir.Version(pg), dir.Publications(pg); v != 0 || n != 0 {
		t.Fatalf("unpublished page: version %d, publications %d, want 0, 0", v, n)
	}
	dir.Publish(c, []coherence.PageStamp{{ID: pg, Stamp: 10}}, nil)
	dir.Publish(c, []coherence.PageStamp{{ID: pg, Stamp: 5}}, nil)
	if v, n := dir.Version(pg), dir.Publications(pg); v != 10 || n != 2 {
		t.Fatalf("after stamps 10 then 5: version %d, publications %d, want 10, 2", v, n)
	}
	if v, n := dir.Version(other), dir.Publications(other); v != 0 || n != 0 {
		t.Fatalf("untouched page: version %d, publications %d, want 0, 0", v, n)
	}

	// Batched: a lower stamp that shares a round with a higher one is
	// counted too.
	dir.EnableBatching(2, 10*time.Microsecond)
	sim.RunGroup(2, func(id int, c *sim.Clock) int {
		dir.Publish(c, []coherence.PageStamp{{ID: pg, Stamp: uint64(20 - 12*id)}}, nil)
		return 1
	})
	if v, n := dir.Version(pg), dir.Publications(pg); v != 20 || n != 4 {
		t.Fatalf("after a round of stamps 20 and 8: version %d, publications %d, want 20, 4", v, n)
	}
}

// --- Satellite: TwoTier demotion/invalidation interleavings ---

// A dirty local frame holding pre-publish bytes is evicted AFTER a newer
// stamp was published: the demotion writes old bytes into the remote tier,
// and the remote entry's stamp must keep them from ever being served.
func TestTwoTierStaleDemotionNotServed(t *testing.T) {
	cfg := sim.DefaultConfig()
	fs := newFakeStore(cfg, 16, 256)
	zeroHeaders(fs)
	dir := coherence.NewDirectory(cfg, "lego.coherence", coherence.ModeBump)
	remote, _ := newRemote(cfg, 8, 256)
	tt := NewTwoTier(cfg, 2, remote, fs.fetch)
	tt.SetCoherence(dir, "lego", pageStampOf)
	c := sim.NewClock()

	// Local tier caches page 5 stamped 3 (dirty: demotes on eviction).
	if err := tt.Mutate(c, 5, func(d []byte) error {
		copy(d[8:], "old")
		stampPage(d, 3)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// A remote writer commits stamp 9 for page 5; the authoritative store
	// now has the new bytes.
	newImg := make([]byte, 256)
	stampPage(newImg, 9)
	copy(newImg[8:], "fresh")
	fs.pages[5] = newImg
	dir.Publish(c, []coherence.PageStamp{{ID: 5, Stamp: 9}}, nil)

	// Now the local tier (capacity 2) evicts page 5: the demotion puts
	// the STALE bytes (stamp 3) into the remote pool.
	if _, err := tt.Get(c, 6); err != nil {
		t.Fatal(err)
	}
	if _, err := tt.Get(c, 7); err != nil {
		t.Fatal(err)
	}
	if !remote.Contains(5) {
		t.Fatal("demotion race not constructed: page 5 was not evicted to remote")
	}
	// The stale demoted copy must NOT satisfy the read: validation sends
	// the access to storage for the fresh bytes.
	_, _, storageBefore := tt.TierStats()
	d, err := tt.Get(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(d[8:], []byte("fresh")) {
		t.Fatalf("served stale demoted bytes: %q", d[8:13])
	}
	if _, _, storageAfter := tt.TierStats(); storageAfter != storageBefore+1 {
		t.Fatal("fresh bytes did not come from storage (stale remote copy served?)")
	}
	if remote.StaleHits() != 1 {
		t.Fatalf("remote stale hits = %d, want 1", remote.StaleHits())
	}
}

// syncStore is a thread-safe backing store for the concurrent tests. Its
// store is stamp-monotone per page, like a real storage tier ordered by
// the durability point.
type syncStore struct {
	cfg *sim.Config

	mu    sync.Mutex
	pages map[page.ID][]byte
}

func newSyncStore(cfg *sim.Config, n, pageSize int) *syncStore {
	s := &syncStore{cfg: cfg, pages: make(map[page.ID][]byte)}
	for i := 0; i < n; i++ {
		s.pages[page.ID(i)] = make([]byte, pageSize)
	}
	return s
}

func (s *syncStore) fetch(c *sim.Clock, id page.ID) ([]byte, error) {
	s.mu.Lock()
	d, ok := s.pages[id]
	var out []byte
	if ok {
		out = append([]byte(nil), d...)
	}
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("no page %d", id)
	}
	c.Advance(s.cfg.SSDRead.Cost(len(out)))
	return out, nil
}

func (s *syncStore) store(id page.ID, data []byte) {
	cp := append([]byte(nil), data...)
	s.mu.Lock()
	if cur, ok := s.pages[id]; !ok || page.Wrap(cp).LSN() >= page.Wrap(cur).LSN() {
		s.pages[id] = cp
	}
	s.mu.Unlock()
}

// Concurrent demotions racing invalidation publishes, with the seeded
// chaos profiles injected into the RDMA fabric: a read must never surface
// bytes older than the version published before the read was issued. Run
// with -race.
func TestTwoTierDemotionInvalidationInterleavings(t *testing.T) {
	profiles := append([]fault.Profile{{Name: "clean"}}, fault.Profiles()...)
	for _, p := range profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			cfg := sim.DefaultConfig()
			inj := fault.New(20260808, p)
			if p.Name != "clean" {
				cfg.Fault = inj
			}
			st := newSyncStore(cfg, 8, 256)
			dir := coherence.NewDirectory(cfg, "lego.coherence", coherence.ModeInvalidate)
			remote, _ := newRemote(cfg, 4, 256)
			tt := NewTwoTier(cfg, 2, remote, st.fetch)
			tt.SetCoherence(dir, "lego", pageStampOf)

			const pages = 4
			res := sim.RunGroup(4, func(id int, c *sim.Clock) int {
				ops := 0
				for i := 0; i < 40; i++ {
					pg := page.ID((id + i) % pages)
					if (id+i)%3 == 0 {
						// Writer: stamp past the frame's current LSN, make
						// the bytes durable, then publish — the same
						// apply-store-publish order the engines use.
						var stamp uint64
						err := tt.Mutate(c, pg, func(d []byte) error {
							stamp = pageStampOf(d) + 1
							stampPage(d, stamp)
							st.store(pg, d)
							return nil
						})
						if err == nil {
							dir.Publish(c, []coherence.PageStamp{{ID: pg, Stamp: stamp}}, nil)
							ops++
						}
					} else {
						floor := dir.Version(pg)
						d, err := tt.Get(c, pg)
						if err != nil {
							continue // injected fault
						}
						if got := pageStampOf(d); got < floor {
							t.Errorf("stale read: page %d stamp %d < published floor %d", pg, got, floor)
						}
						ops++
					}
				}
				return ops
			})
			if res.TotalOps == 0 {
				t.Fatal("no operations completed")
			}
			inj.Heal()
			c := sim.NewClock()
			for pg := page.ID(0); pg < pages; pg++ {
				floor := dir.Version(pg)
				d, err := tt.Get(c, pg)
				if err != nil {
					t.Fatalf("post-heal read of page %d: %v", pg, err)
				}
				if got := pageStampOf(d); got < floor {
					t.Errorf("post-heal stale read: page %d stamp %d < floor %d", pg, got, floor)
				}
			}
		})
	}
}
