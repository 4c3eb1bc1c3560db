package buffer

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/disagglab/disagg/internal/buffer/coherence"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/sim"
)

// --- Equivalence: the callback path against the owning path ---

// coherenceModes are the three ways a tier can be wired: no directory,
// invalidation broadcasts, version bumps.
var coherenceModes = []struct {
	name     string
	coherent bool
	mode     coherence.Mode
}{
	{name: "off"},
	{name: "invalidate", coherent: true, mode: coherence.ModeInvalidate},
	{name: "bump", coherent: true, mode: coherence.ModeBump},
}

// rig is one pool (or two-tier stack) with its own store, directory and
// clock. Two rigs built alike and driven by the same operations must stay in
// the same state whichever read path each uses.
type rig struct {
	c     *sim.Clock
	fs    *fakeStore
	dir   *coherence.Directory
	pool  *Pool    // the pool under test (the local tier of tt, if set)
	tt    *TwoTier // nil for the single-pool rigs
	stamp uint64   // last commit stamp handed out
}

func newRig(coherent bool, mode coherence.Mode, twoTier bool) *rig {
	const pages, pageSize = 12, 256
	cfg := sim.DefaultConfig()
	r := &rig{c: sim.NewClock(), fs: newFakeStore(cfg, pages, pageSize)}
	zeroHeaders(r.fs)
	if coherent {
		r.dir = coherence.NewDirectory(cfg, "rig.coherence", mode)
	}
	if twoTier {
		remote, _ := newRemote(cfg, 6, pageSize)
		r.tt = NewTwoTier(cfg, 3, remote, r.fs.fetch)
		r.pool = r.tt.Local
		if coherent {
			r.tt.SetCoherence(r.dir, "rig", pageStampOf)
		}
		return r
	}
	r.pool = NewPool(cfg, 4, r.fs.fetch, r.fs.writeback)
	if coherent {
		r.pool.SetCoherence(r.dir.Register("rig", r.pool), pageStampOf)
	}
	return r
}

// commit makes a new image of the page durable in the store under the next
// stamp and publishes it. A local commit also rewrites the cached copy, as
// an engine's apply does; a remote one (another node's) leaves this rig's
// cached copy out of date.
func (r *rig) commit(id page.ID, payload byte, local bool) (err error) {
	r.stamp++
	write := func(d []byte) error {
		d[16] = payload
		stampPage(d, r.stamp)
		return nil
	}
	img := append([]byte(nil), r.fs.pages[id]...)
	write(img)
	r.fs.pages[id] = img
	if local && r.tt != nil {
		err = r.tt.Mutate(r.c, id, write)
	} else if local {
		err = r.pool.Mutate(r.c, id, write)
	}
	if r.dir != nil {
		r.dir.Publish(r.c, []coherence.PageStamp{{ID: id, Stamp: r.stamp}}, nil)
	}
	return err
}

// state is everything the two rigs must agree on after every operation.
func (r *rig) state() string {
	p := r.pool
	s := fmt.Sprintf("now=%v hits=%d misses=%d probes=%d stale=%d fetches=%d writes=%d len=%d lru=",
		r.c.Now(), p.hits.Load(), p.misses.Load(), p.probeMisses.Load(), p.staleHits.Load(),
		r.fs.fetches, r.fs.writes, p.Len())
	for e := p.lru.Front(); e != nil; e = e.Next() {
		f := e.Value.(*frame)
		s += fmt.Sprintf("%d@%d/%v/%x ", f.id, f.stamp, f.dirty, f.data[16])
	}
	if r.tt != nil {
		l, rem, st := r.tt.TierStats()
		s += fmt.Sprintf("tiers=%d/%d/%d remoteStale=%d remote=", l, rem, st, r.tt.Remote.StaleHits())
		for e := r.tt.Remote.lru.Front(); e != nil; e = e.Next() {
			id := e.Value.(page.ID)
			s += fmt.Sprintf("%d@%d ", id, r.tt.Remote.index[id].stamp)
		}
	}
	return s
}

// TestViewReadMatchGet drives a seeded random mix of demand reads, probes,
// local and remote commits, invalidations and (through the small capacity)
// evictions at two identically built rigs. One reads through View/Read and
// the other through Get: the bytes, the virtual clock, every counter, the
// residency and the LRU order must agree after every step.
func TestViewReadMatchGet(t *testing.T) {
	for _, twoTier := range []bool{false, true} {
		for _, m := range coherenceModes {
			name := "pool/" + m.name
			if twoTier {
				name = "twotier/" + m.name
			}
			t.Run(name, func(t *testing.T) {
				a, b := newRig(m.coherent, m.mode, twoTier), newRig(m.coherent, m.mode, twoTier)
				rng := rand.New(rand.NewSource(16))
				var got []byte
				keep := func(data []byte) { got = append(got[:0], data...) }
				for step := 0; step < 4000; step++ {
					id, payload := page.ID(rng.Intn(12)), byte(rng.Intn(256))
					switch op := rng.Intn(10); {
					case op < 4: // demand read
						var errA, errB error
						var want []byte
						if twoTier {
							errA = a.tt.Read(a.c, id, keep)
							want, errB = b.tt.Get(b.c, id)
						} else {
							errA = a.pool.Read(a.c, id, keep)
							want, errB = b.pool.Get(b.c, id)
						}
						if errA != nil || errB != nil {
							t.Fatalf("step %d: read %d: %v / %v", step, id, errA, errB)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("step %d: Read and Get of page %d returned different bytes", step, id)
						}
					case op < 6: // probe: a nil fn must account exactly like a real one
						hitA, hitB := a.pool.View(a.c, id, keep), b.pool.View(b.c, id, nil)
						if hitA != hitB {
							t.Fatalf("step %d: View(%d) = %v with fn, %v without", step, id, hitA, hitB)
						}
						if hitA && !bytes.Equal(got, b.pool.frames[id].Value.(*frame).data) {
							t.Fatalf("step %d: View of page %d saw bytes other than the frame's", step, id)
						}
					case op < 9: // commit, one in three from another node
						local := op < 8
						if errA, errB := a.commit(id, payload, local), b.commit(id, payload, local); errA != nil || errB != nil {
							t.Fatalf("step %d: commit %d: %v / %v", step, id, errA, errB)
						}
					default:
						a.pool.Invalidate(id)
						b.pool.Invalidate(id)
					}
					if sa, sb := a.state(), b.state(); sa != sb {
						t.Fatalf("step %d: rigs diverged\n view/read: %s\n get:       %s", step, sa, sb)
					}
				}
				if a.pool.hits.Load() == 0 || a.fs.fetches == 0 || a.pool.probeMisses.Load() == 0 {
					t.Fatalf("mix did not cover hit, miss and probe: %s", a.state())
				}
				if m.mode == coherence.ModeBump && a.pool.staleHits.Load() == 0 {
					t.Fatalf("mix never validated a stale frame: %s", a.state())
				}
			})
		}
	}
}

// --- Ownership and concurrency ---

// A reader's fn sees whole pages only: Mutate and View exclude each other on
// the pool lock, so a page rewritten byte by byte is never observed half
// done (and the race detector sees no unsynchronised access to the frame).
func TestViewExcludesMutate(t *testing.T) {
	cfg := sim.DefaultConfig()
	fs := newFakeStore(cfg, 2, 256)
	p := NewPool(cfg, 2, fs.fetch, nil)
	if err := p.Read(sim.NewClock(), 0, nil); err != nil {
		t.Fatal(err)
	}
	const writers, readers, rounds = 2, 2, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := sim.NewClock()
			for i := 0; i < rounds; i++ {
				fill := byte(w*rounds + i)
				p.Mutate(c, 0, func(d []byte) error {
					for j := range d {
						d[j] = fill
					}
					return nil
				})
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := sim.NewClock()
			for i := 0; i < rounds; i++ {
				read := func(d []byte) {
					if bytes.Count(d[16:], d[16:17]) != len(d)-16 {
						t.Error("View observed a half-written page")
					}
				}
				if i%2 == 0 {
					p.View(c, 0, read)
				} else if err := p.Read(c, 0, read); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
}

// --- Allocation guards ---

func TestViewAndReadHitsAllocateNothing(t *testing.T) {
	cfg := sim.DefaultConfig()
	fs := newFakeStore(cfg, 4, 8192)
	p := NewPool(cfg, 4, fs.fetch, nil)
	c := sim.NewClock()
	if err := p.Read(c, 1, nil); err != nil {
		t.Fatal(err)
	}
	var sum int
	read := func(d []byte) { sum += int(d[0]) }
	if n := testing.AllocsPerRun(200, func() { p.View(c, 1, read) }); n != 0 {
		t.Errorf("View hit: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { p.Read(c, 1, read) }); n != 0 {
		t.Errorf("Read hit: %v allocs/op, want 0", n)
	}
	// The two-step read of engine.Pipeline.PoolReader, closure included.
	if n := testing.AllocsPerRun(200, func() {
		var first byte
		fn := func(d []byte) { first = d[0] }
		if !p.View(c, 1, fn) {
			p.Read(c, 1, fn)
		}
		sum += int(first)
	}); n != 0 {
		t.Errorf("View-then-Read with a capturing closure: %v allocs/op, want 0", n)
	}
}

// A miss makes the fetcher's buffer the frame and releases the victim's, so
// a fetcher that fills a page.Alloc buffer gets back the one the previous
// miss evicted: a miss costs the frame header and the LRU element (plus the
// remote tier's entry under a TwoTier), far less than a page. TwoTier.Read's
// probe buffer is recycled the same way, whether the remote tier has the
// page (the probe buffer becomes the frame) or not (the fetch refills it).
func TestReadMissAllocatesNoPageBuffer(t *testing.T) {
	if raceBuild() {
		t.Skip("page.Alloc recycles nothing in the race build")
	}
	const pageSize, pages, runs = 8192, 8, 400
	cfg := sim.DefaultConfig()
	image := make([]byte, pageSize)
	fetch := func(c *sim.Clock, id page.ID) ([]byte, error) {
		out := page.Alloc(pageSize)
		copy(out, image)
		return out, nil
	}
	twoTier := func(remotePages int) *TwoTier {
		remote, _ := newRemote(cfg, remotePages, pageSize)
		return NewTwoTier(cfg, pages/2, remote, fetch)
	}
	type reader = func(*sim.Clock, page.ID, func([]byte)) error
	for _, tc := range []struct {
		name string
		// build returns the read path and the counter of the misses meant.
		build func() (reader, func() int64)
	}{
		{"pool", func() (reader, func() int64) {
			p := NewPool(cfg, pages/2, fetch, nil)
			return p.Read, p.misses.Load
		}},
		{"two-tier, remote miss", func() (reader, func() int64) {
			tt := twoTier(pages / 2)
			return tt.Read, tt.storage.Load
		}},
		{"two-tier, remote hit", func() (reader, func() int64) {
			tt := twoTier(pages)
			return tt.Read, tt.remoteHits.Load
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			read, misses := tc.build()
			c := sim.NewClock()
			scan := func() {
				// Cyclic over twice the local capacity: every read misses.
				for i := 0; i < runs; i++ {
					if err := read(c, page.ID(i%pages), nil); err != nil {
						t.Fatal(err)
					}
				}
			}
			scan() // fills the tiers and the free list
			start := misses()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			scan()
			runtime.ReadMemStats(&after)
			if got := misses() - start; got != runs {
				t.Fatalf("%d of %d reads missed as the case means them to", got, runs)
			}
			per := (after.TotalAlloc - before.TotalAlloc) / runs
			if per >= 256 {
				t.Errorf("%d B allocated per miss, want < 256 (a page is %d)", per, pageSize)
			}
			t.Logf("%d B allocated per miss", per)
		})
	}
}

// --- RemotePool: the entry stamp describes the bytes in the frame ---

// Demoting an older copy over a newer resident one used to keep the newer
// stamp on the older bytes, and Get validated and served them.
func TestRemotePoolPutNeverStampsOldBytesNew(t *testing.T) {
	cfg := sim.DefaultConfig()
	rp, _ := newRemote(cfg, 4, 256)
	dir := coherence.NewDirectory(cfg, "rp.coherence", coherence.ModeBump)
	rp.SetCoherence(dir.Register("remote", rp), pageStampOf)
	c := sim.NewClock()
	img := func(stamp uint64, body string) []byte {
		d := make([]byte, 256)
		stampPage(d, stamp)
		copy(d[16:], body)
		return d
	}
	if err := rp.Put(c, 3, img(2, "new")); err != nil {
		t.Fatal(err)
	}
	if err := rp.Put(c, 3, img(1, "old")); err != nil {
		t.Fatal(err)
	}
	dir.Publish(c, []coherence.PageStamp{{ID: 3, Stamp: 2}}, nil)
	buf := make([]byte, 256)
	ok, err := rp.Get(c, 3, buf)
	if err != nil {
		t.Fatal(err)
	}
	if ok && !bytes.HasPrefix(buf[16:], []byte("new")) {
		t.Fatalf("Get served %q (page stamp %d) as version 2", buf[16:19], pageStampOf(buf))
	}
}
