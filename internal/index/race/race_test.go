package race

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"github.com/disagglab/disagg/internal/memnode"
	"github.com/disagglab/disagg/internal/rdma"
	"github.com/disagglab/disagg/internal/sim"
)

func newHash(t *testing.T, depth uint8, buckets uint64) *Hash {
	t.Helper()
	cfg := sim.DefaultConfig()
	pool := memnode.New(cfg, "m0", 64<<20)
	h, err := New(cfg, pool, depth, buckets)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestPutGetRoundTrip(t *testing.T) {
	h := newHash(t, 2, 16)
	cl := h.Attach(1, nil)
	clk := sim.NewClock()
	if err := cl.Put(clk, 42, []byte("value-42")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := cl.Get(clk, 42)
	if err != nil || !ok {
		t.Fatalf("get: %v %v", ok, err)
	}
	if !bytes.Equal(v, []byte("value-42")) {
		t.Fatalf("value = %q", v)
	}
	if _, ok, _ := cl.Get(clk, 43); ok {
		t.Fatal("phantom key")
	}
}

func TestUpdateReplacesValue(t *testing.T) {
	h := newHash(t, 2, 16)
	cl := h.Attach(1, nil)
	clk := sim.NewClock()
	cl.Put(clk, 7, []byte("v1"))
	cl.Put(clk, 7, []byte("v2-longer"))
	v, ok, _ := cl.Get(clk, 7)
	if !ok || !bytes.Equal(v, []byte("v2-longer")) {
		t.Fatalf("after update: %q %v", v, ok)
	}
}

func TestDelete(t *testing.T) {
	h := newHash(t, 2, 16)
	cl := h.Attach(1, nil)
	clk := sim.NewClock()
	cl.Put(clk, 9, []byte("x"))
	ok, err := cl.Delete(clk, 9)
	if err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if _, ok, _ := cl.Get(clk, 9); ok {
		t.Fatal("deleted key still readable")
	}
	ok, _ = cl.Delete(clk, 9)
	if ok {
		t.Fatal("double delete reported success")
	}
}

func TestManyKeysForceSplits(t *testing.T) {
	h := newHash(t, 1, 4) // tiny: 2 subtables x 4 buckets x 8 slots
	cl := h.Attach(1, nil)
	clk := sim.NewClock()
	const n = 2000
	for i := uint64(0); i < n; i++ {
		if err := cl.Put(clk, i, []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if h.GlobalDepth() <= 1 {
		t.Fatalf("no directory growth: depth %d", h.GlobalDepth())
	}
	for i := uint64(0); i < n; i++ {
		v, ok, err := cl.Get(clk, i)
		if err != nil || !ok {
			t.Fatalf("get %d after splits: %v %v", i, ok, err)
		}
		if !bytes.Equal(v, []byte(fmt.Sprintf("val-%d", i))) {
			t.Fatalf("key %d: %q", i, v)
		}
	}
}

func TestGetCostIsOneBucketPlusOneBlock(t *testing.T) {
	h := newHash(t, 4, 64)
	cfg := sim.DefaultConfig()
	var st rdma.Stats
	cl := h.Attach(1, &st)
	setup := sim.NewClock()
	cl.Put(setup, 1, []byte("x"))
	st.Reset()
	clk := sim.NewClock()
	cl.Get(clk, 1)
	if ops := st.Ops.Load(); ops != 2 {
		t.Fatalf("get used %d one-sided ops, want 2 (bucket + block)", ops)
	}
	if clk.Now() > 3*cfg.RDMA.Cost(64) {
		t.Fatalf("get cost %v too high", clk.Now())
	}
}

func TestConcurrentDistinctKeys(t *testing.T) {
	h := newHash(t, 4, 64)
	const perWorker = 300
	res := sim.RunGroup(8, func(id int, clk *sim.Clock) int {
		cl := h.Attach(uint64(id+1), nil)
		base := uint64(id) * 1_000_000
		for i := uint64(0); i < perWorker; i++ {
			if err := cl.Put(clk, base+i, []byte{byte(id)}); err != nil {
				t.Errorf("put: %v", err)
			}
		}
		return perWorker
	})
	if res.TotalOps != 8*perWorker {
		t.Fatalf("ops = %d", res.TotalOps)
	}
	cl := h.Attach(99, nil)
	clk := sim.NewClock()
	for id := 0; id < 8; id++ {
		base := uint64(id) * 1_000_000
		for i := uint64(0); i < perWorker; i++ {
			v, ok, err := cl.Get(clk, base+i)
			if err != nil || !ok || v[0] != byte(id) {
				t.Fatalf("key %d: %v %v %v", base+i, v, ok, err)
			}
		}
	}
}

func TestConcurrentSameKeyLastWriterWins(t *testing.T) {
	h := newHash(t, 2, 16)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl := h.Attach(uint64(id+1), nil)
			clk := sim.NewClock()
			for i := 0; i < 100; i++ {
				if err := cl.Put(clk, 5, []byte{byte(id), byte(i)}); err != nil {
					t.Errorf("put: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	cl := h.Attach(99, nil)
	v, ok, err := cl.Get(sim.NewClock(), 5)
	if err != nil || !ok || len(v) != 2 {
		t.Fatalf("final state: %v %v %v", v, ok, err)
	}
}

// keySlots counts the slots of key's bucket whose KV block carries key.
func keySlots(t *testing.T, cl *Client, key uint64) int {
	t.Helper()
	clk := sim.NewClock()
	_, baddr := cl.lookupSub(key)
	slots, err := cl.readBucket(clk, baddr)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, w := range slots {
		if w == 0 {
			continue
		}
		_, _, kaddr := unpackSlot(w)
		var hdr [kvHeader]byte
		if err := cl.qp.Read(clk, uint64(kaddr), hdr[:]); err != nil {
			t.Fatal(err)
		}
		if binary.LittleEndian.Uint64(hdr[:]) == key {
			n++
		}
	}
	return n
}

// A writer that finds the key but loses the CAS on its slot must re-read,
// not insert: a duplicate slot is never cleaned up, so one slip anywhere in
// the run is still there at the end.
func TestConcurrentSameKeyOneSlot(t *testing.T) {
	h := newHash(t, 2, 16)
	const key = 5
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl := h.Attach(uint64(id+1), nil)
			clk := sim.NewClock()
			for i := 0; i < 4000; i++ {
				if err := cl.Put(clk, key, []byte{byte(id), byte(i)}); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := keySlots(t, h.Attach(99, nil), key); n != 1 {
		t.Fatalf("key %d occupies %d slots of its bucket, want 1", key, n)
	}
}

// A delete can free a lower slot between two inserts' bucket reads of one
// key: W2 reads [A, 0, …] and is about to CAS slot 1, D deletes A, W1 reads
// [0, 0, …] and is about to CAS slot 0. Both CASes succeed, so unless an
// insert re-reads the bucket the key ends up in two slots. Whichever writer
// CASes first, one slot must be left, holding the value of the writer that
// returned last.
func TestInsertRacingDeleteLeavesOneSlot(t *testing.T) {
	for _, w1First := range []bool{false, true} {
		t.Run(fmt.Sprintf("w1First=%v", w1First), func(t *testing.T) {
			h := newHash(t, 0, 1) // one bucket, which every key shares
			const a, key = 1, 2
			other := h.Attach(99, nil)
			if err := other.Put(sim.NewClock(), a, []byte("a")); err != nil {
				t.Fatal(err)
			}
			// put starts cl's Put of key on its own clock and returns once
			// the Put has read the bucket and reached sim.PointInsert;
			// closing release lets it go on to its insert CAS.
			type gate struct {
				read, release chan struct{}
				once          sync.Once
			}
			gates := map[*sim.Clock]*gate{} // filled before each Put starts
			h.cfg.At = func(c *sim.Clock, pt sim.Point) {
				if g := gates[c]; g != nil && pt == sim.PointInsert {
					g.once.Do(func() { close(g.read); <-g.release })
				}
			}
			put := func(cl *Client, v string) (release chan struct{}, done chan error) {
				c, g := sim.NewClock(), &gate{read: make(chan struct{}), release: make(chan struct{})}
				gates[c], done = g, make(chan error, 1)
				go func() { done <- cl.Put(c, key, []byte(v)) }()
				<-g.read
				return g.release, done
			}
			release2, done2 := put(h.Attach(2, nil), "w2") // read [A, 0, …]
			if ok, err := other.Delete(sim.NewClock(), a); err != nil || !ok {
				t.Fatalf("delete: %v %v", ok, err)
			}
			release1, done1 := put(h.Attach(1, nil), "w1") // read [0, 0, …]
			order := []struct {
				release chan struct{}
				done    chan error
				val     string
			}{{release2, done2, "w2"}, {release1, done1, "w1"}}
			if w1First {
				order[0], order[1] = order[1], order[0]
			}
			for _, w := range order {
				close(w.release)
				if err := <-w.done; err != nil {
					t.Fatalf("put %s: %v", w.val, err)
				}
			}
			if n := keySlots(t, other, key); n != 1 {
				t.Fatalf("key %d occupies %d slots of its bucket, want 1", key, n)
			}
			last := order[1].val
			if v, ok, err := other.Get(sim.NewClock(), key); err != nil || !ok || string(v) != last {
				t.Fatalf("get = %q %v %v, want %q, the value of the writer that returned last", v, ok, err, last)
			}
		})
	}
}

func TestValueTooLarge(t *testing.T) {
	h := newHash(t, 2, 16)
	cl := h.Attach(1, nil)
	if err := cl.Put(sim.NewClock(), 1, make([]byte, 70_000)); err != ErrValueTooLarge {
		t.Fatalf("err = %v", err)
	}
}

func TestSlotPacking(t *testing.T) {
	w := packSlot(0xABCD, 0x1234, 0xDEADBEEF)
	fp, vlen, addr := unpackSlot(w)
	if fp != 0xABCD || vlen != 0x1234 || addr != 0xDEADBEEF {
		t.Fatalf("unpack = %x %x %x", fp, vlen, addr)
	}
	if packSlot(0, 0, 0) != 0 {
		t.Fatal("zero slot must encode to zero word")
	}
}

func TestStatsString(t *testing.T) {
	h := newHash(t, 2, 8)
	if h.Stats() == "" {
		t.Fatal("empty stats")
	}
}
