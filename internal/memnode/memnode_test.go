package memnode

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/disagglab/disagg/internal/sim"
)

func TestAllocFreeCoalesce(t *testing.T) {
	cfg := sim.DefaultConfig()
	p := New(cfg, "m0", 1024)
	a, err := p.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("overlapping allocations")
	}
	if p.UsedBytes() != 208 { // 100 -> 104 aligned, x2
		t.Fatalf("used = %d", p.UsedBytes())
	}
	p.Free(a)
	p.Free(b)
	if p.FreeBytes() != 1024 {
		t.Fatalf("free = %d after coalescing", p.FreeBytes())
	}
	// After full coalescing one max-size alloc must succeed.
	if _, err := p.Alloc(1024); err != nil {
		t.Fatalf("full-region alloc after coalesce: %v", err)
	}
}

func TestAllocAlignment(t *testing.T) {
	cfg := sim.DefaultConfig()
	p := New(cfg, "m0", 256)
	a, _ := p.Alloc(1)
	b, _ := p.Alloc(1)
	if a%8 != 0 || b%8 != 0 {
		t.Fatalf("unaligned: %d %d", a, b)
	}
	if b-a < 8 {
		t.Fatal("allocations overlap")
	}
}

func TestAllocExhaustion(t *testing.T) {
	cfg := sim.DefaultConfig()
	p := New(cfg, "m0", 64)
	if _, err := p.Alloc(128); err != ErrOutOfMemory {
		t.Fatalf("oversize alloc: %v", err)
	}
	p.Alloc(64)
	if _, err := p.Alloc(8); err != ErrOutOfMemory {
		t.Fatalf("alloc after exhaustion: %v", err)
	}
}

func TestFreeUnknownAddrIsNoop(t *testing.T) {
	cfg := sim.DefaultConfig()
	p := New(cfg, "m0", 128)
	p.Free(999)
	if p.FreeBytes() != 128 {
		t.Fatal("bogus free changed accounting")
	}
}

func TestAllocFreeProperty(t *testing.T) {
	cfg := sim.DefaultConfig()
	f := func(sizes []uint16) bool {
		p := New(cfg, "m0", 1<<20)
		var addrs []uint64
		seen := make(map[uint64]bool)
		for _, s := range sizes {
			a, err := p.Alloc(uint64(s))
			if err != nil {
				continue
			}
			if seen[a] {
				return false // double allocation
			}
			seen[a] = true
			addrs = append(addrs, a)
		}
		for _, a := range addrs {
			p.Free(a)
		}
		return p.FreeBytes() == 1<<20
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCoalescerAllocatesAndAmortizes(t *testing.T) {
	cfg := sim.DefaultConfig()
	p := New(cfg, "mem0", 1<<20)
	co := NewCoalescer(p.Connect(nil), 8, 50*time.Microsecond)

	const workers = 8
	var wg sync.WaitGroup
	addrs := make([]uint64, workers)
	errs := make([]error, workers)
	ends := make([]time.Duration, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := sim.NewClock()
			addrs[w], errs[w] = co.Alloc(c, 64)
			ends[w] = c.Now()
		}(w)
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if seen[addrs[w]] {
			t.Fatalf("duplicate address %#x", addrs[w])
		}
		seen[addrs[w]] = true
	}
	s := co.Stats()
	if s.Items != workers {
		t.Fatalf("items = %d, want %d", s.Items, workers)
	}
	if s.Flushes == workers {
		t.Skip("no coalescing happened under this scheduler interleaving")
	}
	if s.Flushes >= workers {
		t.Fatalf("flushes = %d, want < %d (coalescing)", s.Flushes, workers)
	}
}

func TestCoalescerReportsPerItemOOM(t *testing.T) {
	cfg := sim.DefaultConfig()
	p := New(cfg, "mem0", 128)
	co := NewCoalescer(p.Connect(nil), 1, 0)
	c := sim.NewClock()
	if _, err := co.Alloc(c, 128); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Alloc(c, 64); err != ErrOutOfMemory {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestAllocNHandlerMixedOutcomes(t *testing.T) {
	cfg := sim.DefaultConfig()
	p := New(cfg, "mem0", 256)
	qp := p.Connect(nil)
	c := sim.NewClock()
	req := make([]byte, 16)
	binary.LittleEndian.PutUint64(req[:8], 192)
	binary.LittleEndian.PutUint64(req[8:], 128) // cannot fit after the first
	resp, err := qp.Call(c, "allocn", req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 32 {
		t.Fatalf("resp = %d bytes", len(resp))
	}
	if binary.LittleEndian.Uint64(resp[8:16]) != 0 {
		t.Fatal("first alloc should succeed")
	}
	if binary.LittleEndian.Uint64(resp[24:32]) == 0 {
		t.Fatal("second alloc should fail per-item")
	}
}

// An address the coalescer allocates is the pool's: one-sided writes to it
// read back, the pool counts it used, and Free returns it.
func TestCoalescedAllocIsRemotelyAddressable(t *testing.T) {
	cfg := sim.DefaultConfig()
	p := New(cfg, "mem0", 1<<16)
	qp := p.Connect(nil)
	co := NewCoalescer(qp, 1, 0)
	c := sim.NewClock()
	addr, err := co.Alloc(c, 64)
	if err != nil {
		t.Fatal(err)
	}
	if p.UsedBytes() != 64 {
		t.Fatalf("used = %d, want 64", p.UsedBytes())
	}
	want := bytes.Repeat([]byte{0x5A}, 64)
	if err := qp.Write(c, addr, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	if err := qp.Read(c, addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("one-sided read differs from the write")
	}
	p.Free(addr)
	if p.FreeBytes() != 1<<16 {
		t.Fatalf("free = %d after Free, want the whole pool", p.FreeBytes())
	}
}

// With the memory node down the coalesced RPC fails and allocates nothing.
func TestCoalescerFailsWhenTheNodeIsDown(t *testing.T) {
	cfg := sim.DefaultConfig()
	p := New(cfg, "mem0", 1<<16)
	co := NewCoalescer(p.Connect(nil), 1, 0)
	p.Node().Fail()
	if _, err := co.Alloc(sim.NewClock(), 64); err == nil || err == ErrOutOfMemory {
		t.Fatalf("alloc on a failed node: err = %v, want the RPC's error", err)
	}
	if p.UsedBytes() != 0 {
		t.Fatalf("used = %d, want 0", p.UsedBytes())
	}
}

// Close hands the node's touched memory back: the region reads as zeros and
// the allocator's bookkeeping stays as it was.
func TestCloseReleasesTheRegion(t *testing.T) {
	cfg := sim.DefaultConfig()
	p := New(cfg, "m", 1<<20)
	addr, err := p.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	qp := p.Connect(nil)
	if err := qp.Write(sim.NewClock(), addr, bytes.Repeat([]byte{7}, 4096)); err != nil {
		t.Fatal(err)
	}
	used := p.UsedBytes()
	p.Close()
	got := make([]byte, 4096)
	if err := p.Node().Mem.Read(addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 4096)) {
		t.Fatal("a closed node's region still holds its data")
	}
	if p.UsedBytes() != used {
		t.Fatalf("Close changed the allocator: %d bytes used, want %d", p.UsedBytes(), used)
	}
}
