package rdma

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/disagglab/disagg/internal/sim"
)

// resident counts the chunks a region has allocated.
func (m *Memory) resident() int {
	n := 0
	for i := range m.chunks {
		if m.chunks[i].Load() != nil {
			n++
		}
	}
	return n
}

// flatMemory is the reference the sparse region is tested against: the
// same operations on one []byte, single-threaded, with the bounds and
// alignment rules written out independently.
type flatMemory []byte

const (
	refOK = iota
	refOutOfBounds
	refUnaligned
)

func (f flatMemory) span(addr uint64, n int) int {
	if addr > uint64(len(f)) || uint64(n) > uint64(len(f))-addr {
		return refOutOfBounds
	}
	return refOK
}

func (f flatMemory) word(addr uint64) int {
	if addr%8 != 0 {
		return refUnaligned
	}
	return f.span(addr, 8)
}

// sameOutcome checks err against the reference verdict for an access of n
// bytes at addr.
func sameOutcome(err error, want int, addr uint64, n int, size int) error {
	var oob *ErrOutOfBounds
	switch want {
	case refOK:
		if err != nil {
			return fmt.Errorf("unexpected error %v", err)
		}
	case refOutOfBounds:
		if !errors.As(err, &oob) || oob.Addr != addr || oob.Len != n || oob.Size != uint64(size) {
			return fmt.Errorf("err = %v, want ErrOutOfBounds{%d %d %d}", err, addr, n, size)
		}
	case refUnaligned:
		if err == nil || errors.As(err, &oob) {
			return fmt.Errorf("err = %v, want an alignment error", err)
		}
	}
	return nil
}

func TestMemoryMatchesFlatReference(t *testing.T) {
	sizes := []int{0, 1, 7, 8, 100, chunkBytes - 1, chunkBytes, chunkBytes + 1, 3*chunkBytes + 13}
	for _, size := range sizes {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(size) + 1))
			m, ref := NewMemory(size), make(flatMemory, size)
			if m.Size() != uint64(size) {
				t.Fatalf("Size() = %d", m.Size())
			}
			// Addresses cluster around chunk boundaries and the end of the
			// region, where the run splitting and the bounds check live.
			pickAddr := func() uint64 {
				anchor := rng.Intn(size/chunkBytes+2) * chunkBytes
				if rng.Intn(4) == 0 {
					anchor = size
				}
				return uint64(max(0, anchor+rng.Intn(96)-48))
			}
			pickLen := func() int {
				if rng.Intn(8) == 0 {
					return rng.Intn(2*chunkBytes + chunkBytes/2)
				}
				return rng.Intn(100)
			}
			for op := 0; op < 4000; op++ {
				addr := pickAddr()
				var err error
				switch kind := rng.Intn(6); kind {
				case 0:
					p := make([]byte, pickLen())
					rng.Read(p)
					want := ref.span(addr, len(p))
					if want == refOK {
						copy(ref[addr:], p)
					}
					err = sameOutcome(m.Write(addr, p), want, addr, len(p), size)
				case 1:
					p := make([]byte, pickLen())
					rng.Read(p) // Read must overwrite all of it, zeros included
					want := ref.span(addr, len(p))
					err = sameOutcome(m.Read(addr, p), want, addr, len(p), size)
					if err == nil && want == refOK && !bytes.Equal(p, ref[addr:addr+uint64(len(p))]) {
						err = errors.New("bytes differ from reference")
					}
				default:
					if rng.Intn(4) != 0 {
						addr &^= 7
					}
					want := ref.word(addr)
					var cur uint64
					if want == refOK {
						cur = binary.LittleEndian.Uint64(ref[addr:])
					}
					put := func(v uint64) {
						if want == refOK {
							binary.LittleEndian.PutUint64(ref[addr:], v)
						}
					}
					v := rng.Uint64()
					var got, exp uint64
					var e error
					switch kind {
					case 2:
						got, e = m.Load64(addr)
						exp = cur
					case 3:
						e = m.Store64(addr, v)
						put(v)
					case 4:
						old := cur
						if rng.Intn(2) == 0 {
							old = v // almost surely a mismatch
						}
						var ok bool
						ok, e = m.CAS64(addr, old, v)
						if want == refOK && ok != (old == cur) {
							e = fmt.Errorf("CAS64 swapped = %v with old %#x, word %#x", ok, old, cur)
						}
						if old == cur {
							put(v)
						}
					case 5:
						got, e = m.Add64(addr, v)
						exp = cur + v
						put(exp)
					}
					err = sameOutcome(e, want, addr, 8, size)
					if err == nil && want == refOK && got != exp {
						err = fmt.Errorf("got %#x, want %#x", got, exp)
					}
				}
				if err != nil {
					t.Fatalf("op %d at %d: %v", op, addr, err)
				}
			}
			all := make([]byte, size)
			if err := m.Read(0, all); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(all, ref) {
				t.Fatal("final image differs from reference")
			}
		})
	}
}

// Racing first touches of one chunk must agree on a single chunk: an update
// applied to a loser's private chunk would be lost.
func TestMemoryConcurrentFirstTouch(t *testing.T) {
	const (
		workers = 8
		perW    = 50
		shared  = chunkBytes + 64  // FAA by everyone
		casWord = chunkBytes + 128 // CAS-incremented by everyone
		private = chunkBytes + 1024
	)
	for round := 0; round < 100; round++ {
		m := NewMemory(3 * chunkBytes)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for i := 0; i < perW; i++ {
					if _, err := m.Add64(shared, 1); err != nil {
						t.Error(err)
					}
					if _, err := m.Add64(private+uint64(w)*8, 2); err != nil {
						t.Error(err)
					}
					for {
						cur, _ := m.Load64(casWord)
						if ok, err := m.CAS64(casWord, cur, cur+1); err != nil {
							t.Error(err)
						} else if ok {
							break
						}
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
		if got, _ := m.Load64(shared); got != workers*perW {
			t.Fatalf("round %d: shared FAA word = %d, want %d", round, got, workers*perW)
		}
		if got, _ := m.Load64(casWord); got != workers*perW {
			t.Fatalf("round %d: CAS word = %d, want %d", round, got, workers*perW)
		}
		for w := 0; w < workers; w++ {
			if got, _ := m.Load64(private + uint64(w)*8); got != 2*perW {
				t.Fatalf("round %d: worker %d's word = %d, want %d", round, w, got, 2*perW)
			}
		}
		if n := m.resident(); n != 1 {
			t.Fatalf("round %d: %d chunks installed, want 1", round, n)
		}
	}
}

func TestFailDropsChunksOfVolatileNodeOnly(t *testing.T) {
	cfg := sim.DefaultConfig()
	addrs := []uint64{0, chunkBytes - 3, 5 * chunkBytes} // the middle one straddles chunks 0 and 1
	payload := []byte("survives?")
	for _, pm := range []bool{false, true} {
		n := NewNode(cfg, "volatile", 8*chunkBytes)
		if pm {
			n = NewPMNode(cfg, "pm", 8*chunkBytes)
		}
		for _, a := range addrs {
			if err := n.Mem.Write(a, payload); err != nil {
				t.Fatal(err)
			}
		}
		if got := n.Mem.resident(); got != 3 {
			t.Fatalf("pm=%v: %d chunks resident before Fail, want 3", pm, got)
		}
		n.Fail()
		n.Restart()
		want, resident := make([]byte, len(payload)), 0
		if pm {
			want, resident = payload, 3
		}
		if got := n.Mem.resident(); got != resident {
			t.Fatalf("pm=%v: %d chunks resident after Fail, want %d", pm, got, resident)
		}
		for _, a := range addrs {
			got := make([]byte, len(payload))
			if err := n.Mem.Read(a, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("pm=%v: after Fail, [%d] = %q, want %q", pm, a, got, want)
			}
		}
		// The region is usable again after the wipe.
		if err := n.Mem.Write(addrs[1], []byte("again")); err != nil {
			t.Fatal(err)
		}
		if v, err := n.Mem.Add64(2*chunkBytes, 7); err != nil || v != 7 {
			t.Fatalf("pm=%v: Add64 after Fail = %d, %v", pm, v, err)
		}
		got := make([]byte, 5)
		if err := n.Mem.Read(addrs[1], got); err != nil || string(got) != "again" {
			t.Fatalf("pm=%v: write after Fail read back %q, %v", pm, got, err)
		}
	}
}

// Registering a region must cost what is touched, not what is registered:
// the harness builds 512 MB–2 GB pools per table cell and uses a sliver.
func TestRegisteringARegionAllocatesNoBacking(t *testing.T) {
	cfg := sim.DefaultConfig()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := NewNode(cfg, "g", 1<<30)
	if err := n.Mem.Write(1<<29, []byte("8 bytes.")); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("NewNode(1 GiB) + one 8-byte write allocated %d bytes, want < 1 MiB", got)
	}
	runtime.KeepAlive(n)
}

func TestReadingUntouchedMemoryAllocatesNothing(t *testing.T) {
	m := NewMemory(64 << 20)
	p := make([]byte, 8192)
	if got := testing.AllocsPerRun(100, func() {
		if err := m.Read(chunkBytes-100, p); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("Read of an untouched region: %v allocs/op, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		if v, err := m.Load64(3 * chunkBytes); err != nil || v != 0 {
			t.Fatal(v, err)
		}
	}); got != 0 {
		t.Fatalf("Load64 of an untouched region: %v allocs/op, want 0", got)
	}
	if n := m.resident(); n != 0 {
		t.Fatalf("reads installed %d chunks", n)
	}
}

var sinkNode *Node

// BenchmarkMemoryRW8K is the bulk-transfer path every page-sized verb
// takes: one 8 KB write and one 8 KB read, crossing a chunk boundary.
func BenchmarkMemoryRW8K(b *testing.B) {
	m := NewMemory(64 << 20)
	p := make([]byte, 8192)
	for i := range p {
		p[i] = byte(i)
	}
	b.SetBytes(2 * int64(len(p)))
	for b.Loop() {
		if err := m.Write(chunkBytes-4096, p); err != nil {
			b.Fatal(err)
		}
		if err := m.Read(chunkBytes-4096, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewNode1GiB is what a harness cell pays to register its pool.
func BenchmarkNewNode1GiB(b *testing.B) {
	cfg := sim.DefaultConfig()
	b.ReportAllocs()
	for b.Loop() {
		sinkNode = NewNode(cfg, "b", 1<<30)
	}
}
