package rdma

import (
	"bytes"
	"runtime/debug"
	"testing"

	"github.com/disagglab/disagg/internal/sim"
)

// raceBuild reports whether the test binary was built with -race, where a
// released chunk is poisoned and never reused.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// fill writes a recognisable non-zero pattern over [addr, addr+n).
func fill(t *testing.T, m *Memory, addr uint64, n int) {
	t.Helper()
	if err := m.Write(addr, bytes.Repeat([]byte{0xA5}, n)); err != nil {
		t.Fatal(err)
	}
}

// zeroExcept checks that chunk c holds zeros outside byte [off, off+n).
func zeroExcept(t *testing.T, c *chunk, off, n int) {
	t.Helper()
	got := make([]byte, chunkBytes)
	c.read(0, got)
	for i, b := range got {
		if (i < off || i >= off+n) && b != 0 {
			t.Fatalf("byte %d of a recycled chunk is %#x, want 0", i, b)
		}
	}
}

func TestReleaseReturnsTheRegionToZeros(t *testing.T) {
	m := NewMemory(3 * chunkBytes)
	fill(t, m, chunkBytes-100, chunkBytes+200)
	if _, err := m.Add64(2*chunkBytes+8, 7); err != nil {
		t.Fatal(err)
	}
	m.Release()
	if m.resident() != 0 {
		t.Fatalf("%d chunks resident after Release, want 0", m.resident())
	}
	got := make([]byte, 3*chunkBytes)
	if err := m.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, len(got))) {
		t.Fatal("a released region does not read as zeros")
	}
	if v, err := m.Add64(2*chunkBytes+8, 1); err != nil || v != 1 {
		t.Fatalf("Add64 after Release = %d, %v; want 1", v, err)
	}
}

func TestReleasedChunkComesBackZeroedInAnotherRegion(t *testing.T) {
	if raceBuild() {
		t.Skip("the race build recycles nothing")
	}
	old := NewMemory(chunkBytes)
	fill(t, old, 0, chunkBytes)
	c := old.chunks[0].Load()
	old.Release()
	other := NewMemory(4 * chunkBytes)
	fill(t, other, 3*chunkBytes+64, 16)
	if got := other.chunks[3].Load(); got != c {
		t.Fatal("the next first write did not take the released chunk")
	}
	zeroExcept(t, c, 64, 16)
	if old.resident() != 0 {
		t.Fatal("the released region still holds the chunk")
	}
}

func TestReleasePoisonsUnderRace(t *testing.T) {
	if !raceBuild() {
		t.Skip("only the race build poisons")
	}
	m := NewMemory(chunkBytes)
	fill(t, m, 0, 64)
	c := m.chunks[0].Load()
	m.Release()
	for i := range c {
		if w := c[i].Load(); w != ^uint64(0) {
			t.Fatalf("word %d of a released chunk is %#x, want all ones", i, w)
		}
	}
	other := NewMemory(chunkBytes)
	fill(t, other, 0, 8)
	if other.chunks[0].Load() == c {
		t.Fatal("the race build reused a released chunk")
	}
}

// A crash's wipe drops chunks to the GC: an access that resolved its chunk
// before the wipe still completes against it, so handing it to another
// region would turn that access into a write into memory it does not own.
func TestWipeDoesNotRecycle(t *testing.T) {
	n := NewNode(sim.DefaultConfig(), "volatile", chunkBytes)
	fill(t, n.Mem, 0, chunkBytes)
	c := n.Mem.chunks[0].Load()
	n.Fail()
	other := NewMemory(chunkBytes)
	fill(t, other, 0, 8)
	if other.chunks[0].Load() == c {
		t.Fatal("a wiped chunk was handed to another region")
	}
	late := make([]byte, 8)
	c.read(chunkBytes-8, late) // the late access sees the bytes it raced
	if !bytes.Equal(late, bytes.Repeat([]byte{0xA5}, 8)) {
		t.Fatalf("the wiped chunk changed: %x", late)
	}
}
