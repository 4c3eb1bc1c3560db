//go:build !race

package rdma

import "testing"

func TestSpareListIsBounded(t *testing.T) {
	m := NewMemory((maxSpare + 8) * chunkBytes)
	for i := 0; i < maxSpare+8; i++ {
		if err := m.Store64(uint64(i)*chunkBytes, 1); err != nil {
			t.Fatal(err)
		}
	}
	m.Release()
	spare.Lock()
	n := len(spare.chunks)
	spare.Unlock()
	if n != maxSpare {
		t.Fatalf("%d spare chunks after releasing %d, want the bound %d", n, maxSpare+8, maxSpare)
	}
	// Leave the list as the other tests expect it: drain what this test filled.
	for i := 0; i < maxSpare; i++ {
		newChunk()
	}
}
