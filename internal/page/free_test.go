package page

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
)

// raceBuild reports whether the test binary was built with -race, where the
// free list is replaced by poisoning (free_race.go).
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// The free list is package state: each test uses a length of its own.

func TestAllocReusesAReleasedBufferOfThatLengthOnly(t *testing.T) {
	if raceBuild() {
		t.Skip("the race build recycles nothing")
	}
	b := Alloc(1001)
	Release(b)
	if other := Alloc(1002); len(other) != 1002 || &other[0] == &b[0] {
		t.Fatalf("Alloc(1002) after Release of 1001 bytes: len %d, same array %v", len(other), &other[0] == &b[0])
	}
	if again := Alloc(1001); len(again) != 1001 || &again[0] != &b[0] {
		t.Fatalf("Alloc(1001) after Release did not return the released buffer (len %d)", len(again))
	}
	if fresh := Alloc(1001); &fresh[0] == &b[0] {
		t.Fatal("one Release served two Allocs")
	}
}

func TestFreeListIsBounded(t *testing.T) {
	if raceBuild() {
		t.Skip("the race build recycles nothing")
	}
	released := make(map[*byte]bool)
	for i := 0; i < 1000; i++ {
		b := make([]byte, 1003)
		released[&b[0]] = true
		Release(b)
	}
	kept := 0
	for i := 0; i < 1000; i++ {
		if released[&Alloc(1003)[0]] {
			kept++
		}
	}
	if kept != 64 {
		t.Fatalf("1000 releases kept %d buffers, want 64", kept)
	}
}

func TestReleaseNilIsANoOp(t *testing.T) {
	Release(nil)
	Release([]byte{})
	if b := Alloc(0); len(b) != 0 {
		t.Fatalf("Alloc(0) has %d bytes", len(b))
	}
}

func TestRaceBuildPoisonsReleasedBuffers(t *testing.T) {
	if !raceBuild() {
		t.Skip("only the race build poisons")
	}
	b := Alloc(1004)
	Release(b)
	if !bytes.Equal(b, bytes.Repeat([]byte{0xFF}, 1004)) {
		t.Fatal("released buffer not filled with 0xFF")
	}
	if fresh := Alloc(1004); !bytes.Equal(fresh, make([]byte, 1004)) {
		t.Fatal("Alloc after a poisoned Release is not a fresh zeroed buffer")
	}
}

// A buffer has one holder between Alloc and Release: nobody else's bytes
// show up in it, however the holders interleave.
func TestConcurrentHoldersNeverShareABuffer(t *testing.T) {
	const holders, rounds, size = 8, 10_000, 1005
	var wg sync.WaitGroup
	for id := 1; id <= holders; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := bytes.Repeat([]byte{byte(id)}, size)
			for i := 0; i < rounds; i++ {
				b := Alloc(size)
				copy(b, mine)
				if i%64 == 0 {
					runtime.Gosched()
				}
				if !bytes.Equal(b, mine) {
					t.Errorf("holder %d, round %d: another holder wrote into its buffer", id, i)
					return
				}
				Release(b)
			}
		}()
	}
	wg.Wait()
}
