//go:build !race

package page

import "sync"

// maxFree bounds the released buffers kept per length: the largest compute
// cache any experiment or benchmark engine builds (1024 frames), so a retired
// engine's whole cache waits for the next engine's first fills, while a burst
// of releases past that cannot pin memory nobody will ask for.
const maxFree = 1024

var free = struct {
	sync.Mutex
	bufs map[int][][]byte // by length
}{bufs: make(map[int][][]byte)}

// Alloc returns a buffer of n bytes, a released one of that length when the
// free list has one. Its contents are arbitrary: the caller overwrites all n
// bytes.
func Alloc(n int) []byte {
	free.Lock()
	if l := free.bufs[n]; len(l) > 0 {
		b := l[len(l)-1]
		l[len(l)-1] = nil
		free.bufs[n] = l[:len(l)-1]
		free.Unlock()
		return b
	}
	free.Unlock()
	return make([]byte, n)
}

// Release hands b to a later Alloc(len(b)). Nothing may reference b
// afterwards: its next holder overwrites it.
func Release(b []byte) {
	if len(b) == 0 {
		return
	}
	free.Lock()
	if l := free.bufs[len(b)]; len(l) < maxFree {
		free.bufs[len(b)] = append(l, b)
	}
	free.Unlock()
}
