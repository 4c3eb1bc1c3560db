//go:build !race

package rdma

import "sync"

// maxSpare bounds the released chunks kept for reuse: the largest memory
// node a retired engine fills (the roster's legobase and serverless register
// 4096 remote pages of 8 KiB, 32 MiB = 512 chunks), so a retired engine's
// whole node waits for the next engine's first writes, while a burst of
// releases past that cannot pin memory nobody will ask for.
const maxSpare = 512

var spare = struct {
	sync.Mutex
	chunks []*chunk
}{}

// newChunk returns a zeroed chunk, a released one when the spare list has
// one.
func newChunk() *chunk {
	spare.Lock()
	if n := len(spare.chunks); n > 0 {
		c := spare.chunks[n-1]
		spare.chunks[n-1] = nil
		spare.chunks = spare.chunks[:n-1]
		spare.Unlock()
		*c = chunk{} // private until touch publishes it
		return c
	}
	spare.Unlock()
	return new(chunk)
}

// releaseChunk hands c to a later newChunk. Nothing may access c
// afterwards: its next region zeroes and owns it.
func releaseChunk(c *chunk) {
	spare.Lock()
	if len(spare.chunks) < maxSpare {
		spare.chunks = append(spare.chunks, c)
	}
	spare.Unlock()
}
