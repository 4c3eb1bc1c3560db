//go:build race

package rdma

// Under the race detector nothing is recycled and a released chunk is
// poisoned, so an access after Release reads all-ones words (an absurd
// length, a bad version, a failed checksum) instead of zeros or a plausible
// old value.

// newChunk returns a fresh zeroed chunk.
func newChunk() *chunk { return new(chunk) }

// releaseChunk fills c with all-ones words and drops it. Nothing may access
// c afterwards.
func releaseChunk(c *chunk) {
	for i := range c {
		c[i].Store(^uint64(0))
	}
}
