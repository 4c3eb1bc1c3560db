//go:build race

package page

// Under the race detector nothing is recycled and a released buffer is
// poisoned, so a use after Release reads an invalid page ("bad slot", a key
// mismatch) instead of a plausible old image of some other page.

// Alloc returns a fresh buffer of n bytes.
func Alloc(n int) []byte { return make([]byte, n) }

// Release fills b with 0xFF and drops it. Nothing may reference b afterwards.
func Release(b []byte) {
	for i := range b {
		b[i] = 0xFF
	}
}
