package enginetest

import (
	"encoding/binary"
	"testing"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/sim"
)

// runChaos drills an engine through repeated recoverNode cycles with
// transactions in between, verifying after every recovery that ALL
// committed generations survive — the durability contract every
// architecture in the paper must keep, whatever tier holds the truth.
func runChaos(t *testing.T, factory func(t *testing.T) engine.Engine, crash bool) {
	layout := Layout(t)
	e := factory(t)
	if engine.Caps(e).Recoverer == nil {
		t.Skip("engine does not implement Recoverer")
	}
	c := sim.NewClock()
	const keysPerGen = 25
	written := map[uint64]uint64{} // key -> latest committed generation

	writeGen := func(gen uint64) {
		for i := uint64(0); i < keysPerGen; i++ {
			// Overlapping key ranges across generations: later
			// generations overwrite earlier ones.
			key := (gen%3)*10 + i
			v := make([]byte, layout.ValSize)
			binary.LittleEndian.PutUint64(v, gen)
			if err := writeKey(e, c, engine.RunOpts{}, key, v); err != nil {
				t.Fatalf("gen %d key %d: %v", gen, key, err)
			}
			written[key] = gen
		}
	}
	verifyAll := func(after string) {
		for key, gen := range written {
			v, err := readKey(e, c, engine.RunOpts{}, key)
			if err != nil {
				t.Fatalf("%s: read key %d: %v", after, key, err)
			}
			if got := binary.LittleEndian.Uint64(v); got != gen {
				t.Errorf("%s: key %d = gen %d, want %d", after, key, got, gen)
			}
		}
	}

	for gen := uint64(1); gen <= 5; gen++ {
		writeGen(gen)
		recoverNode(t, e, crash)
		verifyAll("after recovery")
	}
}
