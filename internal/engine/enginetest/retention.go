package enginetest

import (
	"bytes"
	"errors"
	"testing"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/sim"
)

// RecsRetentionGuard holds an engine to the ownership contract of
// engine.Hooks: the records a hook receives are the transaction context's
// scratch, cleared when Execute returns and rewritten by the next
// transaction, so a hook that keeps the slice (a batch it ships later) keeps
// nothing. It commits k1, then k2 on another page, checkpoints, crashes and
// recovers — whichever of those e supports — and reads both back, on twenty
// fresh engines: whatever the engine still owed its durable tier from k1's
// records when k2 reused them is lost by then.
func RecsRetentionGuard(t *testing.T, newEngine func() engine.Engine) {
	t.Helper()
	layout := Layout(t)
	k1, k2 := uint64(3), uint64(2*layout.PerPage+5)
	v1, v2 := val(layout, 0xA1), val(layout, 0xB2)
	for run := 0; run < 20; run++ {
		e := newEngine()
		c := sim.NewClock()
		for _, w := range []struct {
			key uint64
			val []byte
		}{{k1, v1}, {k2, v2}} {
			if err := writeKey(e, c, engine.RunOpts{}, w.key, w.val); err != nil {
				t.Fatalf("run %d: commit of key %d: %v", run, w.key, err)
			}
		}
		if cp := engine.Caps(e).Checkpointer; cp != nil {
			if err := cp.Checkpoint(c); err != nil {
				t.Fatalf("run %d: checkpoint: %v", run, err)
			}
		}
		crashRecover(t, e)
		got1, err1 := readKey(e, c, engine.RunOpts{}, k1)
		got2, err2 := readKey(e, c, engine.RunOpts{}, k2)
		if err := errors.Join(err1, err2); err != nil {
			t.Fatalf("run %d: read back: %v", run, err)
		}
		if !bytes.Equal(got1, v1) || !bytes.Equal(got2, v2) {
			t.Fatalf("run %d: %s read back k1 = %x, k2 = %x; committed %x and %x", run, e.Name(), got1[:1], got2[:1], v1[:1], v2[:1])
		}
	}
}
