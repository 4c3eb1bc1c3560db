package enginetest

import (
	"bytes"
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
			if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(w.key, w.val) }); err != nil {
				t.Fatalf("run %d: commit of key %d: %v", run, w.key, err)
			}
		}
		caps := engine.Caps(e)
		if caps.Checkpointer != nil {
			if err := caps.Checkpointer.Checkpoint(c); err != nil {
				t.Fatalf("run %d: checkpoint: %v", run, err)
			}
		}
		if caps.Recoverer != nil {
			caps.Recoverer.Crash()
			if _, err := caps.Recoverer.Recover(c); err != nil {
				t.Fatalf("run %d: recover: %v", run, err)
			}
		}
		var got1, got2 []byte
		if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) (err error) {
			if got1, err = tx.Read(k1); err != nil {
				return err
			}
			got2, err = tx.Read(k2)
			return err
		}); err != nil {
			t.Fatalf("run %d: read back: %v", run, err)
		}
		if !bytes.Equal(got1, v1) || !bytes.Equal(got2, v2) {
			t.Fatalf("run %d: %s read back k1 = %x, k2 = %x; committed %x and %x", run, e.Name(), got1[:1], got2[:1], v1[:1], v2[:1])
		}
	}
}
