package enginetest

import (
	"errors"
	"io"
	"slices"
	"testing"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/rdma"
	"github.com/disagglab/disagg/internal/sim"
)

// CloseSheds closes e, which must be an io.Closer, and checks that the
// retired engine sheds: Execute fails with ErrUnavailable without running
// its function, and Stats counts the attempt as shed. A second Close must
// not fail either.
func CloseSheds(t *testing.T, e engine.Engine) {
	t.Helper()
	cl, ok := e.(io.Closer)
	if !ok {
		t.Fatalf("%s has no Close", e.Name())
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	shed := e.Stats().Shed.Load()
	ran := false
	err := e.Execute(sim.NewClock(), func(tx engine.Tx) error { ran = true; return nil })
	if !errors.Is(err, engine.ErrUnavailable) || ran || e.Stats().Shed.Load() != shed+1 {
		t.Fatalf("Execute on a closed %s: err %v, ran %v, shed %d -> %d; want ErrUnavailable, not run, one shed",
			e.Name(), err, ran, shed, e.Stats().Shed.Load())
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// Zeroed reports whether every byte of m reads as zero: a region that was
// never written, or one whose memory node was closed.
func Zeroed(t *testing.T, m *rdma.Memory) bool {
	t.Helper()
	b := make([]byte, m.Size())
	if err := m.Read(0, b); err != nil {
		t.Fatal(err)
	}
	return !slices.ContainsFunc(b, func(x byte) bool { return x != 0 })
}
