package snowflake

import (
	"bytes"
	"runtime"
	"testing"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/enginetest"
	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/wal"
)

func TestKVConformance(t *testing.T) {
	enginetest.RunConformance(t, func(t *testing.T, cfg *sim.Config) engine.Engine {
		return NewKV(cfg, enginetest.Layout(t))
	})
}

func TestKVChaosCrashRecovery(t *testing.T) {
	enginetest.RunChaos(t, func(t *testing.T) engine.Engine {
		return NewKV(sim.DefaultConfig(), enginetest.Layout(t))
	})
}

// A torn segment upload (crash mid-put) is an unacknowledged transaction,
// and recovery replays none of it: here the tear leaves the first of its two
// updates whole, and neither key shows the torn write. Every earlier
// segment replays intact.
func TestKVTornSegmentIsAllOrNothing(t *testing.T) {
	layout := enginetest.Layout(t)
	e := NewKV(sim.DefaultConfig(), layout)
	c := sim.NewClock()
	old := bytes.Repeat([]byte{0xAB}, layout.ValSize)
	torn := bytes.Repeat([]byte{0xCD}, layout.ValSize)
	write := func(val []byte, keys ...uint64) {
		t.Helper()
		if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error {
			for _, k := range keys {
				if err := tx.Write(k, val); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 8; k++ {
		write(old, k)
	}
	write(torn, 0, 1)
	// Simulate a crash mid-upload: cut the newest segment inside its second
	// update, so the first update is a whole record and the marker is gone.
	last := ""
	for _, k := range e.Store.Keys() {
		if k > last {
			last = k
		}
	}
	data, err := e.Store.Get(c, last)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := wal.DecodePrefix(data)
	if err != nil || len(recs) != 3 || recs[2].Type != wal.TypeCommit {
		t.Fatalf("newest segment: %v, %d records, want two updates and a commit", err, len(recs))
	}
	cut := recs[0].EncodedSize() + recs[1].EncodedSize()/2
	if err := e.Store.Put(c, last, data[:cut]); err != nil {
		t.Fatal(err)
	}
	e.Crash()
	if _, err := e.Recover(sim.NewClock()); err != nil {
		t.Fatalf("recovery choked on torn segment: %v", err)
	}
	for k := uint64(0); k < 8; k++ {
		if got, _ := e.readKey(nil, k); !bytes.Equal(got, old) {
			t.Errorf("key %d after torn-segment recovery reads %x..., want the last acknowledged %x...", k, got[:1], old[:1])
		}
	}
}

// Checkpoint encodes the view without copying it first. The snapshot object
// must stay byte for byte what the copying version uploaded — one update
// record per key in key order at the horizon, then the commit marker — and
// recovery from it alone must serve every value.
func TestKVSnapshotObjectIsTheViewInKeyOrder(t *testing.T) {
	layout := enginetest.Layout(t)
	e := NewKV(sim.DefaultConfig(), layout)
	c := sim.NewClock()
	want := map[uint64][]byte{}
	for i := uint64(0); i < 200; i++ {
		key := (i * 7919) % 61 // scrambled order, every key overwritten
		val := make([]byte, layout.ValSize)
		val[0], val[layout.ValSize-1] = byte(i), byte(key)
		want[key] = val
		if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(key, val) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Checkpoint(c); err != nil {
		t.Fatal(err)
	}
	h := e.RecoveryHorizon()
	var reference []byte
	for key := uint64(0); key < 61; key++ {
		rec := wal.Record{LSN: h, Type: wal.TypeUpdate, Key: key, After: want[key]}
		reference = rec.Encode(reference)
	}
	marker := wal.Record{LSN: h, Type: wal.TypeCommit}
	reference = marker.Encode(reference)
	got, err := e.Store.Get(c, ckptKey(h))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, reference) {
		t.Fatalf("snapshot object (%d B) differs from the key-ordered encoding of the view (%d B)", len(got), len(reference))
	}
	if keys := e.Store.Keys(); len(keys) != 1 {
		t.Fatalf("objects after the checkpoint: %v, want the snapshot alone", keys)
	}
	e.Crash()
	if _, err := e.Recover(sim.NewClock()); err != nil {
		t.Fatal(err)
	}
	for key, val := range want {
		if got, _ := e.readKey(nil, key); !bytes.Equal(got, val) {
			t.Fatalf("key %d after recovery from the snapshot: %x, want %x", key, got[:1], val[:1])
		}
	}
}

// Checkpoint encodes the view straight into the snapshot object, which the
// store keeps: a warm round allocates the object and little else. Building a
// record per key, encoding them and having the store copy the result cost
// about 2.6 times the object.
func TestKVWarmCheckpointAllocatesTheSnapshotOnce(t *testing.T) {
	layout := enginetest.Layout(t)
	e := NewKV(sim.DefaultConfig(), layout)
	c := sim.NewClock()
	write := func(key uint64) {
		t.Helper()
		val := make([]byte, layout.ValSize)
		val[0] = byte(key)
		if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(key, val) }); err != nil {
			t.Fatal(err)
		}
	}
	const keys = 2048
	for key := uint64(0); key < keys; key++ {
		write(key)
	}
	if err := e.Checkpoint(c); err != nil {
		t.Fatal(err)
	}
	write(7) // the next round has a horizon to advance to
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := e.Checkpoint(c); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if objs := e.Store.Keys(); len(objs) != 1 {
		t.Fatalf("objects after the checkpoint: %v, want the snapshot alone", objs)
	}
	snapshot := float64(e.Store.TotalBytes())
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / snapshot
	if ratio >= 1.2 && !enginetest.RaceBuild() {
		t.Errorf("warm checkpoint of %d keys allocated %.2f× its %.0f B snapshot, want < 1.2×", keys, ratio, snapshot)
	}
	t.Logf("warm checkpoint: %.2f× the %.0f B snapshot", ratio, snapshot)
}

// Recovery copies each value it keeps into a buffer of the view's and hands
// the object copy Get returned back to the page free list, where the next
// read of that length finds it: a value is allocated once, by the copy into
// the view, and the reads share one object buffer between them (1.28× when
// the view kept the read's bytes and each read allocated its own).
func TestKVRecoverCopiesEachValueOnce(t *testing.T) {
	const segs, size = 256, 4096
	layout, err := heap.NewLayout(8192, size)
	if err != nil {
		t.Fatal(err)
	}
	e := NewKV(sim.DefaultConfig(), layout)
	c := sim.NewClock()
	want := make(map[uint64][]byte, segs)
	for i := uint64(1); i <= segs; i++ {
		val := bytes.Repeat([]byte{byte(i)}, size)
		want[i] = val
		// An update and its commit marker, as every real commit uploads.
		rec := wal.Record{LSN: wal.LSN(2*i - 1), Type: wal.TypeUpdate, TxID: i, Key: i, After: val}
		marker := wal.Record{LSN: wal.LSN(2 * i), Type: wal.TypeCommit, TxID: i}
		if err := e.Store.Put(c, segKey(marker.LSN), marker.Encode(rec.Encode(nil))); err != nil {
			t.Fatal(err)
		}
	}
	e.Crash()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := e.Recover(sim.NewClock()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	for key, val := range want {
		if got, _ := e.readKey(nil, key); !bytes.Equal(got, val) {
			t.Fatalf("key %d after recovery: %x, want %x", key, got[:1], val[:1])
		}
	}
	copies := float64(after.TotalAlloc-before.TotalAlloc) / (segs * size)
	if copies >= 1.15 && !enginetest.RaceBuild() {
		t.Errorf("recovering %d one-update segments allocated %.2f× their values, want < 1.15× (the copy into the view)", segs, copies)
	}
	t.Logf("recovery: %.2f× the values", copies)
}

// TestCommitAllocs bounds the host allocations of one cache-resident
// single-key RMW commit (see enginetest.AllocGuard).
func TestCommitAllocs(t *testing.T) {
	enginetest.AllocGuard(t, NewKV(sim.DefaultConfig(), enginetest.Layout(t)), 3, 0.90)
}

// TestHooksMayNotKeepRecs: the records a hook receives are the pipeline's
// scratch (see enginetest.RecsRetentionGuard).
func TestHooksMayNotKeepRecs(t *testing.T) {
	enginetest.RecsRetentionGuard(t, func() engine.Engine {
		return NewKV(sim.DefaultConfig(), enginetest.Layout(t))
	})
}

// Close retires the engine with the object store it built: the segments and
// the snapshot go back to the page free list, and Execute sheds.
func TestKVCloseEmptiesTheStore(t *testing.T) {
	layout := enginetest.Layout(t)
	e := NewKV(sim.DefaultConfig(), layout)
	c := sim.NewClock()
	for key := uint64(0); key < 8; key++ {
		if err := engine.Run(e, c, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(key, make([]byte, layout.ValSize)) }); err != nil {
			t.Fatal(err)
		}
		if key == 3 {
			if err := e.Checkpoint(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	if e.Store.Len() < 2 {
		t.Fatalf("%d objects before Close, want a snapshot and segments", e.Store.Len())
	}
	enginetest.CloseSheds(t, e)
	if n := e.Store.Len(); n != 0 {
		t.Fatalf("%d objects after Close, want 0", n)
	}
}
