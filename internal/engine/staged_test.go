package engine

import (
	"bytes"
	"errors"
	"runtime/debug"
	"slices"
	"testing"

	"github.com/disagglab/disagg/internal/sim"
)

func TestStagedTxReadYourWrites(t *testing.T) {
	backing := map[uint64][]byte{7: []byte("base")}
	st := NewStagedTx(nil, func(_ *sim.Clock, key uint64) ([]byte, error) {
		v, ok := backing[key]
		if !ok {
			return nil, errors.New("missing")
		}
		return v, nil
	})
	v, err := st.Read(7)
	if err != nil || string(v) != "base" {
		t.Fatalf("read-through: %q %v", v, err)
	}
	st.Write(7, []byte("staged"))
	v, _ = st.Read(7)
	if string(v) != "staged" {
		t.Fatalf("read-your-writes: %q", v)
	}
	// The backing store is untouched until commit.
	if string(backing[7]) != "base" {
		t.Fatal("staged write leaked to backing store")
	}
}

func TestStagedTxWriteSetSortedAndCopied(t *testing.T) {
	st := NewStagedTx(nil, func(*sim.Clock, uint64) ([]byte, error) { return nil, nil })
	buf := []byte{1}
	st.Write(30, buf)
	st.Write(10, []byte{2})
	st.Write(20, []byte{3})
	buf[0] = 99 // caller mutates after staging
	writes := st.Writes()
	if len(writes) != 3 || writes[0].Key != 10 || writes[1].Key != 20 || writes[2].Key != 30 {
		t.Fatalf("writes = %v", writes)
	}
	if writes[2].Val[0] != 1 {
		t.Fatal("Write aliased the caller's buffer")
	}
	if st.Empty() {
		t.Fatal("Empty with staged writes")
	}
	if !NewStagedTx(nil, nil).Empty() {
		t.Fatal("fresh tx not empty")
	}
}

// Regression: reads used to pass straight through to the engine read path
// every time, so a transaction re-reading a key while another worker
// committed in between observed two different values — a non-repeatable
// read the history checker flags. The first external read now pins the
// value for the transaction's lifetime.
func TestStagedTxRepeatableReads(t *testing.T) {
	calls := 0
	st := NewStagedTx(nil, func(*sim.Clock, uint64) ([]byte, error) {
		calls++
		return []byte{byte(calls)}, nil // a concurrent committer per read
	})
	v1, _ := st.Read(9)
	v2, _ := st.Read(9)
	if v1[0] != 1 || v2[0] != 1 {
		t.Fatalf("non-repeatable read: first %d then %d", v1[0], v2[0])
	}
	if calls != 1 {
		t.Fatalf("engine read path hit %d times for one key", calls)
	}
	// The pin must not leak between keys.
	v3, _ := st.Read(10)
	if v3[0] != 2 {
		t.Fatalf("second key read %d", v3[0])
	}
	// Reads return copies of the pin, not the pin itself.
	v1[0], v2[0] = 98, 99
	v4, _ := st.Read(9)
	if v4[0] != 1 {
		t.Fatal("pinned buffer aliased to caller")
	}
}

func TestStagedTxCommitStamp(t *testing.T) {
	st := NewStagedTx(nil, nil)
	st.StampCommit(40) // nobody asked: dropped
	var stamp uint64
	DeliverStamp(st, &stamp) // StagedTx satisfies the Run recording contract
	if stamp != 0 {
		t.Fatal("fresh tx claims a commit stamp")
	}
	st.StampCommit(41)
	if stamp != 41 {
		t.Fatalf("stamp = %d, want 41", stamp)
	}
}

func TestStagedTxReadReturnsCopy(t *testing.T) {
	st := NewStagedTx(nil, nil)
	st.Write(1, []byte{5})
	v, _ := st.Read(1)
	v[0] = 77
	v2, _ := st.Read(1)
	if v2[0] != 5 {
		t.Fatal("Read leaked the staged buffer")
	}
	// Last write wins within the transaction.
	st.Write(1, []byte{6})
	v3, _ := st.Read(1)
	if v3[0] != 6 {
		t.Fatal("overwrite not visible")
	}
	if !bytes.Equal(v3, []byte{6}) {
		t.Fatal("bad value")
	}
}

// A transaction far past the few keys the context's slices start with (the
// preload shape: 200 keys) still reads its own writes, keeps its pins apart
// as the arena grows, and sorts.
func TestStagedTxManyKeys(t *testing.T) {
	const n = 200
	st := NewStagedTx(nil, func(_ *sim.Clock, key uint64) ([]byte, error) {
		return []byte{byte(key), byte(key >> 8)}, nil
	})
	for i := n; i > 0; i-- { // descending: Writes has sorting to do
		k := uint64(3 * i)
		if v, err := st.Read(k + 1); err != nil || v[0] != byte(k+1) {
			t.Fatalf("read %d: %v %v", k+1, v, err)
		}
		st.Write(k, []byte{byte(i)})
	}
	for i := 1; i <= n; i++ {
		k := uint64(3 * i)
		if v, _ := st.Read(k); v[0] != byte(i) {
			t.Fatalf("key %d: read %d back, wrote %d", k, v[0], byte(i))
		}
		if v, _ := st.Read(k + 1); v[0] != byte(k+1) || v[1] != byte((k+1)>>8) {
			t.Fatalf("key %d: pinned value %v", k+1, v)
		}
	}
	writes := st.Writes()
	if len(writes) != n || !slices.IsSortedFunc(writes, func(a, b Write) int { return int(a.Key) - int(b.Key) }) {
		t.Fatalf("%d writes, sorted %v", len(writes), len(writes) == n)
	}
	// Sorting moved the entries, not what they say.
	if v, _ := st.Read(3 * n); v[0] != byte(n) {
		t.Fatalf("after the sort key %d reads %d", 3*n, v[0])
	}
}

// raceBuild reports whether the test binary was built with -race, where
// sync.Pool drops a share of what is put back.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// Write copies into the context's arena, which the context keeps when it is
// recycled: a warm context stages a write without allocating.
func TestStagedTxWriteAllocatesNothing(t *testing.T) {
	read := func(*sim.Clock, uint64) ([]byte, error) { return nil, nil }
	val := make([]byte, 1536)
	tx := func() {
		st := NewStagedTx(nil, read)
		for k := range uint64(4) {
			st.Write(k, val)
		}
		st.Writes()
		st.Release()
	}
	tx()
	if got := testing.AllocsPerRun(100, tx); got != 0 && !raceBuild() {
		t.Fatalf("a warm transaction staging 4 writes: %.1f allocs, want 0", got)
	}
}

// Staged values share the arena with pins, and the arena moves as it grows:
// a value staged before a move keeps its bytes, a rewrite of another length
// stages anew, and after Writes has sorted the entries each still reads, and
// carries, its own latest bytes.
func TestStagedTxReadsOwnWritesAfterSort(t *testing.T) {
	st := NewStagedTx(nil, func(_ *sim.Clock, key uint64) ([]byte, error) {
		return bytes.Repeat([]byte{0xEE}, 100), nil
	})
	want := map[uint64][]byte{}
	for i := 40; i > 0; i-- { // descending: Writes has sorting to do
		k := uint64(i)
		v := bytes.Repeat([]byte{byte(i)}, i)
		st.Write(k, v)
		want[k] = v
		if _, err := st.Read(1000 + k); err != nil { // a pin grows the arena too
			t.Fatal(err)
		}
		if i%3 == 0 { // a rewrite of another length
			v = bytes.Repeat([]byte{byte(i) + 100}, i+7)
			st.Write(k, v)
			want[k] = v
		}
		if i%5 == 0 { // and one of the same length
			v = bytes.Repeat([]byte{byte(i) + 50}, len(v))
			st.Write(k, v)
			want[k] = v
		}
	}
	writes := st.Writes()
	if len(writes) != len(want) {
		t.Fatalf("%d writes, want %d", len(writes), len(want))
	}
	for _, w := range writes {
		if !bytes.Equal(w.Val, want[w.Key]) {
			t.Errorf("key %d: Writes carries %v, wrote %v", w.Key, w.Val, want[w.Key])
		}
		if v, _ := st.Read(w.Key); !bytes.Equal(v, want[w.Key]) {
			t.Errorf("key %d: reads %v after the sort, wrote %v", w.Key, v, want[w.Key])
		}
	}
	st.Release()
}

// A recycled context carries nothing of its previous transaction: B, built
// from what A released and reading A's keys through a different read path,
// sees no pin, no write, no record, no page stamp and no stamp destination
// of A's.
func TestStagedTxRecycledContextIsEmpty(t *testing.T) {
	e := newPipeEngine(t)
	var stampA uint64
	var a *StagedTx
	err := e.Execute(sim.NewClock(), func(tx Tx) error {
		a = tx.(*StagedTx)
		DeliverStamp(tx, &stampA)
		if _, err := tx.Read(1); err != nil {
			return err
		}
		if err := tx.Write(2, []byte{0xA2}); err != nil {
			return err
		}
		return tx.Write(uint64(e.layout.PerPage)*3, []byte{0xA3})
	})
	if err != nil || stampA == 0 {
		t.Fatalf("transaction A: err %v, stamp %d", err, stampA)
	}
	// Execute released a. Everything it carried is gone, including what the
	// spare capacity of its slices would still show.
	if a.read != nil || a.c != nil || a.stampTo != nil {
		t.Error("released context keeps its read path, clock or stamp destination")
	}
	if len(a.writes)+len(a.pins)+len(a.arena)+len(a.recs)+len(a.stamps) != 0 {
		t.Errorf("released context is not empty: %d writes, %d pins, %d arena bytes, %d records, %d stamps",
			len(a.writes), len(a.pins), len(a.arena), len(a.recs), len(a.stamps))
	}
	for _, w := range a.writes[:cap(a.writes)] {
		if w.Val != nil {
			t.Error("released context still references a staged value")
		}
	}
	for _, r := range a.recs[:cap(a.recs)] {
		if r.After != nil {
			t.Error("released context still references a logged value")
		}
	}

	// B runs on a context built the same way (very likely a itself), with
	// its own read path serving different bytes for the same keys.
	b := NewStagedTx(nil, func(_ *sim.Clock, key uint64) ([]byte, error) { return []byte{0xB0 + byte(key)}, nil })
	if !b.Empty() {
		t.Fatal("recycled context has staged writes")
	}
	for _, key := range []uint64{1, 2} {
		if v, err := b.Read(key); err != nil || v[0] != 0xB0+byte(key) {
			t.Errorf("B read key %d = %x, %v: a pin or write of A's survived", key, v, err)
		}
	}
	b.StampCommit(99)
	if stampA == 99 {
		t.Error("B's stamp was delivered to A's destination")
	}
	b.Release()
}

// A handle kept past its Execute must fail loudly, not read through
// whichever transaction the context serves next.
func TestStagedTxReadAfterReleasePanics(t *testing.T) {
	st := NewStagedTx(nil, func(*sim.Clock, uint64) ([]byte, error) { return []byte{1}, nil })
	if _, err := st.Read(1); err != nil {
		t.Fatal(err)
	}
	st.Release()
	defer func() {
		if recover() == nil {
			t.Error("Read on a released context did not panic")
		}
	}()
	st.Read(1)
}
