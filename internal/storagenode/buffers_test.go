package storagenode

import (
	"bytes"
	"slices"
	"testing"

	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/wal"
)

// TestVolumeAppendLogAllocatesNothingWarm: once every replica's pending list
// for the page has been materialised once, a one-page commit's quorum append
// reuses it, and the acks live on the stack.
func TestVolumeAppendLogAllocatesNothingWarm(t *testing.T) {
	layout := testLayout(t)
	v := NewAuroraVolume(sim.DefaultConfig(), layout)
	c := sim.NewClock()
	const key = 5
	id := layout.PageOf(key)
	recs := []wal.Record{updateRec(0, key, layout, "v"), {Type: wal.TypeCommit, TxID: 1}}
	var lsn wal.LSN
	commit := func() {
		for i := range recs {
			lsn++
			recs[i].LSN = lsn
		}
		if err := v.AppendLog(c, recs); err != nil {
			t.Fatal(err)
		}
		for _, r := range v.Replicas {
			r.mu.Lock()
			r.materializeLocked(nil, id)
			r.mu.Unlock()
		}
	}
	commit() // formats the page and grows each list once
	if n := testing.AllocsPerRun(100, commit); n != 0 {
		t.Fatalf("a warm one-page AppendLog allocates %.1f objects, want 0", n)
	}
	for _, r := range v.Replicas {
		if r.PrefixLSN() != lsn || r.PendingRecords() != 0 {
			t.Fatalf("%s: prefix %d pending %d, want %d and 0", r.Name, r.PrefixLSN(), r.PendingRecords(), lsn)
		}
	}
}

// TestLogStoreSteadyStateAllocatesNothing: a store that is appended to and
// truncated in rounds that each span three segments reuses the segments the
// last round emptied, so after one warm-up round it allocates nothing.
func TestLogStoreSteadyStateAllocatesNothing(t *testing.T) {
	layout := testLayout(t)
	ls := NewLogStore(sim.DefaultConfig(), MediumPM)
	c := sim.NewClock()
	batch := make([]wal.Record, 32)
	val := updateRec(0, 0, layout, "v").After
	var lsn wal.LSN
	round := func() {
		for range 3 * 512 / len(batch) {
			for i := range batch {
				lsn++
				batch[i] = wal.Record{LSN: lsn, Type: wal.TypeUpdate, TxID: 1, PageID: uint64(lsn % 64), After: val}
			}
			batch[len(batch)-1].Type = wal.TypeCommit
			if err := ls.Append(c, batch); err != nil {
				t.Fatal(err)
			}
		}
		if err := ls.TruncateBefore(c, lsn-100); err != nil { // keeps a tail
			t.Fatal(err)
		}
	}
	round()
	if n := testing.AllocsPerRun(10, round); n != 0 {
		t.Fatalf("a warm round of 1536 appends and a truncation allocates %.1f objects, want 0", n)
	}
	if ls.Len() != 101 {
		t.Fatalf("%d records retained, want 101", ls.Len())
	}
}

// TestCatchUpFromShipsChunksOverHoles: a catch-up of more than two chunks
// ships exactly what the peer holds and the receiver lacks, leaves the
// receiver's prefix at the peer's first hole, and charges one transfer over
// the whole delta.
func TestCatchUpFromShipsChunksOverHoles(t *testing.T) {
	cfg := sim.DefaultConfig()
	layout := testLayout(t)
	const n, peerHole = 200, 150
	log := wal.NewLog()
	var all []wal.Record
	for i := 1; i <= n; i++ {
		rec := updateRec(0, uint64(i%40), layout, "v")
		rec.LSN = log.Append(rec)
		all = append(all, rec)
	}
	peer := NewReplica(cfg, "peer", 0, layout, 1)
	r := NewReplica(cfg, "r", 0, layout, 1)
	var held, want []wal.Record
	for _, rec := range all {
		if rec.LSN != peerHole {
			held = append(held, rec)
		}
	}
	peer.ingest(held)
	var mine []wal.Record
	for _, rec := range held {
		if rec.LSN%10 == 0 {
			mine = append(mine, rec) // the receiver's own holes above its prefix
		} else {
			want = append(want, rec)
		}
	}
	r.ingest(mine)
	if len(want) <= 2*len(shipment{}.chunk) {
		t.Fatalf("delta of %d records fits in two chunks", len(want))
	}

	c := sim.NewClock()
	got, err := r.CatchUpFrom(c, peer, log)
	if err != nil {
		t.Fatal(err)
	}
	if got != len(want) {
		t.Fatalf("shipped %d records, want %d", got, len(want))
	}
	if r.PrefixLSN() != peerHole-1 || r.HighLSN() != n {
		t.Fatalf("prefix %d high %d, want %d and %d", r.PrefixLSN(), r.HighLSN(), peerHole-1, n)
	}
	if r.PendingRecords() != n-1 {
		t.Fatalf("pending %d, want every record but the peer's hole (%d)", r.PendingRecords(), n-1)
	}
	charge := cfg.TCP.Cost(wal.Size(want))
	if c.Now() != charge {
		t.Fatalf("clock advanced %v, want one charge over the delta: %v", c.Now(), charge)
	}
	if again, _ := r.CatchUpFrom(c, peer, log); again != 0 || c.Now() != charge {
		t.Fatalf("second catch-up shipped %d and charged %v", again, c.Now()-charge)
	}
}

// TestMaterializeKeepsRecordsPastAHole: materialisation holds records past a
// log hole, in LSN order, until the hole fills; drops records at or below
// the adopted horizon; and leaves the emptied list in place.
func TestMaterializeKeepsRecordsPastAHole(t *testing.T) {
	layout := testLayout(t)
	r := NewReplica(sim.DefaultConfig(), "r", 0, layout, 1)
	const a, b = 1, 2
	id := layout.PageOf(a)
	if layout.PageOf(b) != id {
		t.Fatal("keys a and b must share a page")
	}
	materialize := func() []wal.LSN {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.materializeLocked(nil, id)
		var lsns []wal.LSN
		for _, rec := range r.pending[id] {
			lsns = append(lsns, rec.LSN)
		}
		return lsns
	}
	value := func(key uint64) string {
		r.mu.Lock()
		defer r.mu.Unlock()
		v, err := layout.ReadValue(r.pages[id], key)
		if err != nil {
			t.Fatal(err)
		}
		return string(bytes.TrimRight(v, "\x00"))
	}

	// Out of order, with a hole at 2.
	r.ingest([]wal.Record{updateRec(5, a, layout, "a5"), updateRec(1, a, layout, "a1"),
		updateRec(4, b, layout, "b4"), updateRec(3, b, layout, "b3")})
	if got := materialize(); !slices.Equal(got, []wal.LSN{3, 4, 5}) {
		t.Fatalf("pending past the hole = %v, want [3 4 5]", got)
	}
	if value(a) != "a1" {
		t.Fatalf("a = %q, want a1 (only the prefix applies)", value(a))
	}
	r.ingest([]wal.Record{updateRec(2, b, layout, "b2")})
	if got := materialize(); len(got) != 0 {
		t.Fatalf("pending after the hole filled = %v", got)
	}
	if value(a) != "a5" || value(b) != "b4" {
		t.Fatalf("a = %q b = %q, want a5 b4", value(a), value(b))
	}
	r.mu.Lock()
	pend, kept := r.pending[id]
	r.mu.Unlock()
	if !kept || cap(pend) == 0 {
		t.Fatal("the emptied pending list was dropped instead of kept for reuse")
	}

	// A record at or below an adopted horizon is covered by the page image:
	// dropped, not applied (the ledger covers 6 and the horizon is set
	// directly, as a peer's checkpoint image covering LSN 6 would leave them).
	r.ingest([]wal.Record{updateRec(6, a, layout, "a6"), updateRec(8, b, layout, "b8")})
	r.mu.Lock()
	r.led.cover(6)
	r.horizon = 6
	r.mu.Unlock()
	if got := materialize(); !slices.Equal(got, []wal.LSN{8}) {
		t.Fatalf("pending = %v, want [8]: 6 dropped, 8 held past the hole at 7", got)
	}
	if value(a) != "a5" {
		t.Fatalf("a = %q: a record at the horizon was applied", value(a))
	}
	r.ingest([]wal.Record{updateRec(7, b, layout, "b7")})
	if got := materialize(); len(got) != 0 || value(b) != "b8" {
		t.Fatalf("pending %v, b = %q, want none and b8", got, value(b))
	}
	if r.PrefixLSN() != 8 {
		t.Fatalf("prefix %d, want 8", r.PrefixLSN())
	}
}
