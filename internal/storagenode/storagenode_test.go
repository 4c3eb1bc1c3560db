package storagenode

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/wal"
)

func testLayout(t *testing.T) heap.Layout {
	t.Helper()
	l, err := heap.NewLayout(1024, 64)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func updateRec(lsn wal.LSN, key uint64, layout heap.Layout, val string) wal.Record {
	v := make([]byte, layout.ValSize)
	copy(v, val)
	return wal.Record{
		LSN:    lsn,
		Type:   wal.TypeUpdate,
		TxID:   1,
		PageID: uint64(layout.PageOf(key)),
		Key:    key,
		After:  v,
	}
}

func TestReplicaMaterializesLogIntoPages(t *testing.T) {
	cfg := sim.DefaultConfig()
	layout := testLayout(t)
	r := NewReplica(cfg, "r0", 0, layout, 1)
	c := sim.NewClock()

	if err := r.Ingest(c, []wal.Record{updateRec(1, 5, layout, "v1"), updateRec(2, 5, layout, "v2")}); err != nil {
		t.Fatal(err)
	}
	if r.PendingRecords() != 2 {
		t.Fatalf("pending = %d", r.PendingRecords())
	}
	data, err := r.ReadPage(c, layout.PageOf(5), 2)
	if err != nil {
		t.Fatal(err)
	}
	v, err := layout.ReadValue(data, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(v, []byte("v2")) {
		t.Fatalf("materialized value = %q", v[:4])
	}
	if r.PendingRecords() != 0 {
		t.Fatal("pending not drained by read")
	}
	if r.AppliedRecords() != 2 {
		t.Fatalf("applied = %d", r.AppliedRecords())
	}
}

func TestReplicaReadRespectsMinLSN(t *testing.T) {
	cfg := sim.DefaultConfig()
	layout := testLayout(t)
	r := NewReplica(cfg, "r0", 0, layout, 1)
	c := sim.NewClock()
	r.Ingest(c, []wal.Record{updateRec(1, 1, layout, "x")})
	if _, err := r.ReadPage(c, layout.PageOf(1), 10); err != ErrStaleReplica {
		t.Fatalf("stale read err = %v", err)
	}
	if _, err := r.ReadPage(c, layout.PageOf(1), 1); err != nil {
		t.Fatalf("fresh read err = %v", err)
	}
	if r.PrefixLSN() != 1 {
		t.Fatalf("prefix = %d", r.PrefixLSN())
	}
}

func TestReplicaFailRestartDurability(t *testing.T) {
	cfg := sim.DefaultConfig()
	layout := testLayout(t)
	r := NewReplica(cfg, "r0", 0, layout, 1)
	c := sim.NewClock()
	r.Ingest(c, []wal.Record{updateRec(1, 2, layout, "durable")})
	r.Fail()
	if _, err := r.ReadPage(c, layout.PageOf(2), 1); err != ErrReplicaDown {
		t.Fatalf("read on failed replica: %v", err)
	}
	if err := r.Ingest(c, []wal.Record{updateRec(2, 2, layout, "lost")}); err != ErrReplicaDown {
		t.Fatalf("ingest on failed replica: %v", err)
	}
	r.Restart()
	data, err := r.ReadPage(c, layout.PageOf(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := layout.ReadValue(data, 2)
	if !bytes.HasPrefix(v, []byte("durable")) {
		t.Fatal("durable record lost across crash")
	}
	if r.HighLSN() != 1 {
		t.Fatalf("high LSN = %d (record during downtime must be missed)", r.HighLSN())
	}
}

func TestReplicaCatchUpFrom(t *testing.T) {
	cfg := sim.DefaultConfig()
	layout := testLayout(t)
	log := wal.NewLog()
	a := NewReplica(cfg, "a", 0, layout, 1)
	b := NewReplica(cfg, "b", 1, layout, 1)
	c := sim.NewClock()
	var recs []wal.Record
	for i := 0; i < 5; i++ {
		rec := updateRec(0, uint64(i), layout, "v")
		rec.LSN = log.Append(rec)
		recs = append(recs, rec)
	}
	a.ingest(recs)
	b.ingest(recs[:2])
	n, err := b.CatchUpFrom(c, a, log)
	if err != nil || n != 3 {
		t.Fatalf("caught up %d records, err %v", n, err)
	}
	if b.HighLSN() != a.HighLSN() {
		t.Fatalf("lsn %d vs %d", b.HighLSN(), a.HighLSN())
	}
	// Idempotent when already caught up.
	n, _ = b.CatchUpFrom(c, a, log)
	if n != 0 {
		t.Fatalf("second catch-up shipped %d", n)
	}
}

// A record held undecided is neither counted, nor materialised, nor shipped
// to a peer. The log's abort at its LSN supersedes it; the writer's commit
// decision makes it an ordinary received record.
func TestUndecidedRecordsWaitForTheDecision(t *testing.T) {
	cfg := sim.DefaultConfig()
	layout := testLayout(t)
	log := wal.NewLog()
	a := NewReplica(cfg, "a", 0, layout, 1)
	b := NewReplica(cfg, "b", 1, layout, 1)
	c := sim.NewClock()
	const key = 5
	read := func(r *Replica) string {
		t.Helper()
		data, err := r.ReadPage(c, layout.PageOf(key), 0)
		if err != nil {
			t.Fatal(err)
		}
		v, err := layout.ReadValue(data, key)
		if err != nil {
			t.Fatal(err)
		}
		return string(bytes.TrimRight(v, "\x00"))
	}
	first := updateRec(0, key, layout, "v1")
	first.LSN = log.Append(first)
	a.ingest([]wal.Record{first})
	b.ingest([]wal.Record{first})

	aborted := []wal.Record{updateRec(0, key, layout, "aborted")}
	log.Reserve(aborted)
	a.hold(aborted)
	if got := read(a); got != "v1" || a.PrefixLSN() != 1 || a.HighLSN() != 1 {
		t.Fatalf("holding LSN 2 undecided: value %q, prefix %d, high %d; want v1, 1, 1", got, a.PrefixLSN(), a.HighLSN())
	}
	log.Decide(aborted, false)
	if n, err := b.CatchUpFrom(c, a, log); err != nil || n != 0 {
		t.Fatalf("catch-up from a peer holding LSN 2 undecided shipped %d records (err %v), want 0", n, err)
	}
	if n := a.CatchUpFromLog(c, log); n != 1 {
		t.Fatalf("healing shipped %d records, want the abort at LSN 2", n)
	}
	if got := read(a); got != "v1" || a.PrefixLSN() != 2 || len(a.led.undecided) != 0 {
		t.Fatalf("after the abort: value %q, prefix %d, %d undecided; want v1, 2, 0", got, a.PrefixLSN(), len(a.led.undecided))
	}

	committed := []wal.Record{updateRec(0, key, layout, "v3")}
	log.Reserve(committed)
	a.hold(committed)
	a.hold(committed) // a duplicated delivery
	a.decide(committed, a.pendLocked)
	if got := read(a); got != "v3" || a.PrefixLSN() != 3 || len(a.led.undecided) != 0 {
		t.Fatalf("after the commit decision: value %q, prefix %d, %d undecided; want v3, 3, 0", got, a.PrefixLSN(), len(a.led.undecided))
	}
}

func TestVolumeQuorumWriteAndRead(t *testing.T) {
	cfg := sim.DefaultConfig()
	layout := testLayout(t)
	v := NewAuroraVolume(cfg, layout)
	if len(v.Replicas) != 6 || v.WriteQ != 4 || v.ReadQ != 3 {
		t.Fatalf("volume shape: %d replicas W=%d R=%d", len(v.Replicas), v.WriteQ, v.ReadQ)
	}
	c := sim.NewClock()
	if err := v.AppendLog(c, []wal.Record{updateRec(1, 9, layout, "q")}); err != nil {
		t.Fatal(err)
	}
	if c.Now() == 0 {
		t.Fatal("quorum write charged nothing")
	}
	data, err := v.ReadPage(c, layout.PageOf(9), 1)
	if err != nil {
		t.Fatal(err)
	}
	val, _ := layout.ReadValue(data, 9)
	if !bytes.HasPrefix(val, []byte("q")) {
		t.Fatal("read after quorum write lost data")
	}
}

func TestVolumeSurvivesAZLoss(t *testing.T) {
	cfg := sim.DefaultConfig()
	layout := testLayout(t)
	v := NewAuroraVolume(cfg, layout)
	c := sim.NewClock()
	v.AppendLog(c, []wal.Record{updateRec(1, 1, layout, "pre")})

	v.FailAZ(2)
	if !v.WriteAvailable() || !v.ReadAvailable() {
		t.Fatal("AZ loss must not break quorums (4 of 6 alive)")
	}
	if err := v.AppendLog(c, []wal.Record{updateRec(2, 1, layout, "post")}); err != nil {
		t.Fatal(err)
	}

	// AZ + one more node: write quorum lost, read quorum survives
	// (Aurora's AZ+1 read availability).
	v.Replicas[0].Fail()
	if v.WriteAvailable() {
		t.Fatal("write quorum should be lost at 3/6")
	}
	if !v.ReadAvailable() {
		t.Fatal("read quorum should survive AZ+1")
	}
	if err := v.AppendLog(c, nil); err != ErrNoQuorum {
		t.Fatalf("append without quorum: %v", err)
	}
	lsn, err := v.FindHighLSN(c)
	if err != nil || lsn != 2 {
		t.Fatalf("recovery high LSN = %d, %v", lsn, err)
	}
}

func TestVolumeRepairReplica(t *testing.T) {
	cfg := sim.DefaultConfig()
	layout := testLayout(t)
	log := wal.NewLog()
	v := NewAuroraVolume(cfg, layout)
	c := sim.NewClock()
	v.Replicas[5].Fail()
	for i := 0; i < 4; i++ {
		rec := updateRec(0, uint64(i), layout, "x")
		rec.LSN = log.Append(rec)
		v.AppendLog(c, []wal.Record{rec})
	}
	if v.Replicas[5].HighLSN() != 0 {
		t.Fatal("failed replica received writes")
	}
	n, err := v.RepairReplica(c, 5, log)
	if err != nil || n != 4 {
		t.Fatalf("repair shipped %d, err %v", n, err)
	}
	if v.Replicas[5].HighLSN() != 4 {
		t.Fatalf("repaired replica LSN = %d", v.Replicas[5].HighLSN())
	}
}

func TestVolumeQuorumLatencyCheaperThanAllReplicas(t *testing.T) {
	cfg := sim.DefaultConfig()
	layout := testLayout(t)
	v := NewAuroraVolume(cfg, layout)
	rec := []wal.Record{updateRec(1, 1, layout, "z")}
	qc := sim.NewClock()
	v.AppendLog(qc, rec)
	// The slowest replica is in AZ 2 (scale 1.5): waiting for all 6
	// would cost at least that; quorum must be cheaper.
	slowest := v.Replicas[5].netCost(rec[0].EncodedSize())
	if qc.Now() >= slowest {
		t.Fatalf("quorum latency %v not cheaper than slowest replica %v", qc.Now(), slowest)
	}
}

func TestLogStoreAppendDurableAcrossCrash(t *testing.T) {
	cfg := sim.DefaultConfig()
	ls := NewLogStore(cfg, MediumSSD)
	c := sim.NewClock()
	layout := testLayout(t)
	ls.Append(c, []wal.Record{updateRec(1, 1, layout, "a"), updateRec(2, 2, layout, "b")})
	ls.Fail()
	if err := ls.Append(c, nil); err != ErrReplicaDown {
		t.Fatalf("append on failed store: %v", err)
	}
	ls.Restart()
	recs, err := ls.SincePage(c, uint64(layout.PageOf(2)), 1)
	if err != nil || len(recs) != 1 || recs[0].LSN != 2 {
		t.Fatalf("SincePage(1) = %d recs, err %v", len(recs), err)
	}
	if ls.HighLSN() != 2 || ls.Len() != 2 {
		t.Fatalf("high=%d len=%d", ls.HighLSN(), ls.Len())
	}
}

func TestPMLogStoreFasterThanSSD(t *testing.T) {
	cfg := sim.DefaultConfig()
	layout := testLayout(t)
	rec := []wal.Record{updateRec(1, 1, layout, "fast")}
	pm := NewLogStore(cfg, MediumPM)
	ssd := NewLogStore(cfg, MediumSSD)
	pc, sc := sim.NewClock(), sim.NewClock()
	pm.Append(pc, rec)
	ssd.Append(sc, rec)
	if !(pc.Now() < sc.Now()/5) {
		t.Fatalf("PM log append (%v) should be ≫ faster than SSD (%v)", pc.Now(), sc.Now())
	}
}

func TestLogStoreGroupQuorum(t *testing.T) {
	cfg := sim.DefaultConfig()
	layout := testLayout(t)
	g := NewLogStoreGroup(cfg, 3, 2, MediumSSD)
	c := sim.NewClock()
	if err := g.Append(c, []wal.Record{updateRec(1, 1, layout, "x")}); err != nil {
		t.Fatal(err)
	}
	if g.HighLSN() != 1 {
		t.Fatalf("group high LSN = %d", g.HighLSN())
	}
	g.Stores[0].Fail()
	g.Stores[1].Fail()
	if err := g.Append(c, nil); err != ErrNoQuorum {
		t.Fatalf("append with 1/3 alive: %v", err)
	}
}

func TestPageStoreGroupGossipConvergence(t *testing.T) {
	cfg := sim.DefaultConfig()
	layout := testLayout(t)
	log := wal.NewLog()
	g := NewPageStoreGroup(cfg, 3, layout, log)
	c := sim.NewClock()
	// Write 9 batches round-robin: each store gets 3, so all lag.
	for i := 0; i < 9; i++ {
		rec := updateRec(0, uint64(i), layout, "g")
		rec.LSN = log.Append(rec)
		if err := g.WriteToOne(c, []wal.Record{rec}); err != nil {
			t.Fatal(err)
		}
	}
	if g.MaxLag() == 0 {
		t.Fatal("round-robin writes should leave stores at different LSNs")
	}
	bg := sim.NewClock()
	for i := 0; i < 3 && g.MaxLag() > 0; i++ {
		g.GossipRound(bg)
	}
	if g.MaxLag() != 0 {
		t.Fatalf("gossip did not converge: lag %d", g.MaxLag())
	}
	// Every key readable at the head LSN from the group.
	for i := 0; i < 9; i++ {
		data, err := g.ReadPage(c, layout.PageOf(uint64(i)), 9)
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		v, _ := layout.ReadValue(data, uint64(i))
		if !bytes.HasPrefix(v, []byte("g")) {
			t.Fatalf("key %d value %q", i, v[:2])
		}
	}
}

func TestPageStoreGroupStaleReadRejected(t *testing.T) {
	cfg := sim.DefaultConfig()
	layout := testLayout(t)
	log := wal.NewLog()
	g := NewPageStoreGroup(cfg, 3, layout, log)
	c := sim.NewClock()
	rec := updateRec(0, 1, layout, "v")
	rec.LSN = log.Append(rec)
	g.WriteToOne(c, []wal.Record{rec})
	// Only one store has LSN 1; ask for LSN 99 — nobody can serve.
	if _, err := g.ReadPage(c, layout.PageOf(1), 99); err != ErrStaleReplica {
		t.Fatalf("err = %v", err)
	}
	// But LSN 1 is servable by the store that got the write.
	if _, err := g.ReadPage(c, layout.PageOf(1), 1); err != nil {
		t.Fatalf("fresh store read: %v", err)
	}
}

// storedRecords returns the records the store retains, in stored order.
func storedRecords(ls *LogStore) []wal.Record {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	out := make([]wal.Record, ls.records.Len())
	for i := range out {
		out[i] = ls.records.At(i).Rec
	}
	return out
}

// SincePage follows per-page chains instead of scanning the store; it must
// return what the scan did — the page's non-commit, non-abort records above
// `after`, in stored order — across duplicate and out-of-order deliveries
// and across truncations, which renumber the positions the chains link. The
// store grows past three segments before each of the cuts the segment
// arithmetic turns on: truncations that keep a segment's worth give or take
// one, two of them, and half of one.
func TestLogStoreSincePageMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ls := NewLogStore(sim.DefaultConfig(), MediumPM)
	c := sim.NewClock()
	types := []wal.Type{wal.TypeUpdate, wal.TypeUpdate, wal.TypeUpdate, wal.TypeUpdate, wal.TypeCommit, wal.TypeAbort}
	const seg = 512
	keeps := []int{2*seg + 1, 2 * seg, 2*seg - 1, seg + 1, seg, seg - 1, seg + seg/2, seg / 2}
	next := wal.LSN(1)
	most := 0
	for round := 0; len(keeps) > 0; round++ {
		switch {
		case ls.Len() >= 3*seg+100:
			// Truncate to exactly keeps[0] records: LSNs are unique here.
			lsns := make([]wal.LSN, 0, ls.Len())
			for _, r := range storedRecords(ls) {
				lsns = append(lsns, r.LSN)
			}
			slices.Sort(lsns)
			if err := ls.TruncateBefore(c, lsns[len(lsns)-keeps[0]]); err != nil {
				t.Fatal(err)
			}
			if ls.Len() != keeps[0] {
				t.Fatalf("round %d: truncated to keep %d, %d left", round, keeps[0], ls.Len())
			}
			keeps = keeps[1:]
		case rng.Intn(8) == 0:
			if err := ls.TruncateBefore(c, ls.Floor()+wal.LSN(rng.Intn(12))); err != nil {
				t.Fatal(err)
			}
		default:
			// A batch of fresh LSNs, shuffled, plus a redelivered old one.
			batch := []wal.Record{{LSN: wal.LSN(1 + rng.Intn(int(next)))}}
			for n := 1 + rng.Intn(32); n > 0; n-- {
				batch = append(batch, wal.Record{LSN: next})
				next++
			}
			rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
			for i := range batch {
				batch[i].Type = types[rng.Intn(len(types))]
				batch[i].PageID = uint64(rng.Intn(4))
			}
			if err := ls.Append(c, batch); err != nil {
				t.Fatal(err)
			}
		}
		most = max(most, ls.Len())
		floor := ls.Floor()
		after := floor - 1 + wal.LSN(rng.Intn(int(next-floor)+2))
		all := storedRecords(ls)
		for pg := uint64(0); pg < 4; pg++ {
			var want []wal.LSN
			for _, r := range all {
				if r.LSN > after && r.PageID == pg && r.Type != wal.TypeCommit && r.Type != wal.TypeAbort {
					want = append(want, r.LSN)
				}
			}
			recs, err := ls.SincePage(c, pg, after)
			if err != nil {
				t.Fatal(err)
			}
			var got []wal.LSN
			for _, r := range recs {
				got = append(got, r.LSN)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("round %d: SincePage(%d, %d) = LSNs %v, scan says %v (floor %d)", round, pg, after, got, want, floor)
			}
		}
	}
	if most < 3*seg {
		t.Fatalf("the store held at most %d records, under three segments", most)
	}
	// The truncations above raised the floor well past 1.
	if _, err := ls.SincePage(c, 0, 0); !errors.Is(err, wal.ErrTruncated) {
		t.Fatalf("SincePage(0, 0) below floor %d: err %v, want ErrTruncated", ls.Floor(), err)
	}
}
