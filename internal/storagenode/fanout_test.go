package storagenode

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/wal"
)

// appendLogged reserves LSNs for n updates of keys 0..n-1 in log and
// returns them.
func appendLogged(log *wal.Log, layout heap.Layout, n int, val string) []wal.Record {
	recs := make([]wal.Record, n)
	for i := range recs {
		recs[i] = updateRec(0, uint64(i), layout, val)
		recs[i].LSN = log.Append(recs[i])
	}
	return recs
}

// A replica that was down during an append misses it; Heal ships it the
// records from the log once it is back, and nothing to the replicas that
// already hold them.
func TestVolumeHealCatchesUpFromTheLog(t *testing.T) {
	cfg := sim.DefaultConfig()
	layout := testLayout(t)
	log := wal.NewLog()
	v := NewAuroraVolume(cfg, layout)
	c := sim.NewClock()
	v.Replicas[1].Fail()
	if err := v.AppendLog(c, appendLogged(log, layout, 3, "h")); err != nil {
		t.Fatal(err)
	}
	v.Replicas[1].Restart()
	if n := v.Heal(c, log); n != 3 {
		t.Fatalf("heal shipped %d records, want the 3 the restarted replica missed", n)
	}
	for i, r := range v.Replicas {
		if r.PrefixLSN() != 3 {
			t.Fatalf("replica %d prefix = %d, want 3", i, r.PrefixLSN())
		}
	}
	data, err := v.Replicas[1].ReadPage(c, layout.PageOf(2), 3)
	if err != nil {
		t.Fatal(err)
	}
	if val, _ := layout.ReadValue(data, 2); !bytes.HasPrefix(val, []byte("h")) {
		t.Fatalf("healed replica serves %q for key 2", val[:1])
	}
	if n := v.Heal(c, log); n != 0 {
		t.Fatalf("second heal shipped %d records, want 0", n)
	}
}

// Heal leaves a failed replica alone.
func TestVolumeHealSkipsFailedReplicas(t *testing.T) {
	cfg := sim.DefaultConfig()
	layout := testLayout(t)
	log := wal.NewLog()
	v := NewAuroraVolume(cfg, layout)
	c := sim.NewClock()
	v.Replicas[4].Fail()
	if err := v.AppendLog(c, appendLogged(log, layout, 2, "x")); err != nil {
		t.Fatal(err)
	}
	if n := v.Heal(c, log); n != 0 || v.Replicas[4].HighLSN() != 0 {
		t.Fatalf("heal shipped %d records, failed replica at LSN %d; want 0 and 0", n, v.Replicas[4].HighLSN())
	}
}

// Converge's horizon reaches every alive replica of a volume, materializing
// what they hold below it, and skips failed ones.
func TestVolumeAdvanceHorizonSkipsFailedReplicas(t *testing.T) {
	cfg := sim.DefaultConfig()
	layout := testLayout(t)
	log := wal.NewLog()
	v := NewAuroraVolume(cfg, layout)
	c := sim.NewClock()
	if err := v.AppendLog(c, appendLogged(log, layout, 4, "a")); err != nil {
		t.Fatal(err)
	}
	v.Replicas[0].Fail()
	v.Replicas[3].Fail()
	if n, _ := Converge(c, v.Replicas, nil, 4); n != 4 {
		t.Fatalf("advanced %d replicas, want the 4 alive", n)
	}
	for i, r := range v.Replicas {
		want := wal.LSN(4)
		if r.Failed() {
			want = 0
		}
		if r.Horizon() != want {
			t.Fatalf("replica %d horizon = %d, want %d", i, r.Horizon(), want)
		}
		if !r.Failed() && r.PendingRecords() != 0 {
			t.Fatalf("replica %d kept %d records pending below its horizon", i, r.PendingRecords())
		}
	}
}

// A horizon at or below the adopted one changes nothing.
func TestReplicaAdvanceHorizonIsMonotonic(t *testing.T) {
	cfg := sim.DefaultConfig()
	layout := testLayout(t)
	r := NewReplica(cfg, "r0", 0, layout, 1)
	c := sim.NewClock()
	if err := r.Ingest(c, []wal.Record{updateRec(1, 1, layout, "a"), updateRec(2, 2, layout, "b")}); err != nil {
		t.Fatal(err)
	}
	r.AdvanceHorizon(c, 2)
	r.AdvanceHorizon(c, 1)
	if r.Horizon() != 2 || r.PrefixLSN() != 2 {
		t.Fatalf("after a stale horizon: horizon %d, prefix %d; want 2, 2", r.Horizon(), r.PrefixLSN())
	}
}

// WriteToOne skips failed stores, and with every store down it fails.
func TestPageStoreGroupWriteToOneSkipsFailedStores(t *testing.T) {
	cfg := sim.DefaultConfig()
	layout := testLayout(t)
	log := wal.NewLog()
	g := NewPageStoreGroup(cfg, 3, layout, log)
	c := sim.NewClock()
	g.Stores[0].Fail()
	g.Stores[1].Fail()
	for _, rec := range appendLogged(log, layout, 3, "w") {
		if err := g.WriteToOne(c, []wal.Record{rec}); err != nil {
			t.Fatal(err)
		}
	}
	if g.Stores[2].HighLSN() != 3 {
		t.Fatalf("the alive store holds LSN %d, want all 3 writes", g.Stores[2].HighLSN())
	}
	g.Stores[2].Fail()
	if err := g.WriteToOne(c, appendLogged(log, layout, 1, "w")); err != ErrNoQuorum {
		t.Fatalf("write with every store down: err = %v, want ErrNoQuorum", err)
	}
}

// Converge's horizon reaches a page-store group's alive stores only.
func TestPageStoreGroupAdvanceHorizonSkipsFailedStores(t *testing.T) {
	cfg := sim.DefaultConfig()
	layout := testLayout(t)
	log := wal.NewLog()
	g := NewPageStoreGroup(cfg, 3, layout, log)
	c := sim.NewClock()
	for _, s := range g.Stores {
		if err := s.Ingest(c, appendLogged(log, layout, 1, "p")); err != nil {
			t.Fatal(err)
		}
	}
	g.Stores[1].Fail()
	if n, _ := Converge(c, g.Stores, nil, 1); n != 2 {
		t.Fatalf("advanced %d stores, want 2", n)
	}
	if g.Stores[0].Horizon() != 1 || g.Stores[1].Horizon() != 0 || g.Stores[2].Horizon() != 1 {
		t.Fatalf("horizons %d/%d/%d, want 1/0/1", g.Stores[0].Horizon(), g.Stores[1].Horizon(), g.Stores[2].Horizon())
	}
}

// TruncateBefore drops the records below the horizon and raises the
// floor; a stale horizon is a no-op.
func TestLogStoreTruncateIsMonotonic(t *testing.T) {
	cfg := sim.DefaultConfig()
	layout := testLayout(t)
	ls := NewLogStore(cfg, MediumSSD)
	c := sim.NewClock()
	if ls.Floor() != 1 {
		t.Fatalf("fresh floor = %d, want 1", ls.Floor())
	}
	recs := appendLogged(wal.NewLog(), layout, 5, "t")
	if err := ls.Append(c, recs); err != nil {
		t.Fatal(err)
	}
	if err := ls.TruncateBefore(c, 4); err != nil {
		t.Fatal(err)
	}
	if ls.Floor() != 4 || ls.Len() != 2 {
		t.Fatalf("after truncating below 4: floor %d, %d records; want 4, 2", ls.Floor(), ls.Len())
	}
	if err := ls.TruncateBefore(c, 2); err != nil {
		t.Fatal(err)
	}
	if ls.Floor() != 4 || ls.Len() != 2 {
		t.Fatalf("after a stale horizon: floor %d, %d records; want 4, 2", ls.Floor(), ls.Len())
	}
	if _, err := ls.SincePage(c, recs[0].PageID, 1); !errors.Is(err, wal.ErrTruncated) {
		t.Fatalf("read below the floor: err = %v, want wal.ErrTruncated", err)
	}
}

// A late redelivery of a record below the truncation floor is absorbed as
// a duplicate is: the truncation discarded it for good, and nothing below
// the floor is served again.
func TestLogStoreAbsorbsRedeliveryBelowFloor(t *testing.T) {
	layout := testLayout(t)
	ls := NewLogStore(sim.DefaultConfig(), MediumSSD)
	c := sim.NewClock()
	recs := appendLogged(wal.NewLog(), layout, 10, "r")
	if err := ls.Append(c, recs); err != nil {
		t.Fatal(err)
	}
	if err := ls.TruncateBefore(c, 6); err != nil {
		t.Fatal(err)
	}
	if ls.Len() != 5 {
		t.Fatalf("after truncating below 6: %d records, want 5", ls.Len())
	}
	if err := ls.Append(c, recs[2:3]); err != nil { // LSN 3 again
		t.Fatal(err)
	}
	if ls.Len() != 5 {
		t.Fatalf("a redelivered LSN 3 below floor %d was stored again: %d records, want 5", ls.Floor(), ls.Len())
	}
	got, err := ls.SincePage(c, recs[2].PageID, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if r.LSN < 6 {
			t.Fatalf("SincePage(%d, 5) served LSN %d below floor 6", recs[2].PageID, r.LSN)
		}
	}
}

// tearNext tears the next operation at site and lets every other through.
type tearNext struct{ site string }

func (f *tearNext) Inject(_ *sim.Clock, site string) sim.FaultOutcome {
	if site != f.site {
		return sim.FaultOutcome{}
	}
	f.site = ""
	return sim.FaultOutcome{Torn: true}
}

// A torn append's writer sees it fail, so the prefix that landed is held
// undecided: no read, high LSN or length sees it, and a truncation past it
// forgets it.
func TestLogStoreHoldsATornPrefixUndecided(t *testing.T) {
	layout := testLayout(t)
	cfg := sim.DefaultConfig()
	ls := NewLogStore(cfg, MediumSSD)
	c := sim.NewClock()
	log := wal.NewLog()
	if err := ls.Append(c, appendLogged(log, layout, 2, "a")); err != nil {
		t.Fatal(err)
	}
	cfg.Fault = &tearNext{site: "logstore.append"}
	torn := appendLogged(log, layout, 4, "torn") // LSNs 3-6; 3 and 4 land
	if err := ls.Append(c, torn); err == nil {
		t.Fatal("a torn append succeeded")
	}
	if ls.HighLSN() != 2 || ls.Len() != 2 {
		t.Fatalf("after a torn append: high %d, %d records; want 2, 2", ls.HighLSN(), ls.Len())
	}
	for _, rec := range torn[:2] {
		got, err := ls.SincePage(c, rec.PageID, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range got {
			if r.LSN > 2 {
				t.Fatalf("SincePage(%d, 0) served LSN %d of the torn append", rec.PageID, r.LSN)
			}
		}
	}
	ls.mu.Lock()
	held := len(ls.led.undecided)
	ls.mu.Unlock()
	if held != 2 {
		t.Fatalf("%d records held undecided, want the torn prefix's 2", held)
	}
	if err := ls.TruncateBefore(c, 5); err != nil {
		t.Fatal(err)
	}
	ls.mu.Lock()
	held = len(ls.led.undecided)
	ls.mu.Unlock()
	if held != 0 || ls.Len() != 0 {
		t.Fatalf("after truncating past the torn prefix: %d undecided, %d records; want 0, 0", held, ls.Len())
	}
}

// A failed store refuses truncation and keeps its records.
func TestLogStoreTruncateOnFailedStore(t *testing.T) {
	cfg := sim.DefaultConfig()
	layout := testLayout(t)
	ls := NewLogStore(cfg, MediumPM)
	c := sim.NewClock()
	if err := ls.Append(c, appendLogged(wal.NewLog(), layout, 3, "f")); err != nil {
		t.Fatal(err)
	}
	ls.Fail()
	if err := ls.TruncateBefore(c, 3); err != ErrReplicaDown {
		t.Fatalf("truncate on a failed store: err = %v, want ErrReplicaDown", err)
	}
	ls.Restart()
	if ls.Floor() != 1 || ls.Len() != 3 {
		t.Fatalf("floor %d, %d records; want 1, 3", ls.Floor(), ls.Len())
	}
}

// A store decides the records it holds by LSN, not by their order in the
// batch: a whole append out of LSN order stores every record, in the order
// it arrived.
func TestLogStoreAppendStoresABatchOutOfLSNOrder(t *testing.T) {
	ls := NewLogStore(sim.DefaultConfig(), MediumSSD)
	batch := []wal.Record{{LSN: 4}, {LSN: 1}, {LSN: 3}, {LSN: 5}, {LSN: 2}}
	if err := ls.Append(sim.NewClock(), batch); err != nil {
		t.Fatal(err)
	}
	var got []wal.LSN
	for _, r := range storedRecords(ls) {
		got = append(got, r.LSN)
	}
	if want := []wal.LSN{4, 1, 3, 5, 2}; !slices.Equal(got, want) || ls.HighLSN() != 5 {
		t.Fatalf("stored LSNs %v, high %d; want %v, 5", got, ls.HighLSN(), want)
	}
}

// An append refused by a failed store still closes its span: the next
// operation on the clock is a sibling root, not a child of the refused
// append, and the registry counts the append.
func TestLogStoreAppendOnFailedStoreClosesItsSpan(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Stats = sim.NewRegistry()
	ls := NewLogStore(cfg, MediumSSD)
	tr := sim.NewTrace("append")
	c := sim.NewClock()
	c.SetTrace(tr)
	ls.Fail()
	if err := ls.Append(c, appendLogged(wal.NewLog(), testLayout(t), 1, "x")); err != ErrReplicaDown {
		t.Fatalf("append on a failed store: err = %v, want ErrReplicaDown", err)
	}
	cfg.Begin(c, "next").End(0)
	if roots := tr.Roots(); len(roots) != 2 || roots[1].Site != "next" || len(roots[0].Children) != 0 {
		t.Fatalf("trace after a refused append:\n%s\nwant two childless roots, logstore.append then next", tr)
	}
	if st := cfg.Stats.Site("logstore.append"); st == nil || st.Hist.Count() != 1 {
		t.Fatal("the registry did not count the refused logstore.append once")
	}
}

// The group's truncation reaches every alive store and succeeds while any
// store took it; the group floor is the highest store floor.
func TestLogStoreGroupTruncateFansOut(t *testing.T) {
	cfg := sim.DefaultConfig()
	layout := testLayout(t)
	g := NewLogStoreGroup(cfg, 3, 2, MediumSSD)
	c := sim.NewClock()
	if err := g.Append(c, appendLogged(wal.NewLog(), layout, 6, "g")); err != nil {
		t.Fatal(err)
	}
	g.Stores[2].Fail()
	if err := g.TruncateBefore(c, 3); err != nil {
		t.Fatal(err)
	}
	if c.Now() == 0 {
		t.Fatal("truncation charged nothing")
	}
	for i, want := range []wal.LSN{3, 3, 1} {
		if f := g.Stores[i].Floor(); f != want {
			t.Fatalf("store %d floor = %d, want %d", i, f, want)
		}
	}
	if g.Floor() != 3 {
		t.Fatalf("group floor = %d, want 3", g.Floor())
	}
	g.Stores[2].Restart()
	if err := g.Stores[0].TruncateBefore(c, 5); err != nil {
		t.Fatal(err)
	}
	if g.Floor() != 5 {
		t.Fatalf("group floor = %d, want the highest store floor 5", g.Floor())
	}
}

// With every store down the group's truncation fails with the stores'
// error.
func TestLogStoreGroupTruncateWithAllStoresDown(t *testing.T) {
	g := NewLogStoreGroup(sim.DefaultConfig(), 3, 2, MediumPM)
	for _, ls := range g.Stores {
		ls.Fail()
	}
	if err := g.TruncateBefore(sim.NewClock(), 2); err != ErrReplicaDown {
		t.Fatalf("err = %v, want ErrReplicaDown", err)
	}
	if g.Floor() != 1 {
		t.Fatalf("group floor = %d, want 1", g.Floor())
	}
}

// Appenders, page readers and a truncater share one store (run with
// -race): truncations compact the segments and hand emptied ones to the
// appends that follow, and a reader still sees only its page's records,
// each once, none below the floor it read against.
func TestLogStoreConcurrent(t *testing.T) {
	ls := NewLogStore(sim.DefaultConfig(), MediumPM)
	var next atomic.Uint64
	var appenders, others sync.WaitGroup
	var done atomic.Bool
	for a := 0; a < 4; a++ {
		appenders.Add(1)
		go func() {
			defer appenders.Done()
			c := sim.NewClock()
			batch := make([]wal.Record, 8)
			for range 200 {
				for i := range batch {
					lsn := wal.LSN(next.Add(1))
					batch[i] = wal.Record{LSN: lsn, Type: wal.TypeUpdate, PageID: uint64(lsn % 4)}
				}
				if err := ls.Append(c, batch); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	for pg := uint64(0); pg < 2; pg++ {
		others.Add(1)
		go func() {
			defer others.Done()
			c := sim.NewClock()
			for !done.Load() {
				after := ls.Floor() - 1
				recs, err := ls.SincePage(c, pg, after)
				if errors.Is(err, wal.ErrTruncated) {
					continue // a truncation overtook the read
				}
				if err != nil {
					t.Error(err)
					return
				}
				seen := make(map[wal.LSN]bool, len(recs))
				for _, r := range recs {
					if r.PageID != pg || r.LSN <= after || seen[r.LSN] {
						t.Errorf("SincePage(%d, %d) returned LSN %d of page %d (again: %v)", pg, after, r.LSN, r.PageID, seen[r.LSN])
						return
					}
					seen[r.LSN] = true
				}
			}
		}()
	}
	others.Add(1)
	go func() {
		defer others.Done()
		c := sim.NewClock()
		for !done.Load() {
			if head := wal.LSN(next.Load()); head > 600 {
				if err := ls.TruncateBefore(c, head-600); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	appenders.Wait()
	done.Store(true)
	others.Wait()
	if ls.HighLSN() != 6400 || ls.Len() > 6400-int(ls.Floor())+1 {
		t.Fatalf("high LSN %d, %d records above floor %d", ls.HighLSN(), ls.Len(), ls.Floor())
	}
}
