package storagenode

import (
	"bytes"
	"runtime/debug"
	"testing"

	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/wal"
)

// raceBuild reports whether the test binary was built with -race, where
// page.Alloc recycles nothing (page/free_race.go).
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// A read of a page nobody has logged to formats it blank straight into the
// caller's frame: the replica stores no image of it, and a warm read
// allocates nothing.
func TestReplicaKeepsNoImageOfAnUnloggedPage(t *testing.T) {
	layout := testLayout(t)
	r := NewReplica(sim.DefaultConfig(), "r0", 0, layout, 1)
	c := sim.NewClock()
	for id := page.ID(0); id < 100; id++ {
		data, err := r.ReadPage(c, id, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, layout.FormatPage(id).Bytes()) {
			t.Fatalf("page %d: frame is not the blank formatted page", id)
		}
		page.Release(data)
	}
	if n := len(r.pages); n != 0 {
		t.Fatalf("replica stored %d images of pages it has no record for", n)
	}
	if raceBuild() {
		return // the race build recycles no frame
	}
	id := page.ID(100)
	allocs := testing.AllocsPerRun(100, func() {
		data, err := r.ReadPage(c, id, 0)
		if err != nil {
			t.Fatal(err)
		}
		page.Release(data)
		id++
	})
	if allocs != 0 {
		t.Fatalf("a blank read allocates %v times, want 0", allocs)
	}
}

// A page read blank, then logged to, reads back as the blank format with
// the record applied, and the first read's frame is not written.
func TestReplicaBlankReadThenIngest(t *testing.T) {
	layout := testLayout(t)
	r := NewReplica(sim.DefaultConfig(), "r0", 0, layout, 1)
	c := sim.NewClock()
	id := layout.PageOf(5)
	blank, err := r.ReadPage(c, id, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := updateRec(1, 5, layout, "v1")
	if err := r.Ingest(c, []wal.Record{rec}); err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadPage(c, id, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := layout.FormatPage(id).Bytes()
	if err := layout.WriteValue(want, 5, rec.After, 1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("page read after its first record is not the blank format with the record applied")
	}
	if !bytes.Equal(blank, layout.FormatPage(id).Bytes()) {
		t.Fatal("the first read's frame changed under a later read")
	}
	if _, ok := r.pages[id]; !ok {
		t.Fatal("the replica keeps no image of a page it has a record for")
	}
}

// A replica catching up across a truncated log adopts its peer's images of
// the pages the peer has records for, and none of the pages the peer only
// served blank: those cost no transfer.
func TestCatchUpAdoptsNoImageOfAPageOnlyReadBlank(t *testing.T) {
	cfg := sim.DefaultConfig()
	layout := testLayout(t)
	log := wal.NewLog()
	a := NewReplica(cfg, "a", 0, layout, 1)
	b := NewReplica(cfg, "b", 1, layout, 1)
	c := sim.NewClock()

	var recs []wal.Record
	for _, v := range []string{"v1", "v2", "v3"} {
		rec := updateRec(0, 5, layout, v)
		rec.LSN = log.Append(rec)
		recs = append(recs, rec)
	}
	a.ingest(recs)
	logged := layout.PageOf(5)
	blank := []page.ID{logged + 1, logged + 2, logged + 3}
	for _, id := range blank {
		data, err := a.ReadPage(c, id, 0)
		if err != nil {
			t.Fatal(err)
		}
		page.Release(data)
	}
	a.AdvanceHorizon(c, 3)
	log.TruncateBefore(4)

	start := c.Now()
	n, err := b.CatchUpFrom(c, a, log)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("catch-up adopted %d pages, want 1 (the logged one)", n)
	}
	for _, id := range blank {
		if _, ok := b.pages[id]; ok {
			t.Fatalf("catch-up adopted an image of page %d, which only served blank reads", id)
		}
	}
	if got, want := c.Now()-start, cfg.TCP.Cost(layout.PageSize); got != want {
		t.Fatalf("catch-up charged %v, want %v: the transfer of one page", got, want)
	}
	data, err := b.ReadPage(c, logged, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := layout.ReadValue(data, 5); !bytes.HasPrefix(v, []byte("v3")) {
		t.Fatalf("adopted page holds %q, want v3", v[:4])
	}
}
