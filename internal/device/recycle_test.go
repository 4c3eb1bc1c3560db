package device

import (
	"bytes"
	"runtime/debug"
	"testing"

	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/sim"
)

// raceBuild reports whether the test binary was built with -race, where
// page.Release poisons a buffer instead of keeping it for page.Alloc.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// released reports whether b went through page.Release: it is what the next
// page.Alloc of its length returns (taking it off the list again), or, in
// the race build, it is poisoned. Each test uses object lengths of its own,
// so the list holds nothing another test released.
func released(b []byte) bool {
	if raceBuild() {
		return bytes.Equal(b, bytes.Repeat([]byte{0xFF}, len(b)))
	}
	return &page.Alloc(len(b))[0] == &b[0]
}

func object(size int, fill byte) []byte { return bytes.Repeat([]byte{fill}, size) }

func TestObjectStoreDeleteReleasesTheObject(t *testing.T) {
	o, c := NewObjectStore(sim.DefaultConfig()), sim.NewClock()
	obj := object(401, 1)
	o.Put(c, "k", obj)
	if released(obj) {
		t.Fatal("a stored object was released")
	}
	if err := o.Delete(c, "k"); err != nil {
		t.Fatal(err)
	}
	if !released(obj) {
		t.Fatal("Delete did not hand the object's bytes back")
	}
}

func TestObjectStoreOverwriteReleasesTheReplacedObject(t *testing.T) {
	o, c := NewObjectStore(sim.DefaultConfig()), sim.NewClock()
	old, next := object(402, 1), object(402, 2)
	o.Put(c, "k", old)
	o.Put(c, "k", next)
	if !released(old) {
		t.Fatal("an overwriting Put did not hand the replaced bytes back")
	}
	o.Put(c, "k", next) // the same payload again replaces nothing
	if released(next) {
		t.Fatal("Put of the stored payload released it")
	}
	if got, _ := o.Get(c, "k"); !bytes.Equal(got, object(402, 2)) {
		t.Fatal("the object changed after the overwrite")
	}
}

func TestObjectStoreReleaseEmptiesTheStore(t *testing.T) {
	cfg := sim.DefaultConfig()
	o, c := NewObjectStore(cfg), sim.NewClock()
	a, b, torn := object(403, 1), object(404, 2), object(810, 3)
	o.Put(c, "a", a)
	o.Put(c, "b", b)
	cfg.Fault = tearPuts{}
	o.Put(c, "t", torn) // the store keeps its first 405 bytes
	cfg.Fault = nil
	o.Release()
	if o.Len() != 0 || o.TotalBytes() != 0 {
		t.Fatalf("after Release: %d objects, %d bytes; want none", o.Len(), o.TotalBytes())
	}
	for _, obj := range [][]byte{a, b, torn[:405]} {
		if !released(obj) {
			t.Fatalf("Release did not hand back the %d-byte object", len(obj))
		}
	}
	if err := o.Put(c, "a", object(403, 4)); err != nil {
		t.Fatal(err)
	}
	if got, _ := o.Get(c, "a"); !bytes.Equal(got, object(403, 4)) {
		t.Fatal("the store does not take a Put after Release")
	}
}

// dropPuts drops every obj.put.
type dropPuts struct{}

func (dropPuts) Inject(_ *sim.Clock, site string) sim.FaultOutcome {
	return sim.FaultOutcome{Drop: site == "obj.put"}
}

func TestObjectStoreDroppedPutReleasesItsPayload(t *testing.T) {
	cfg := sim.DefaultConfig()
	o, c := NewObjectStore(cfg), sim.NewClock()
	cfg.Fault = dropPuts{}
	obj := object(406, 1)
	if err := o.Put(c, "k", obj); err == nil {
		t.Fatal("a dropped Put reported success")
	}
	if o.Len() != 0 || !released(obj) {
		t.Fatal("a dropped Put kept its payload")
	}
}

// Get's copy is drawn from the page free list, so a copy the caller hands
// back feeds the next read of that length.
func TestObjectStoreGetCopiesIntoAFreeListBuffer(t *testing.T) {
	if raceBuild() {
		t.Skip("the race build recycles nothing")
	}
	o, c := NewObjectStore(sim.DefaultConfig()), sim.NewClock()
	o.Put(c, "k", object(407, 5))
	first, _ := o.Get(c, "k")
	page.Release(first)
	again, _ := o.Get(c, "k")
	if &again[0] != &first[0] || !bytes.Equal(again, object(407, 5)) {
		t.Fatal("Get did not copy into the buffer the last Release handed back")
	}
}
