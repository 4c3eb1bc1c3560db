package device

import (
	"bytes"
	"testing"

	"github.com/disagglab/disagg/internal/sim"
)

func TestDRAMAccessCharges(t *testing.T) {
	cfg := sim.DefaultConfig()
	d := NewDRAM(cfg, 4)
	c := sim.NewClock()
	d.Access(c, 64)
	if c.Now() != cfg.DRAM.Cost(64) {
		t.Fatalf("charged %v, want %v", c.Now(), cfg.DRAM.Cost(64))
	}
}

func TestPMLegacyStackOverhead(t *testing.T) {
	cfg := sim.DefaultConfig()
	direct := NewPM(cfg, 4, false)
	legacy := NewPM(cfg, 4, true)
	dc, lc := sim.NewClock(), sim.NewClock()
	direct.Read(dc, 256)
	legacy.Read(lc, 256)
	if lc.Now()-dc.Now() != cfg.LocalPMSyscall {
		t.Fatalf("legacy overhead = %v, want %v", lc.Now()-dc.Now(), cfg.LocalPMSyscall)
	}
	// The Exadata observation (E7): remote PM over RDMA beats the local
	// legacy path.
	remote := cfg.RDMA.Cost(256) + cfg.PMRead.Cost(256)
	if !(remote < lc.Now()) {
		t.Fatalf("remote PM (%v) should beat legacy local PM (%v)", remote, lc.Now())
	}
}

func TestSSDSlowerThanPM(t *testing.T) {
	cfg := sim.DefaultConfig()
	s := NewSSD(cfg, 32)
	p := NewPM(cfg, 4, false)
	sc, pc := sim.NewClock(), sim.NewClock()
	s.Read(sc, 4096)
	p.Read(pc, 4096)
	if !(pc.Now() < sc.Now()/10) {
		t.Fatalf("PM (%v) should be ≫10x faster than SSD (%v)", pc.Now(), sc.Now())
	}
}

func TestObjectStorePutGet(t *testing.T) {
	cfg := sim.DefaultConfig()
	o := NewObjectStore(cfg)
	c := sim.NewClock()
	o.Put(c, "seg/1", []byte("hello object world"))
	got, err := o.Get(c, "seg/1")
	if err != nil || string(got) != "hello object world" {
		t.Fatalf("get = %q, %v", got, err)
	}
	if _, err := o.Get(c, "missing"); err != ErrNoSuchObject {
		t.Fatalf("missing object error = %v", err)
	}
	if o.Len() != 1 || o.TotalBytes() != 18 {
		t.Fatalf("len=%d bytes=%d", o.Len(), o.TotalBytes())
	}
}

// Reads copy out: a caller that writes to what Get returned never changes
// the object.
func TestObjectStoreImmutability(t *testing.T) {
	cfg := sim.DefaultConfig()
	o := NewObjectStore(cfg)
	c := sim.NewClock()
	o.Put(c, "k", []byte{1, 2, 3})
	got, _ := o.Get(c, "k")
	got[1] = 88 // caller mutates the returned buffer
	again, _ := o.Get(c, "k")
	if !bytes.Equal(again, []byte{1, 2, 3}) {
		t.Fatalf("object after writes to read results = %v: a read aliased the stored bytes", again)
	}
}

// tearPuts tears every obj.put and lets everything else through.
type tearPuts struct{}

func (tearPuts) Inject(_ *sim.Clock, site string) sim.FaultOutcome {
	return sim.FaultOutcome{Torn: site == "obj.put"}
}

// Put takes its payload: the object is the caller's slice, not a copy of it,
// and a torn upload keeps a prefix of that same slice.
func TestObjectStorePutTakesItsPayload(t *testing.T) {
	cfg := sim.DefaultConfig()
	o := NewObjectStore(cfg)
	c := sim.NewClock()
	src := []byte{1, 2, 3, 4}
	if err := o.Put(c, "k", src); err != nil {
		t.Fatal(err)
	}
	if held := o.objects["k"]; len(held) != len(src) || &held[0] != &src[0] {
		t.Fatal("Put stored a copy of its payload")
	}
	if allocs := testing.AllocsPerRun(100, func() { o.Put(c, "k", src) }); allocs != 0 {
		t.Fatalf("warm Put allocates %.0f times, want 0", allocs)
	}

	cfg.Fault = tearPuts{}
	torn := []byte{5, 6, 7, 8}
	if err := o.Put(c, "t", torn); err == nil {
		t.Fatal("torn Put reported success")
	}
	if held := o.objects["t"]; len(held) != len(torn)/2 || &held[0] != &torn[0] {
		t.Fatalf("torn Put stored %v, want the first half of the caller's slice", held)
	}
	cfg.Fault = nil
	if got, _ := o.Get(c, "t"); !bytes.Equal(got, []byte{5, 6}) {
		t.Fatalf("torn object = %v, want [5 6]", got)
	}
}

func TestObjectStoreDelete(t *testing.T) {
	cfg := sim.DefaultConfig()
	o := NewObjectStore(cfg)
	c := sim.NewClock()
	o.Put(c, "k", []byte("x"))
	o.Delete(c, "k")
	if _, err := o.Get(c, "k"); err != ErrNoSuchObject {
		t.Fatal("delete did not remove object")
	}
	if len(o.Keys()) != 0 {
		t.Fatal("keys not empty after delete")
	}
}

// An SSD write costs the write model's base plus its bytes at the write
// bandwidth, so a larger write costs more.
func TestSSDWriteCharges(t *testing.T) {
	cfg := sim.DefaultConfig()
	s := NewSSD(cfg, 32)
	small, large := sim.NewClock(), sim.NewClock()
	s.Write(small, 4096)
	s.Write(large, 1<<20)
	if small.Now() != cfg.SSDWrite.Cost(4096) {
		t.Fatalf("4 KiB write charged %v, want %v", small.Now(), cfg.SSDWrite.Cost(4096))
	}
	if !(small.Now() < large.Now()) {
		t.Fatalf("1 MiB write (%v) should cost more than 4 KiB (%v)", large.Now(), small.Now())
	}
}
