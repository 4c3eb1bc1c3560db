// Package device models the individual hardware components of a
// disaggregated data center: DRAM, persistent memory (PM), NVMe SSDs, and
// cloud object storage. Devices charge virtual latency on the caller's
// clock through a shared contention meter; some devices (the object store)
// also hold real data because higher layers store bytes in them.
package device

import (
	"errors"
	"sync"

	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/sim"
)

// DRAM is a local memory device. Accesses are cacheline-ish: a per-access
// base latency plus streaming bandwidth for larger transfers.
type DRAM struct {
	cfg   *sim.Config
	meter *sim.Meter
}

// NewDRAM returns a DRAM device with the given number of channels.
func NewDRAM(cfg *sim.Config, channels int) *DRAM {
	d := &DRAM{cfg: cfg, meter: sim.NewMeter(channels)}
	cfg.Register("dram", d.meter)
	return d
}

// Access charges one memory access of n bytes.
func (d *DRAM) Access(c *sim.Clock, n int) {
	op := d.cfg.Begin(c, "dram.access")
	d.meter.Charge(c, d.cfg.DRAM.Cost(n))
	op.End(int64(n))
}

// PM is a persistent-memory device (Optane-like), read at near-DRAM cost.
// The device tracks whether it is being accessed through a legacy I/O stack
// (per the Exadata observation, §2.3: syscall overheads can dwarf the
// medium).
type PM struct {
	cfg         *sim.Config
	meter       *sim.Meter
	LegacyStack bool
}

// NewPM returns a PM device; legacyStack selects the syscall-mediated
// access path used by experiment E7.
func NewPM(cfg *sim.Config, channels int, legacyStack bool) *PM {
	p := &PM{cfg: cfg, meter: sim.NewMeter(channels), LegacyStack: legacyStack}
	cfg.Register("pm", p.meter)
	return p
}

// Read charges a read of n bytes.
func (p *PM) Read(c *sim.Clock, n int) {
	op := p.cfg.Begin(c, "pm.read")
	p.cfg.Inject(c, "pm.read")
	d := p.cfg.PMRead.Cost(n)
	if p.LegacyStack {
		d += p.cfg.LocalPMSyscall
	}
	p.meter.Charge(c, d)
	op.End(int64(n))
}

// SSD is an NVMe block device.
type SSD struct {
	cfg   *sim.Config
	meter *sim.Meter
}

// NewSSD returns an SSD with the given queue depth.
func NewSSD(cfg *sim.Config, queueDepth int) *SSD {
	s := &SSD{cfg: cfg, meter: sim.NewMeter(queueDepth)}
	cfg.Register("ssd", s.meter)
	return s
}

// Read charges a block read of n bytes. Fault injection can add latency
// spikes (the cost model has no error path; drops are a fabric property).
func (s *SSD) Read(c *sim.Clock, n int) {
	op := s.cfg.Begin(c, "ssd.read")
	s.cfg.Inject(c, "ssd.read")
	s.meter.Charge(c, s.cfg.SSDRead.Cost(n))
	op.End(int64(n))
}

// Write charges a durable block write of n bytes.
func (s *SSD) Write(c *sim.Clock, n int) {
	op := s.cfg.Begin(c, "ssd.write")
	s.cfg.Inject(c, "ssd.write")
	s.meter.Charge(c, s.cfg.SSDWrite.Cost(n))
	op.End(int64(n))
}

// ErrNoSuchObject is returned by ObjectStore.Get for missing keys.
var ErrNoSuchObject = errors.New("device: no such object")

// ObjectStore is an S3/XStore-like durable blob store: very high base
// latency, decent streaming bandwidth, immutable-object semantics (Put takes
// its payload, reads copy out). Unlike
// the pure cost devices above it actually holds the bytes, because
// Snowflake-style engines and the Socrates XStore tier store real data here.
//
// The store owns every object it holds, and nothing outside it aliases one,
// so an object it drops goes back to the page free list (page.Release): the
// bytes Delete removes, the bytes a Put replaces, and every object Release
// empties the store of when its engine retires. A Get's copy comes from
// page.Alloc and is the caller's, who may hand it back the same way.
type ObjectStore struct {
	cfg   *sim.Config
	meter *sim.Meter

	mu      sync.RWMutex
	objects map[string][]byte
}

// NewObjectStore returns an empty object store.
func NewObjectStore(cfg *sim.Config) *ObjectStore {
	o := &ObjectStore{cfg: cfg, meter: sim.NewMeter(64), objects: make(map[string][]byte)}
	cfg.Register("obj", o.meter)
	return o
}

// Put stores an immutable object and charges the upload cost. Under
// fault injection an upload can fail before any bytes land (drop) or tear
// mid-transfer, leaving a truncated object behind — readers must treat
// short objects as torn tails (wal.DecodePrefix-style recovery).
//
// Put takes data: the object holds the caller's slice (a torn one a prefix
// of it), so once Put is called the caller never touches those bytes again.
// A dropped upload releases them, and an object the new one replaces is
// released. Get copies out, so nothing outside the store aliases an object.
func (o *ObjectStore) Put(c *sim.Clock, key string, data []byte) error {
	op := o.cfg.Begin(c, "obj.put")
	f := o.cfg.Inject(c, "obj.put")
	if f.Drop {
		op.End(0)
		page.Release(data)
		return f.FaultErr()
	}
	if f.Torn {
		data = data[:len(data)/2]
	}
	o.mu.Lock()
	old := o.objects[key]
	o.objects[key] = data
	o.mu.Unlock()
	if len(old) > 0 && (len(data) == 0 || &old[0] != &data[0]) {
		page.Release(old)
	}
	o.meter.Charge(c, o.cfg.ObjPut.Cost(len(data)))
	op.End(int64(len(data)))
	if f.Torn {
		return f.FaultErr()
	}
	return nil
}

// Get fetches an object, charging the download cost. The copy it returns
// comes from page.Alloc and belongs to the caller.
func (o *ObjectStore) Get(c *sim.Clock, key string) ([]byte, error) {
	op := o.cfg.Begin(c, "obj.get")
	if f := o.cfg.Inject(c, "obj.get"); f.Drop || f.Torn {
		op.End(0)
		return nil, f.FaultErr()
	}
	o.mu.RLock()
	data, ok := o.objects[key]
	o.mu.RUnlock()
	if !ok {
		op.End(0)
		return nil, ErrNoSuchObject
	}
	o.meter.Charge(c, o.cfg.ObjGet.Cost(len(data)))
	op.End(int64(len(data)))
	cp := page.Alloc(len(data))
	copy(cp, data)
	return cp, nil
}

// Delete removes an object (metadata op; charged a base put latency).
// Deletion is part of the log-truncation path (segment garbage
// collection), so it is fault-injectable like the other fabric ops: a
// dropped delete leaves the object in place and reports the fault —
// callers retry on the next round (deletion is idempotent). The deleted
// object's bytes go back to the page free list.
func (o *ObjectStore) Delete(c *sim.Clock, key string) error {
	op := o.cfg.Begin(c, "obj.delete")
	if f := o.cfg.Inject(c, "obj.delete"); f.Drop || f.Torn {
		op.End(0)
		return f.FaultErr()
	}
	o.mu.Lock()
	old := o.objects[key]
	delete(o.objects, key)
	o.mu.Unlock()
	page.Release(old)
	o.meter.Charge(c, o.cfg.ObjPut.Base)
	op.End(0)
	return nil
}

// Release empties the store and hands every object's bytes to the page
// free list. It is the retirement of an engine that built the store for
// itself: it costs no virtual time, and nothing may read the store's old
// objects afterwards (a later Put starts it afresh).
func (o *ObjectStore) Release() {
	o.mu.Lock()
	objects := o.objects
	o.objects = make(map[string][]byte)
	o.mu.Unlock()
	for _, data := range objects {
		page.Release(data)
	}
}

// Len reports the number of stored objects.
func (o *ObjectStore) Len() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return len(o.objects)
}

// Keys returns a snapshot of the stored keys (test/inspection helper).
func (o *ObjectStore) Keys() []string {
	o.mu.RLock()
	defer o.mu.RUnlock()
	ks := make([]string, 0, len(o.objects))
	for k := range o.objects {
		ks = append(ks, k)
	}
	return ks
}

// TotalBytes reports the total stored payload size.
func (o *ObjectStore) TotalBytes() int64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	var n int64
	for _, v := range o.objects {
		n += int64(len(v))
	}
	return n
}
