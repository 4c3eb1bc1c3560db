package rdma

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"

	"github.com/disagglab/disagg/internal/sim"
)

func TestMemoryReadWriteRoundTrip(t *testing.T) {
	m := NewMemory(128)
	data := []byte("disaggregated databases")
	if err := m.Write(5, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := m.Read(5, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip = %q, want %q", got, data)
	}
}

func TestMemoryRoundTripProperty(t *testing.T) {
	m := NewMemory(4096)
	f := func(off uint16, payload []byte) bool {
		addr := uint64(off) % 2048
		if len(payload) > 2048 {
			payload = payload[:2048]
		}
		if err := m.Write(addr, payload); err != nil {
			return false
		}
		got := make([]byte, len(payload))
		if err := m.Read(addr, got); err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryBounds(t *testing.T) {
	m := NewMemory(64)
	if err := m.Write(60, make([]byte, 8)); err == nil {
		t.Fatal("write past end should fail")
	}
	if err := m.Read(65, make([]byte, 1)); err == nil {
		t.Fatal("read past end should fail")
	}
	if err := m.Write(0, make([]byte, 64)); err != nil {
		t.Fatalf("full-region write failed: %v", err)
	}
	var oob *ErrOutOfBounds
	err := m.Read(100, make([]byte, 4))
	if !errorsAs(err, &oob) {
		t.Fatalf("error type = %T, want *ErrOutOfBounds", err)
	}
}

func errorsAs(err error, target **ErrOutOfBounds) bool {
	if e, ok := err.(*ErrOutOfBounds); ok {
		*target = e
		return true
	}
	return false
}

func TestMemoryAtomicAlignment(t *testing.T) {
	m := NewMemory(64)
	if _, err := m.Load64(3); err == nil {
		t.Fatal("unaligned Load64 should fail")
	}
	if err := m.Store64(8, 42); err != nil {
		t.Fatal(err)
	}
	v, err := m.Load64(8)
	if err != nil || v != 42 {
		t.Fatalf("Load64 = %d, %v", v, err)
	}
}

func TestMemoryCAS(t *testing.T) {
	m := NewMemory(64)
	m.Store64(0, 10)
	ok, err := m.CAS64(0, 10, 20)
	if err != nil || !ok {
		t.Fatalf("CAS(10->20) = %v, %v", ok, err)
	}
	ok, _ = m.CAS64(0, 10, 30)
	if ok {
		t.Fatal("stale CAS succeeded")
	}
	v, _ := m.Load64(0)
	if v != 20 {
		t.Fatalf("value = %d, want 20", v)
	}
}

func TestMemoryAdd64Concurrent(t *testing.T) {
	m := NewMemory(8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Add64(0, 1)
			}
		}()
	}
	wg.Wait()
	v, _ := m.Load64(0)
	if v != 8000 {
		t.Fatalf("counter = %d, want 8000", v)
	}
}

func TestMemoryAdjacentUnalignedWritesDoNotClobber(t *testing.T) {
	// Two writers share word 0: bytes [0,4) and [4,8).
	m := NewMemory(8)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			m.Write(0, []byte{1, 1, 1, 1})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			m.Write(4, []byte{2, 2, 2, 2})
		}
	}()
	wg.Wait()
	got := make([]byte, 8)
	m.Read(0, got)
	if !bytes.Equal(got, []byte{1, 1, 1, 1, 2, 2, 2, 2}) {
		t.Fatalf("adjacent writes clobbered: %v", got)
	}
}

func newTestNode(pm bool) (*sim.Config, *Node) {
	cfg := sim.DefaultConfig()
	var n *Node
	if pm {
		n = NewPMNode(cfg, "pm0", 1<<16)
	} else {
		n = NewNode(cfg, "mem0", 1<<16)
	}
	return cfg, n
}

func TestQPReadWriteChargesLatency(t *testing.T) {
	cfg, n := newTestNode(false)
	qp := Connect(cfg, n, nil)
	c := sim.NewClock()
	data := make([]byte, 256)
	if err := qp.Write(c, 0, data); err != nil {
		t.Fatal(err)
	}
	want := cfg.RDMA.Cost(256)
	if c.Now() != want {
		t.Fatalf("write charged %v, want %v", c.Now(), want)
	}
	before := c.Now()
	if err := qp.Read(c, 0, data); err != nil {
		t.Fatal(err)
	}
	if c.Now()-before != cfg.RDMA.Cost(256) {
		t.Fatalf("read charged %v", c.Now()-before)
	}
}

func TestQPStats(t *testing.T) {
	cfg, n := newTestNode(false)
	var st Stats
	qp := Connect(cfg, n, &st)
	c := sim.NewClock()
	qp.Write(c, 0, make([]byte, 100))
	qp.Read(c, 0, make([]byte, 50))
	qp.CAS(c, 0, 999, 1) // fails: word is not 999
	if st.Ops.Load() != 3 {
		t.Fatalf("ops = %d", st.Ops.Load())
	}
	if st.BytesOut.Load() != 108 || st.BytesIn.Load() != 50 {
		t.Fatalf("bytes = %d/%d", st.BytesOut.Load(), st.BytesIn.Load())
	}
	if st.CASFail.Load() != 1 {
		t.Fatalf("cas failures = %d", st.CASFail.Load())
	}
	if st.TotalBytes() != 158 {
		t.Fatalf("total = %d", st.TotalBytes())
	}
	st.Reset()
	if st.TotalBytes() != 0 {
		t.Fatal("reset failed")
	}
}

func TestPMWriteIsNotPersistentUntilFlush(t *testing.T) {
	cfg, n := newTestNode(true)
	qp := Connect(cfg, n, nil)
	c := sim.NewClock()
	if err := qp.Write(c, 0, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	if n.PendingPersist() != 512 {
		t.Fatalf("pending = %d, want 512 (write must not persist)", n.PendingPersist())
	}
	// A flushing read drains the pending bytes.
	if _, err := qp.Load64(c, 0); err != nil {
		t.Fatal(err)
	}
	if n.PendingPersist() != 0 {
		t.Fatalf("pending after flush read = %d", n.PendingPersist())
	}
	_ = cfg
}

func TestWritePersistCostsTwoRoundTrips(t *testing.T) {
	cfg, n := newTestNode(true)
	qp := Connect(cfg, n, nil)
	c := sim.NewClock()
	if err := qp.WritePersist(c, 0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if n.PendingPersist() != 0 {
		t.Fatal("WritePersist left pending bytes")
	}
	if c.Now() < 2*cfg.RDMA.Base {
		t.Fatalf("WritePersist charged %v, want >= two round trips (%v)", c.Now(), 2*cfg.RDMA.Base)
	}
}

func TestKaliaOrdering(t *testing.T) {
	// §2.3 (Kalia et al.): unsafe write < RPC persist < write+flush-read.
	cfg, n := newTestNode(true)
	payload := make([]byte, 128)

	unsafeC := sim.NewClock()
	Connect(cfg, n, nil).Write(unsafeC, 0, payload)
	n.pending.Store(0)

	rpcC := sim.NewClock()
	Connect(cfg, n, nil).CallPersist(rpcC, 0, payload)

	onesidedC := sim.NewClock()
	Connect(cfg, n, nil).WritePersist(onesidedC, 0, payload)

	if !(unsafeC.Now() < rpcC.Now()) {
		t.Fatalf("unsafe (%v) should be cheaper than RPC persist (%v)", unsafeC.Now(), rpcC.Now())
	}
	if !(rpcC.Now() < onesidedC.Now()) {
		t.Fatalf("RPC persist (%v) should beat one-sided write+flush (%v)", rpcC.Now(), onesidedC.Now())
	}
}

func TestQPCall(t *testing.T) {
	cfg, n := newTestNode(false)
	n.Handle("echo", func(c *sim.Clock, req []byte) []byte {
		return append([]byte("re:"), req...)
	})
	qp := Connect(cfg, n, nil)
	c := sim.NewClock()
	resp, err := qp.Call(c, "echo", []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "re:hi" {
		t.Fatalf("resp = %q", resp)
	}
	if c.Now() < cfg.RDMARPC.Base+cfg.RemoteCPU {
		t.Fatalf("RPC charged %v, too cheap", c.Now())
	}
	if _, err := qp.Call(c, "missing", nil); err == nil {
		t.Fatal("missing handler should error")
	}
}

func TestWriteBatchCheaperThanIndividual(t *testing.T) {
	cfg, n := newTestNode(false)
	ops := make([]WriteOp, 8)
	for i := range ops {
		ops[i] = WriteOp{Addr: uint64(i * 64), Data: make([]byte, 64)}
	}
	batchC := sim.NewClock()
	if err := Connect(cfg, n, nil).WriteBatch(batchC, ops); err != nil {
		t.Fatal(err)
	}
	indivC := sim.NewClock()
	qp := Connect(cfg, n, nil)
	for _, op := range ops {
		qp.Write(indivC, op.Addr, op.Data)
	}
	if !(batchC.Now() < indivC.Now()/4) {
		t.Fatalf("doorbell batch (%v) should be ≪ individual writes (%v)", batchC.Now(), indivC.Now())
	}
	if err := Connect(cfg, n, nil).WriteBatch(sim.NewClock(), nil); err != nil {
		t.Fatal("empty batch should be a no-op")
	}
}

func TestNodeFailureSemantics(t *testing.T) {
	cfg, dram := newTestNode(false)
	qp := Connect(cfg, dram, nil)
	c := sim.NewClock()
	qp.Write(c, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	dram.Fail()
	if err := qp.Read(c, 0, make([]byte, 8)); err != ErrNodeFailed {
		t.Fatalf("read on failed node: %v", err)
	}
	if _, err := qp.CAS(c, 0, 0, 1); err != ErrNodeFailed {
		t.Fatalf("cas on failed node: %v", err)
	}
	dram.Restart()
	got := make([]byte, 8)
	qp.Read(c, 0, got)
	if !bytes.Equal(got, make([]byte, 8)) {
		t.Fatalf("DRAM survived crash: %v", got)
	}

	_, pm := newTestNode(true)
	qpm := Connect(cfg, pm, nil)
	qpm.WritePersist(c, 0, []byte{9, 9, 9, 9, 9, 9, 9, 9})
	pm.Fail()
	pm.Restart()
	qpm.Read(c, 0, got)
	if !bytes.Equal(got, []byte{9, 9, 9, 9, 9, 9, 9, 9}) {
		t.Fatalf("PM lost persisted data across crash: %v", got)
	}
}

func TestConcurrentQPsContendOnNIC(t *testing.T) {
	cfg, n := newTestNode(false)
	// One worker alone:
	solo := sim.RunGroup(1, func(id int, c *sim.Clock) int {
		qp := Connect(cfg, n, nil)
		for i := 0; i < 200; i++ {
			qp.Read(c, 0, make([]byte, 4096))
		}
		return 200
	})
	// Heavy oversubscription of the same NIC:
	crowd := sim.RunGroup(64, func(id int, c *sim.Clock) int {
		qp := Connect(cfg, n, nil)
		for i := 0; i < 200; i++ {
			qp.Read(c, 0, make([]byte, 4096))
		}
		return 200
	})
	if !(crowd.MeanLatency() > solo.MeanLatency()) {
		t.Fatalf("no queueing penalty: solo %v vs crowd %v", solo.MeanLatency(), crowd.MeanLatency())
	}
}

func TestPostNMixedVerbsOneDoorbell(t *testing.T) {
	cfg, n := newTestNode(false)
	var st Stats
	qp := Connect(cfg, n, &st)
	c := sim.NewClock()
	if err := qp.Write(c, 64, []byte{7, 7, 7, 7, 7, 7, 7, 7}); err != nil {
		t.Fatal(err)
	}
	st.Reset()
	before := c.Now()

	got := make([]byte, 8)
	verbs := []Verb{
		{Op: OpWrite, Addr: 0, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Op: OpRead, Addr: 0, Data: got},
		{Op: OpFAA, Addr: 32, Add: 5},
		{Op: OpCAS, Addr: 32, Old: 5, New: 9},
		{Op: OpLoad, Addr: 32},
	}
	if err := qp.PostN(c, verbs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("in-batch read saw %v", got)
	}
	if verbs[2].Val != 5 {
		t.Fatalf("FAA result = %d, want 5", verbs[2].Val)
	}
	if !verbs[3].Swapped {
		t.Fatal("CAS should have swapped")
	}
	if verbs[4].Val != 9 {
		t.Fatalf("Load result = %d, want 9", verbs[4].Val)
	}
	if st.Ops.Load() != 1 || st.WQEs.Load() != 5 {
		t.Fatalf("ops/wqes = %d/%d, want 1/5", st.Ops.Load(), st.WQEs.Load())
	}
	// One doorbell: base + summed transfer terms + 4 marginal WQEs.
	want := cfg.RDMA.Cost(8+8+8+8+8) + 4*cfg.RDMAPerWQE
	if c.Now()-before != want {
		t.Fatalf("PostN charged %v, want %v", c.Now()-before, want)
	}
}

func TestPostNSingleVerbCostsSameAsSingleCall(t *testing.T) {
	cfg, n := newTestNode(false)
	p := make([]byte, 256)
	single := sim.NewClock()
	if err := Connect(cfg, n, nil).Write(single, 0, p); err != nil {
		t.Fatal(err)
	}
	batch1 := sim.NewClock()
	if err := Connect(cfg, n, nil).PostN(batch1, []Verb{{Op: OpWrite, Addr: 0, Data: p}}); err != nil {
		t.Fatal(err)
	}
	if single.Now() != batch1.Now() {
		t.Fatalf("batch-of-1 (%v) must cost the same as a single verb (%v)", batch1.Now(), single.Now())
	}
}

func TestPostNInBatchReadFlushesPM(t *testing.T) {
	cfg, n := newTestNode(true)
	qp := Connect(cfg, n, nil)
	c := sim.NewClock()
	verbs := []Verb{
		{Op: OpWrite, Addr: 0, Data: make([]byte, 512)},
		{Op: OpLoad, Addr: 0},
	}
	if err := qp.PostN(c, verbs); err != nil {
		t.Fatal(err)
	}
	if n.PendingPersist() != 0 {
		t.Fatalf("in-batch flushing read left %d pending bytes", n.PendingPersist())
	}
	_ = cfg
}

// failAt fails a node from inside the fault decision of one site: the point
// of post after its liveness check and before it touches memory.
type failAt struct {
	site string
	node *Node
}

func (f failAt) Inject(_ *sim.Clock, site string) sim.FaultOutcome {
	if site == f.site {
		f.node.Fail()
	}
	return sim.FaultOutcome{}
}

// Regression (remotecache TestConcurrentGetsSurviveReclaim's "returned wrong
// bytes during reclaim"): Node.Fail sets the flag and then wipes memory, and
// post checked the flag once, at the top — a verb overlapping the failure
// completed with a nil error over wiped memory. It must return what was
// written or ErrNodeFailed, as must a two-sided call whose handler ran on the
// wiped memory.
func TestVerbOverlappingNodeFailCompletesInError(t *testing.T) {
	want := []byte{1, 2, 3, 4}
	cfg, node := newTestNode(false)
	qp := Connect(cfg, node, nil)
	c := sim.NewClock()
	if err := qp.Write(c, 0, want); err != nil {
		t.Fatal(err)
	}
	cfg.Fault = failAt{"rdma.read", node}
	got := make([]byte, len(want))
	if err := qp.Read(c, 0, got); err == nil && !bytes.Equal(got, want) {
		t.Fatalf("READ that overlapped Node.Fail returned nil error and wiped bytes %x", got)
	} else if err != nil && err != ErrNodeFailed {
		t.Fatalf("READ that overlapped Node.Fail: %v, want ErrNodeFailed", err)
	}

	cfg, node = newTestNode(false)
	qp = Connect(cfg, node, nil)
	node.Handle("peek", func(_ *sim.Clock, _ []byte) []byte {
		b := make([]byte, len(want))
		node.Mem.Read(0, b)
		return b
	})
	if err := qp.Write(c, 0, want); err != nil {
		t.Fatal(err)
	}
	cfg.Fault = failAt{"rdma.call", node}
	if resp, err := qp.Call(c, "peek", nil); err == nil && !bytes.Equal(resp, want) {
		t.Fatalf("call that overlapped Node.Fail returned nil error and wiped bytes %x", resp)
	}
	node.Restart()
	if err := qp.CallPersist(c, 0, want); err != ErrNodeFailed {
		t.Fatalf("persist call that overlapped Node.Fail: %v, want ErrNodeFailed", err)
	}
}
