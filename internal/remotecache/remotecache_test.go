package remotecache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"github.com/disagglab/disagg/internal/sim"
)

func newCache(t *testing.T, nodes int) *Cache {
	t.Helper()
	c, err := New(sim.DefaultConfig(), DefaultSLO(), nodes, 1<<20, 64)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSetGetRoundTrip(t *testing.T) {
	c := newCache(t, 1)
	qp := c.Connect(nil)
	clk := sim.NewClock()
	val := make([]byte, 64)
	copy(val, "remote cache value")
	if err := c.Set(clk, qp, 42, val); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(clk, qp, 42)
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("get: %q %v", got[:18], err)
	}
	if _, err := c.Get(clk, qp, 43); err != ErrNotFound {
		t.Fatalf("missing key: %v", err)
	}
}

func TestWrongValueSizeRejected(t *testing.T) {
	c := newCache(t, 1)
	qp := c.Connect(nil)
	if err := c.Set(sim.NewClock(), qp, 1, make([]byte, 3)); err == nil {
		t.Fatal("wrong size accepted")
	}
}

func TestRemoteCacheBeatsSSD(t *testing.T) {
	// E15 headline: stranded-memory cache ≪ SSD latency.
	c := newCache(t, 1)
	qp := c.Connect(nil)
	clk := sim.NewClock()
	c.Set(clk, qp, 1, make([]byte, 64))
	g := sim.NewClock()
	if _, err := c.Get(g, qp, 1); err != nil {
		t.Fatal(err)
	}
	if ssd := c.SSDGetCost(); !(g.Now() < ssd/10) {
		t.Fatalf("remote get %v should be ≫10x faster than SSD %v", g.Now(), ssd)
	}
}

func TestReclaimMigratesAndStaysCorrect(t *testing.T) {
	c := newCache(t, 2)
	qp := c.Connect(nil)
	clk := sim.NewClock()
	vals := map[uint64][]byte{}
	for k := uint64(0); k < 100; k++ {
		v := make([]byte, 64)
		binary.LittleEndian.PutUint64(v, k*7)
		vals[k] = v
		if err := c.Set(clk, qp, k, v); err != nil {
			t.Fatal(err)
		}
	}
	moved, err := c.Reclaim(clk)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 100*64 {
		t.Fatalf("moved %d bytes", moved)
	}
	if c.Migrations != 1 {
		t.Fatalf("migrations = %d", c.Migrations)
	}
	// Old QP points at the failed node; reconnect to the new one.
	qp2 := c.Connect(nil)
	for k, want := range vals {
		got, err := c.Get(clk, qp2, k)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("key %d after migration: %v %v", k, got[:8], err)
		}
	}
	// Second reclaim has no standby left.
	if _, err := c.Reclaim(clk); err != ErrNoNodes {
		t.Fatalf("reclaim without standby: %v", err)
	}
}

func TestPointerChaseOffloadOneRoundTrip(t *testing.T) {
	// E15/CompuCache: k-hop chase = 1 RPC offloaded vs k reads direct.
	cfg := sim.DefaultConfig()
	c, err := New(cfg, DefaultSLO(), 1, 1<<20, 64)
	if err != nil {
		t.Fatal(err)
	}
	qp := c.Connect(nil)
	clk := sim.NewClock()
	// Build a chain: key i's value points at key i+1's address.
	const hops = 8
	keys := make([]uint64, hops+1)
	for i := range keys {
		keys[i] = uint64(100 + i)
		c.Set(clk, qp, keys[i], make([]byte, 64))
	}
	for i := 0; i < hops; i++ {
		v := make([]byte, 64)
		binary.LittleEndian.PutUint64(v, c.index[keys[i+1]])
		copy(v[8:], []byte{byte(i)})
		c.Set(clk, qp, keys[i], v)
	}
	direct := sim.NewClock()
	dv, err := c.Chase(direct, qp, keys[0], hops, false)
	if err != nil {
		t.Fatal(err)
	}
	off := sim.NewClock()
	ov, err := c.Chase(off, qp, keys[0], hops, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dv, ov) {
		t.Fatal("offloaded and direct chase disagree")
	}
	if !(off.Now() < direct.Now()/3) {
		t.Fatalf("offloaded chase %v should be ≫ faster than %d direct reads (%v)", off.Now(), hops, direct.Now())
	}
	if direct.Now() < time.Duration(hops)*cfg.RDMA.Base {
		t.Fatalf("direct chase cheaper than %d round trips", hops)
	}
}

// Regression: a Get racing Reclaim used to read the post-migration address
// through the reclaimed node's QP and surface ErrNodeFailed (or wrong
// bytes in the pre-Fail window) even though the value had been migrated
// intact. The client must be redirected to the node the cache moved to.
func TestGetRedirectsAcrossReclaim(t *testing.T) {
	c := newCache(t, 2)
	oldQP := c.Connect(nil)
	clk := sim.NewClock()
	want := make([]byte, 64)
	copy(want, "survives reclamation")
	if err := c.Set(clk, oldQP, 7, want); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reclaim(clk); err != nil {
		t.Fatal(err)
	}
	// The client still holds the pre-migration QP (it has not observed
	// the reclamation). Its Get must chase the migration, not fail.
	rclk := sim.NewClock()
	got, err := c.Get(rclk, oldQP, 7)
	if err != nil {
		t.Fatalf("get through reclaimed node's QP: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("redirected get returned %q", got[:20])
	}
	// The redirect is not free: it pays a placement-chase round trip on
	// top of what a direct get through a fresh QP costs.
	dclk := sim.NewClock()
	if _, err := c.Get(dclk, c.Connect(nil), 7); err != nil {
		t.Fatal(err)
	}
	if !(rclk.Now() > dclk.Now()) {
		t.Fatalf("redirected get (%v) did not pay the chase round trip over a direct get (%v)",
			rclk.Now(), dclk.Now())
	}
}

// The same window in RPC mode: the two-sided path must redirect too.
func TestGetRedirectsAcrossReclaimRPCMode(t *testing.T) {
	c := newCache(t, 2)
	oldQP := c.Connect(nil)
	clk := sim.NewClock()
	want := make([]byte, 64)
	copy(want, "rpc mode value")
	if err := c.Set(clk, oldQP, 9, want); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.mode = ModeRPC
	c.mu.Unlock()
	if _, err := c.Reclaim(clk); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(clk, oldQP, 9)
	if err != nil {
		t.Fatalf("RPC get through reclaimed node's QP: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("redirected RPC get returned %q", got[:14])
	}
}

// Drive the redirect path itself: a Get whose read already failed against
// the old epoch must retry on the new node once the epoch advanced, and
// must return the original error when no migration happened.
func TestRedirectChasesMigrationEpoch(t *testing.T) {
	c := newCache(t, 2)
	qp := c.Connect(nil)
	clk := sim.NewClock()
	want := make([]byte, 64)
	copy(want, "epoch chase")
	if err := c.Set(clk, qp, 3, want); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("read raced the reclaim")
	// No migration: the original error stands.
	if _, err := c.redirect(clk, 3, 0, sentinel); err != sentinel {
		t.Fatalf("redirect without migration: %v", err)
	}
	// Migration advanced the epoch after our (simulated) failed read at
	// epoch 0: the retry lands on the new node.
	if _, err := c.Reclaim(clk); err != nil {
		t.Fatal(err)
	}
	got, err := c.redirect(clk, 3, 0, sentinel)
	if err != nil {
		t.Fatalf("redirect after migration: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("redirect returned %q", got[:11])
	}
}

// Concurrent readers crossing a live Reclaim: every Get must return the
// correct bytes — the migration may cost a chase, never an error or stale
// data. Run with -race.
func TestConcurrentGetsSurviveReclaim(t *testing.T) {
	c := newCache(t, 2)
	setup := sim.NewClock()
	setQP := c.Connect(nil)
	const keys = 16
	vals := make(map[uint64][]byte, keys)
	for k := uint64(0); k < keys; k++ {
		v := make([]byte, 64)
		binary.LittleEndian.PutUint64(v, k*31+1)
		vals[k] = v
		if err := c.Set(setup, setQP, k, v); err != nil {
			t.Fatal(err)
		}
	}
	res := sim.RunGroup(8, func(id int, wc *sim.Clock) int {
		if id == 0 {
			if _, err := c.Reclaim(wc); err != nil {
				t.Errorf("reclaim: %v", err)
			}
			return 1
		}
		qp := c.Connect(nil) // may bind to the soon-reclaimed node
		ops := 0
		for i := 0; i < 200; i++ {
			k := uint64(i % keys)
			got, err := c.Get(wc, qp, k)
			if err != nil {
				t.Errorf("get key %d during reclaim: %v", k, err)
				continue
			}
			if !bytes.Equal(got, vals[k]) {
				t.Errorf("get key %d returned wrong bytes during reclaim", k)
			}
			ops++
		}
		return ops
	})
	if res.TotalOps < 7*200 {
		t.Fatalf("ops = %d", res.TotalOps)
	}
	if c.Migrations != 1 {
		t.Fatalf("migrations = %d", c.Migrations)
	}
}

func TestSLOAdaptsModeUnderCongestion(t *testing.T) {
	c := newCache(t, 1)
	clk := sim.NewClock()
	qp := c.Connect(nil)
	c.Set(clk, qp, 1, make([]byte, 64))
	if c.Mode() != ModeOneSided {
		t.Fatal("should start one-sided")
	}
	// Saturate the node NIC so the congestion signal rises, then issue
	// enough gets to trigger adaptation.
	res := sim.RunGroup(32, func(id int, wc *sim.Clock) int {
		w := c.Connect(nil)
		for i := 0; i < 64; i++ {
			c.Get(wc, w, 1)
		}
		return 64
	})
	if res.TotalOps != 32*64 {
		t.Fatalf("gets = %d", res.TotalOps)
	}
	if c.Mode() != ModeRPC {
		t.Fatalf("mode did not adapt under congestion (queued frac %.2f)",
			c.activePool().Node().NIC.QueuedFraction())
	}
}

// Close hands every stranded node's memory back, the node a Reclaim moved
// the data to as well as the one it left: each region reads as zeros.
func TestCloseReleasesEveryNode(t *testing.T) {
	c := newCache(t, 2)
	qp := c.Connect(nil)
	clk := sim.NewClock()
	val := bytes.Repeat([]byte{9}, 64)
	for key := uint64(0); key < 16; key++ {
		if err := c.Set(clk, qp, key, val); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Reclaim(clk); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Get(clk, c.Connect(nil), 3); err != nil || !bytes.Equal(got, val) {
		t.Fatalf("get after reclaim: %v %v", got, err)
	}
	c.Close()
	got := make([]byte, 16*64)
	for i, p := range c.nodes {
		if err := p.Node().Mem.Read(0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, make([]byte, len(got))) {
			t.Errorf("node %d still holds its data after Close", i)
		}
	}
}
