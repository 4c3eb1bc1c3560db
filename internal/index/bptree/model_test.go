package bptree

import (
	"testing"

	"github.com/disagglab/disagg/internal/memnode"
	"github.com/disagglab/disagg/internal/rdma"
	"github.com/disagglab/disagg/internal/sim"
)

// TestModelEquivalence runs a long random op sequence against the tree and
// a map model, comparing after every operation (single-client: the tree
// must be sequentially consistent).
func TestModelEquivalence(t *testing.T) {
	for _, opt := range []Options{Sherman(), Naive(), {OptimisticReads: true}, {BatchedWrites: true}} {
		tr := newTree(t, opt)
		cl := tr.Attach(1, nil)
		clk := sim.NewClock()
		model := make(map[uint64]uint64)
		const seed = 1234
		t.Logf("seed=%d", seed)
		r := sim.NewRand(seed, 0)
		for step := 0; step < 4000; step++ {
			k := uint64(r.Int63n(600)) + 1
			if r.Intn(2) == 0 {
				v := uint64(r.Int63())
				if err := cl.Put(clk, k, v); err != nil {
					t.Fatalf("opt %+v step %d put: %v", opt, step, err)
				}
				model[k] = v
			} else {
				got, ok, err := cl.Get(clk, k)
				if err != nil {
					t.Fatalf("opt %+v step %d get: %v", opt, step, err)
				}
				want, wantOK := model[k]
				if ok != wantOK || (ok && got != want) {
					t.Fatalf("opt %+v step %d key %d: tree (%d,%v) model (%d,%v)",
						opt, step, k, got, ok, want, wantOK)
				}
			}
		}
		// Full verification sweep.
		for k, want := range model {
			got, ok, err := cl.Get(clk, k)
			if err != nil || !ok || got != want {
				t.Fatalf("final sweep key %d: (%d,%v,%v) want %d", k, got, ok, err, want)
			}
		}
	}
}

// TestSortedIteration checks the structural B+tree invariant: walking
// leaves via descending key probes returns keys in sorted order with
// correct fences.
func TestFenceInvariants(t *testing.T) {
	tr := newTree(t, Sherman())
	cl := tr.Attach(1, nil)
	clk := sim.NewClock()
	for i := uint64(1); i <= 1000; i++ {
		cl.Put(clk, i*3, i)
	}
	// Every key must live in a leaf whose fences cover it and whose keys
	// are within the fences.
	for i := uint64(1); i <= 1000; i++ {
		key := i * 3
		n, err := cl.descend(clk, key)
		if err != nil {
			t.Fatal(err)
		}
		if !n.covers(key) {
			t.Fatalf("leaf [%d,%d) does not cover key %d", n.low, n.high, key)
		}
		for j := 0; j < n.count; j++ {
			if n.keys[j] < n.low || n.keys[j] >= n.high {
				t.Fatalf("leaf [%d,%d) holds out-of-fence key %d", n.low, n.high, n.keys[j])
			}
			if j > 0 && n.keys[j] <= n.keys[j-1] {
				t.Fatalf("leaf keys unsorted: %v", n.keys[:n.count])
			}
		}
	}
}

func TestMemoryNodeFailurePropagates(t *testing.T) {
	cfg := sim.DefaultConfig()
	pool := memnode.New(cfg, "m0", 1<<20)
	tr, err := New(cfg, pool, Sherman())
	if err != nil {
		t.Fatal(err)
	}
	cl := tr.Attach(1, nil)
	clk := sim.NewClock()
	cl.Put(clk, 1, 1)
	pool.Node().Fail()
	if _, _, err := cl.Get(clk, 1); err == nil {
		t.Fatal("get on failed memory node should error")
	}
	if err := cl.Put(clk, 2, 2); err == nil {
		t.Fatal("put on failed memory node should error")
	}
	// DRAM pool: contents are gone after restart (no fate sharing, but
	// volatility is real — §3.1's reliability challenge). The client
	// detects the wiped structure instead of returning bogus data.
	pool.Node().Restart()
	if _, _, err := cl.Get(clk, 1); err != ErrCorrupt {
		t.Fatalf("get on wiped memory = %v, want ErrCorrupt", err)
	}
	_ = rdma.ErrNodeFailed
}

func TestPoolExhaustionSurfaced(t *testing.T) {
	cfg := sim.DefaultConfig()
	pool := memnode.New(cfg, "tiny", 2*nodeSize)
	tr, err := New(cfg, pool, Sherman())
	if err != nil {
		t.Fatal(err)
	}
	cl := tr.Attach(1, nil)
	clk := sim.NewClock()
	// Fill the single leaf, then the split must fail with OOM.
	var sawErr error
	for i := uint64(1); i <= Fanout+1; i++ {
		if err := cl.Put(clk, i, i); err != nil {
			sawErr = err
			break
		}
	}
	if sawErr == nil {
		t.Fatal("split in an exhausted pool should fail")
	}
}
