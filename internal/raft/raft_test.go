package raft

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"github.com/disagglab/disagg/internal/sim"
)

func TestAppendCommitsAtMajority(t *testing.T) {
	cfg := sim.DefaultConfig()
	g := NewGroup(cfg, 3)
	c := sim.NewClock()
	idx, err := g.Append(c, []byte("entry-1"))
	if err != nil || idx != 1 {
		t.Fatalf("append: %d %v", idx, err)
	}
	if g.CommitIndex() != 1 {
		t.Fatalf("commit = %d", g.CommitIndex())
	}
	if c.Now() == 0 {
		t.Fatal("append charged nothing")
	}
	e, err := g.Entry(c, 1)
	if err != nil || !bytes.Equal(e.Data, []byte("entry-1")) {
		t.Fatalf("entry: %q %v", e.Data, err)
	}
}

// The group takes an appended payload: every peer's entry holds the caller's
// slice, and a warm Append allocates nothing but the logs' amortised growth.
func TestAppendTakesItsPayload(t *testing.T) {
	g := NewGroup(sim.DefaultConfig(), 3)
	c := sim.NewClock()
	data := []byte("payload")
	idx, err := g.Append(c, data)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range g.Peers() {
		if got := p.log[idx-1].Data; &got[0] != &data[0] {
			t.Fatalf("peer %d holds a copy of the payload, want the appended slice", p.ID)
		}
	}
	for i := 0; i < 1000; i++ { // past the logs' first growth steps
		if _, err := g.Append(c, data); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(1000, func() { g.Append(c, data) }); n >= 1 {
		t.Fatalf("%.2f allocations per warm Append, want < 1 (log growth only)", n)
	}
}

func TestAppendSurvivesOneFollowerDown(t *testing.T) {
	cfg := sim.DefaultConfig()
	g := NewGroup(cfg, 3)
	g.FailPeer(2)
	c := sim.NewClock()
	if _, err := g.Append(c, []byte("x")); err != nil {
		t.Fatalf("append with 2/3: %v", err)
	}
	g.FailPeer(1)
	if _, err := g.Append(c, []byte("y")); err != ErrNoQuorum {
		t.Fatalf("append with 1/3: %v", err)
	}
}

func TestLeaderFailureElection(t *testing.T) {
	cfg := sim.DefaultConfig()
	g := NewGroup(cfg, 3)
	c := sim.NewClock()
	for i := 0; i < 5; i++ {
		g.Append(c, []byte(fmt.Sprintf("e%d", i)))
	}
	oldTerm := g.Peers()[1].Term()
	g.FailPeer(0)
	leader, err := g.Elect(c)
	if err != nil {
		t.Fatal(err)
	}
	if leader == 0 {
		t.Fatal("dead peer elected")
	}
	if g.Peers()[leader].Term() <= oldTerm {
		t.Fatal("term not bumped")
	}
	// The new leader has the committed entries and can keep appending.
	if _, err := g.Append(c, []byte("post-failover")); err != nil {
		t.Fatal(err)
	}
	if g.CommitIndex() != 6 {
		t.Fatalf("commit after failover = %d", g.CommitIndex())
	}
}

func TestElectionNeedsMajority(t *testing.T) {
	cfg := sim.DefaultConfig()
	g := NewGroup(cfg, 3)
	g.FailPeer(0)
	g.FailPeer(1)
	if _, err := g.Elect(sim.NewClock()); err != ErrNoQuorum {
		t.Fatalf("elect with 1/3: %v", err)
	}
}

func TestCatchUpRestartedPeer(t *testing.T) {
	cfg := sim.DefaultConfig()
	g := NewGroup(cfg, 3)
	c := sim.NewClock()
	g.FailPeer(2)
	for i := 0; i < 10; i++ {
		g.Append(c, make([]byte, 100))
	}
	g.RestartPeer(2)
	if got := g.Peers()[2].LogLen(); got != 0 {
		t.Fatalf("restarted peer log = %d", got)
	}
	n := g.CatchUp(c, 2)
	if n != 10 {
		t.Fatalf("caught up %d entries", n)
	}
	if g.Peers()[2].LogLen() != 10 {
		t.Fatalf("log len = %d", g.Peers()[2].LogLen())
	}
	if g.CatchUp(c, 2) != 0 {
		t.Fatal("second catch-up shipped entries")
	}
}

func TestConcurrentAppendsUniqueIndices(t *testing.T) {
	cfg := sim.DefaultConfig()
	g := NewGroup(cfg, 3)
	res := sim.RunGroup(8, func(id int, c *sim.Clock) int {
		for i := 0; i < 50; i++ {
			if _, err := g.Append(c, []byte{byte(id), byte(i)}); err != nil {
				t.Errorf("append: %v", err)
				return i
			}
		}
		return 50
	})
	if res.TotalOps != 400 {
		t.Fatalf("appends = %d", res.TotalOps)
	}
	if g.CommitIndex() != 400 {
		t.Fatalf("commit = %d", g.CommitIndex())
	}
	// Followers converge to the same log as the leader.
	lead := g.Peers()[g.Leader()]
	for _, p := range g.Peers() {
		if p.LogLen() != lead.LogLen() {
			t.Fatalf("peer %d log %d vs leader %d", p.ID, p.LogLen(), lead.LogLen())
		}
	}
	c := sim.NewClock()
	for i := 1; i <= 400; i++ {
		if _, err := g.Entry(c, i); err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
	}
}

func TestEntryOutOfRange(t *testing.T) {
	g := NewGroup(sim.DefaultConfig(), 3)
	if _, err := g.Entry(sim.NewClock(), 1); err != ErrNoEntry {
		t.Fatalf("err = %v", err)
	}
}

func TestAppendBatchConsecutiveIndicesOneRound(t *testing.T) {
	cfg := sim.DefaultConfig()
	g := NewGroup(cfg, 3)
	c := sim.NewClock()
	if _, err := g.Append(c, []byte("pre")); err != nil {
		t.Fatal(err)
	}
	datas := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}
	before := c.Now()
	first, err := g.AppendBatch(c, datas)
	if err != nil {
		t.Fatal(err)
	}
	if first != 2 {
		t.Fatalf("first index = %d, want 2", first)
	}
	batchCost := c.Now() - before
	if g.CommitIndex() != 4 {
		t.Fatalf("commit = %d, want 4", g.CommitIndex())
	}
	for i, want := range datas {
		e, err := g.Entry(c, first+i)
		if err != nil || !bytes.Equal(e.Data, want) {
			t.Fatalf("entry %d: %q %v", first+i, e.Data, err)
		}
	}

	// The batch must be cheaper than replicating each entry alone: one
	// replication round on the combined payload amortizes the bases.
	g2 := NewGroup(cfg, 3)
	c2 := sim.NewClock()
	for _, d := range datas {
		if _, err := g2.Append(c2, d); err != nil {
			t.Fatal(err)
		}
	}
	if !(batchCost < c2.Now()) {
		t.Fatalf("batch (%v) should be cheaper than %d singles (%v)", batchCost, len(datas), c2.Now())
	}
}

func TestAppendBatchEmptyIsNoOp(t *testing.T) {
	g := NewGroup(sim.DefaultConfig(), 3)
	c := sim.NewClock()
	if idx, err := g.AppendBatch(c, nil); err != nil || idx != 0 {
		t.Fatalf("empty batch: %d %v", idx, err)
	}
	if c.Now() != 0 {
		t.Fatal("empty batch charged time")
	}
}

// A follower commits a later group over the placeholder of one still in
// flight, CompactTo moves its snapshot past that hole, and the straggler
// arrives below the snapshot: it used to index the log below zero. After the
// race every index a live peer still holds carries the entry acked for it.
func TestAppendBatchSurvivesCompaction(t *testing.T) {
	g := NewGroup(sim.DefaultConfig(), 3)
	const writers, batches = 4, 3000
	var mu sync.Mutex
	acked := map[int][]byte{}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := sim.NewClock()
			for i := 0; i < batches; i++ {
				datas := [][]byte{
					binary.LittleEndian.AppendUint32([]byte{byte(w), 0}, uint32(i)),
					binary.LittleEndian.AppendUint32([]byte{byte(w), 1}, uint32(i)),
				}
				first, err := g.AppendBatch(c, datas)
				if err != nil {
					t.Errorf("writer %d batch %d: %v", w, i, err)
					return
				}
				mu.Lock()
				acked[first], acked[first+1] = datas[0], datas[1]
				mu.Unlock()
			}
		}()
	}
	stop := make(chan struct{})
	compacted := make(chan struct{})
	go func() {
		defer close(compacted)
		c := sim.NewClock()
		for {
			select {
			case <-stop:
				return
			default:
				if err := g.CompactTo(c, g.CommitIndex()); err != nil {
					t.Errorf("compact: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-compacted

	if got := g.CommitIndex(); got != 2*writers*batches {
		t.Fatalf("commit index %d after %d acked entries", got, 2*writers*batches)
	}
	for _, p := range g.Peers() {
		p.mu.Lock()
		for i := p.snap + 1; i <= p.commit; i++ {
			if got := p.log[i-1-p.snap].Data; !bytes.Equal(got, acked[i]) {
				t.Errorf("peer %d index %d (snap %d, commit %d) holds %v, acked %v", p.ID, i, p.snap, p.commit, got, acked[i])
				break
			}
		}
		p.mu.Unlock()
	}
}
