package rdma

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/disagglab/disagg/internal/sim"
)

// Handler is a two-sided RPC handler executed on the target node. The
// caller's clock is passed through so that any device work the handler
// performs is charged to the waiting caller, matching synchronous RPC.
type Handler func(c *sim.Clock, req []byte) []byte

// Node is an RDMA-attached server: a registered memory region, a NIC meter,
// a (deliberately weak, per the DDC model in §1) CPU meter, and an RPC
// handler table. If PM is set the memory is persistent-capable and the node
// tracks bytes that have been posted by one-sided writes but have not yet
// reached the persistence domain.
type Node struct {
	Name string
	Mem  *Memory
	NIC  *sim.Meter
	CPU  *sim.Meter
	// PM marks the region as persistent memory with RDMA flush semantics.
	PM bool

	cfg      *sim.Config
	mu       sync.RWMutex
	handlers map[string]Handler
	pending  atomic.Int64 // unflushed bytes (PM only)
	failed   atomic.Bool
}

// NewNode creates a node with size bytes of registered memory.
func NewNode(cfg *sim.Config, name string, size int) *Node {
	n := &Node{
		Name:     name,
		Mem:      NewMemory(size),
		NIC:      sim.NewMeter(cfg.NICSlots),
		CPU:      sim.NewMeter(cfg.CPUSlots),
		cfg:      cfg,
		handlers: make(map[string]Handler),
	}
	cfg.Register("rdma."+name+".nic", n.NIC)
	cfg.Register("rdma."+name+".cpu", n.CPU)
	return n
}

// NewPMNode creates a node whose memory is persistent memory.
func NewPMNode(cfg *sim.Config, name string, size int) *Node {
	n := NewNode(cfg, name, size)
	n.PM = true
	return n
}

// Handle registers an RPC handler under the given name.
func (n *Node) Handle(name string, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handlers[name] = h
}

func (n *Node) handler(name string) (Handler, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	h, ok := n.handlers[name]
	if !ok {
		return nil, fmt.Errorf("rdma: node %s: no handler %q", n.Name, name)
	}
	return h, nil
}

// Fail marks the node as crashed: subsequent verbs return ErrNodeFailed.
// Registered memory contents are preserved iff the node is a PM node
// (persistence), otherwise they are wiped — memory disaggregation disables
// fate sharing but DRAM is still volatile. The wipe drops the region's
// chunks: one pointer per 64 KiB, not a store per word.
func (n *Node) Fail() {
	n.failed.Store(true)
	if !n.PM {
		n.Mem.wipe()
	}
}

// Restart clears the failed flag (contents follow Fail semantics).
func (n *Node) Restart() { n.failed.Store(false) }

// Failed reports whether the node is down.
func (n *Node) Failed() bool { return n.failed.Load() }

// PendingPersist reports bytes posted by one-sided writes that have not yet
// reached the persistence domain. Non-PM nodes always report zero.
func (n *Node) PendingPersist() int64 {
	if !n.PM {
		return 0
	}
	return n.pending.Load()
}
