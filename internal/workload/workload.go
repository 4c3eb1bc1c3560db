// Package workload provides the benchmark workloads used throughout the
// experiments: YCSB-style key-value mixes with Zipfian skew, a TPC-C-lite
// transactional mix (NewOrder/Payment-shaped multi-key transactions), and
// a TPC-H-lite schema generator with Q1/Q3/Q6-shaped analytical queries.
package workload

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/sim"
)

// YCSB is a key-value workload: a read/update mix over n keys with
// optional Zipfian skew.
type YCSB struct {
	Keys      uint64
	ReadFrac  float64
	Theta     float64 // 0 = uniform
	ValueSize int
}

// YCSBB returns the 95/5 read-heavy mix.
func YCSBB(keys uint64) YCSB { return YCSB{Keys: keys, ReadFrac: 0.95, Theta: 1.1, ValueSize: 100} }

// Op is one generated operation.
type Op struct {
	Read bool
	Key  uint64
}

// Generator produces a deterministic op stream for one worker.
type Generator struct {
	w  YCSB
	r  *rand.Rand
	kc *sim.KeyChooser
}

// NewGenerator builds a per-worker generator.
func (w YCSB) NewGenerator(seed int64, worker int) *Generator {
	r := sim.NewRand(seed, worker)
	return &Generator{w: w, r: r, kc: sim.NewKeyChooser(r, w.Theta, w.Keys)}
}

// Next returns the next operation.
func (g *Generator) Next() Op {
	return Op{Read: g.r.Float64() < g.w.ReadFrac, Key: g.kc.Next()}
}

// Value builds the value payload for a key (deterministic, verifiable).
func (g *Generator) Value(key uint64) []byte {
	v := make([]byte, g.w.ValueSize)
	binary.LittleEndian.PutUint64(v, key^0xBADC0FFEE)
	return v
}

// RunOn executes ops operations against an engine on the worker clock,
// returning the number of committed transactions.
func (g *Generator) RunOn(e engine.Engine, c *sim.Clock, ops int) int {
	committed := 0
	for i := 0; i < ops; i++ {
		op := g.Next()
		err := engine.Run(e, c, engine.RunOpts{Retries: 3}, func(tx engine.Tx) error {
			if op.Read {
				_, err := tx.Read(op.Key)
				return err
			}
			return tx.Write(op.Key, g.Value(op.Key))
		})
		if err == nil {
			committed++
		}
	}
	return committed
}

// TPCCLite is a Payment/NewOrder-shaped transactional mix over a banking-
// style keyspace: each transaction reads and updates a handful of rows,
// with a hot "warehouse" region and a cold "customer" region.
type TPCCLite struct {
	Warehouses uint64 // hot keys
	Customers  uint64 // cold keys
	ValueSize  int
}

// DefaultTPCC returns a small but contention-realistic configuration.
func DefaultTPCC() TPCCLite {
	return TPCCLite{Warehouses: 16, Customers: 100_000, ValueSize: 96}
}

// TotalKeys reports the keyspace size (warehouses first, then customers).
func (t TPCCLite) TotalKeys() uint64 { return t.Warehouses + t.Customers }

// TPCCGen generates TPC-C-lite transactions for one worker.
type TPCCGen struct {
	t TPCCLite
	r *rand.Rand
}

// NewGenerator builds a per-worker generator.
func (t TPCCLite) NewGenerator(seed int64, worker int) *TPCCGen {
	return &TPCCGen{t: t, r: sim.NewRand(seed, worker)}
}

// TxKind distinguishes the generated transaction profiles.
type TxKind int

// Transaction kinds.
const (
	TxPayment  TxKind = iota // 1 hot update + 1 cold update
	TxNewOrder               // 1 hot read + 5-10 cold reads + 5-10 cold writes
)

// TxSpec is one generated transaction.
type TxSpec struct {
	Kind   TxKind
	Reads  []uint64
	Writes []uint64
}

// Next generates the next transaction (45% Payment, 55% NewOrder, per the
// TPC-C mix shape).
func (g *TPCCGen) Next() TxSpec {
	hot := uint64(g.r.Int63n(int64(g.t.Warehouses)))
	cold := func() uint64 { return g.t.Warehouses + uint64(g.r.Int63n(int64(g.t.Customers))) }
	if g.r.Float64() < 0.45 {
		return TxSpec{Kind: TxPayment, Writes: []uint64{hot, cold()}}
	}
	n := 5 + g.r.Intn(6)
	spec := TxSpec{Kind: TxNewOrder, Reads: []uint64{hot}}
	for i := 0; i < n; i++ {
		k := cold()
		spec.Reads = append(spec.Reads, k)
		spec.Writes = append(spec.Writes, k)
	}
	return spec
}

// Value builds a payload.
func (g *TPCCGen) Value(key uint64) []byte {
	v := make([]byte, g.t.ValueSize)
	binary.LittleEndian.PutUint64(v, key*2654435761)
	return v
}

// RunOn executes n transactions against the engine, returning commits.
func (g *TPCCGen) RunOn(e engine.Engine, c *sim.Clock, n int) int {
	committed := 0
	for i := 0; i < n; i++ {
		spec := g.Next()
		err := engine.Run(e, c, engine.RunOpts{Retries: 3}, func(tx engine.Tx) error {
			for _, k := range spec.Reads {
				if _, err := tx.Read(k); err != nil {
					return err
				}
			}
			for _, k := range spec.Writes {
				if err := tx.Write(k, g.Value(k)); err != nil {
					return err
				}
			}
			return nil
		})
		if err == nil {
			committed++
		}
	}
	return committed
}

// String implements fmt.Stringer.
func (t TPCCLite) String() string {
	return fmt.Sprintf("tpcc-lite(w=%d,c=%d)", t.Warehouses, t.Customers)
}
