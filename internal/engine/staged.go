package engine

import (
	"cmp"
	"slices"
	"sync"

	"github.com/disagglab/disagg/internal/buffer/coherence"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/wal"
)

// ReadFunc is an engine read path: the current value of key, read on the
// worker's clock. The slice it returns is the caller's.
type ReadFunc func(c *sim.Clock, key uint64) ([]byte, error)

// Write is one staged update. Val is a private copy made when it was
// staged; it is never written again, so a log or a replica may keep it.
type Write struct {
	Key uint64
	Val []byte
}

// pin locates one pinned read in the arena, with the version its key had
// just before it was read.
type pin struct {
	key    uint64
	off, n int
	ver    uint64
}

// StagedTx is the transaction context shared by the engines: reads go
// through the engine's read path (checking the transaction's own write
// buffer first), writes are buffered until commit. Engines call Writes at
// commit to obtain the write set in deterministic (sorted) key order —
// which also makes commit-time lock acquisition deadlock-free.
//
// The engines use redo-only logging with a no-steal buffer policy: dirty
// pages never reach storage before commit, so undo images are unnecessary.
//
// External reads are pinned: the first read of a key caches its value,
// and re-reads return the pinned copy. Reads take no locks, so without
// the pin a transaction re-reading a key could observe another worker's
// concurrent commit mid-transaction (a non-repeatable read the history
// checker flags); with it, every transaction sees a stable read set. In a
// pipeline's transaction each pin also records its key's version, taken
// before the read, which the commit validates once it holds its locks.
//
// A context is recycled: the pipeline takes one per Execute and releases it
// when Execute returns, so the handle a workload closure receives is valid
// only until that closure's Execute returns. Write set and read set are
// slices searched linearly (transactions here are 1–64 keys), pinned values
// share one byte arena, and the records and page stamps a commit builds
// live here too. What a transaction still allocates is what outlives it:
// the copy Read hands the caller and the copy Write stages.
type StagedTx struct {
	c    *sim.Clock
	read ReadFunc
	// pipe, when set, is the pipeline whose commit validates the pins.
	pipe *Pipeline

	writes []Write
	pins   []pin
	arena  []byte

	// Commit scratch (Pipeline.commit): valid until Release.
	recs   []wal.Record
	stamps []coherence.PageStamp

	stampTo *uint64
}

var stagedPool = sync.Pool{New: func() any { return new(StagedTx) }}

// NewStagedTx returns an empty context whose external reads go through read
// on c. The pipeline builds its own; this is for an engine that commits
// some other way, which may Release the context once nothing refers to it.
func NewStagedTx(c *sim.Clock, read ReadFunc) *StagedTx {
	t := stagedPool.Get().(*StagedTx)
	t.c, t.read = c, read
	return t
}

// Release empties the context and hands it to the next transaction. Nothing
// may use it afterwards: the read path is cleared with the rest, so a handle
// kept past its Execute panics on its first read instead of reading through
// another worker's transaction. Staged values are dropped, not reused — a
// log may still hold them.
func (t *StagedTx) Release() {
	clear(t.writes)
	clear(t.recs)
	*t = StagedTx{writes: t.writes[:0], pins: t.pins[:0], arena: t.arena[:0],
		recs: t.recs[:0], stamps: t.stamps[:0]}
	stagedPool.Put(t)
}

// Read implements Tx: the transaction sees its own staged writes first,
// then its pinned read set, then the engine read path.
func (t *StagedTx) Read(key uint64) ([]byte, error) {
	for i := range t.writes {
		if t.writes[i].Key == key {
			return slices.Clone(t.writes[i].Val), nil
		}
	}
	for _, p := range t.pins {
		if p.key == key {
			return slices.Clone(t.arena[p.off : p.off+p.n]), nil
		}
	}
	var ver uint64
	if t.pipe != nil {
		ver = t.pipe.version(key)
	}
	v, err := t.read(t.c, key)
	if err != nil {
		return v, err
	}
	t.pins = append(t.pins, pin{key: key, off: len(t.arena), n: len(v), ver: ver})
	t.arena = append(t.arena, v...)
	return v, nil
}

// Write implements Tx.
func (t *StagedTx) Write(key uint64, val []byte) error {
	cp := make([]byte, len(val))
	copy(cp, val)
	for i := range t.writes {
		if t.writes[i].Key == key {
			t.writes[i].Val = cp
			return nil
		}
	}
	t.writes = append(t.writes, Write{Key: key, Val: cp})
	return nil
}

// Writes sorts the staged writes into ascending key order and returns them.
// The slice is the context's own, valid until Release.
func (t *StagedTx) Writes() []Write {
	slices.SortFunc(t.writes, func(a, b Write) int { return cmp.Compare(a.Key, b.Key) })
	return t.writes
}

// Empty reports whether the transaction staged no writes.
func (t *StagedTx) Empty() bool { return len(t.writes) == 0 }

// StampTo names where the commit stamp is delivered. The caller of Execute
// cannot ask the handle afterwards (it has been released by then), so a
// recorder registers a destination from inside the transaction instead.
func (t *StagedTx) StampTo(dst *uint64) { t.stampTo = dst }

// StampCommit records the engine-assigned commit timestamp (commit-record
// LSN or commit sequence number). Engines call it at the durability point:
// once stamped, the transaction's effects may survive a crash even if the
// commit is never acknowledged, which is exactly the distinction the
// history checker needs between "definitely aborted" and "indeterminate".
func (t *StagedTx) StampCommit(stamp uint64) {
	if t.stampTo != nil {
		*t.stampTo = stamp
	}
}
