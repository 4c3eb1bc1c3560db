package engine

import "slices"

// StagedTx is the transaction staging helper shared by the engines: reads
// go through the engine's read path (checking the transaction's own write
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
// checker flags); with it, every transaction sees a stable read set.
type StagedTx struct {
	read   func(key uint64) ([]byte, error)
	writes map[uint64][]byte
	cache  map[uint64][]byte
	stamp  uint64
}

// NewStagedTx wraps an engine read path.
func NewStagedTx(read func(key uint64) ([]byte, error)) *StagedTx {
	return &StagedTx{read: read, writes: make(map[uint64][]byte)}
}

// Read implements Tx: the transaction sees its own staged writes first,
// then its pinned read set, then the engine read path.
func (t *StagedTx) Read(key uint64) ([]byte, error) {
	if v, ok := t.writes[key]; ok {
		out := make([]byte, len(v))
		copy(out, v)
		return out, nil
	}
	if v, ok := t.cache[key]; ok {
		out := make([]byte, len(v))
		copy(out, v)
		return out, nil
	}
	v, err := t.read(key)
	if err != nil {
		return v, err
	}
	if t.cache == nil {
		t.cache = make(map[uint64][]byte)
	}
	pin := make([]byte, len(v))
	copy(pin, v)
	t.cache[key] = pin
	return v, nil
}

// Write implements Tx.
func (t *StagedTx) Write(key uint64, val []byte) error {
	cp := make([]byte, len(val))
	copy(cp, val)
	t.writes[key] = cp
	return nil
}

// WriteSet returns the staged writes in ascending key order.
func (t *StagedTx) WriteSet() ([]uint64, map[uint64][]byte) {
	keys := make([]uint64, 0, len(t.writes))
	for k := range t.writes {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys, t.writes
}

// Empty reports whether the transaction staged no writes.
func (t *StagedTx) Empty() bool { return len(t.writes) == 0 }

// StampCommit records the engine-assigned commit timestamp (commit-record
// LSN or commit sequence number). Engines call it at the durability point:
// once stamped, the transaction's effects may survive a crash even if the
// commit is never acknowledged, which is exactly the distinction the
// history checker needs between "definitely aborted" and "indeterminate".
func (t *StagedTx) StampCommit(stamp uint64) { t.stamp = stamp }

// CommitStamp reports the commit timestamp, if the transaction reached
// its engine's durability point. Implements the Stamper contract
// engine.Run uses for history recording.
func (t *StagedTx) CommitStamp() (uint64, bool) { return t.stamp, t.stamp != 0 }
