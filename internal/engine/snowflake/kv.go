package snowflake

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/disagglab/disagg/internal/buffer/coherence"
	"github.com/disagglab/disagg/internal/checkpoint"
	"github.com/disagglab/disagg/internal/device"
	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/wal"
)

// segPrefix names the immutable commit-segment objects in the store.
const segPrefix = "kvseg/"

// ckptPrefix names the consolidated snapshot objects. A snapshot at LSN h
// holds the full materialized view covering every commit <= h, terminated
// by a TypeCommit marker record carrying h — recovery rejects a snapshot
// whose marker is missing (a torn upload) and falls back to the segments,
// which are only garbage-collected after the snapshot landed whole.
const ckptPrefix = "kvckpt/"

// KV is a transactional KV engine in the Snowflake storage style (§2.2):
// ALL durable state lives as immutable objects in cloud object storage,
// compute is stateless. Each commit uploads its write set as one immutable
// segment object (encoded WAL records, named by commit LSN); the compute
// node keeps only a volatile materialized view. Crash recovery re-lists
// the segments and replays them in LSN order — a torn upload (crash
// mid-put) leaves a truncated object without its terminal commit marker,
// and recovery skips it whole, so a transaction is all-or-nothing.
// DurableLSN is the highest object-durable commit LSN.
type KV struct {
	*engine.Pipeline
	cfg    *sim.Config
	layout heap.Layout
	Store  *device.ObjectStore
	log    *wal.Log
	stats  engine.Stats

	// commitMu is the pipeline's sequencer: it serializes the assign-LSN ->
	// upload -> apply sequence, so segments land in LSN order and the view
	// holds every commit at or below the durable LSN whenever it is free.
	commitMu sync.Mutex

	mu   sync.Mutex
	vals map[uint64][]byte // volatile materialized view

	// snap is Checkpoint's view of vals, kept across rounds (the coordinator
	// runs one at a time) and cleared after each so it pins no old value.
	snap []kvPair
}

// kvPair is one entry of the materialized view.
type kvPair struct {
	key uint64
	val []byte
}

// NewKV creates the engine with its own object store.
func NewKV(cfg *sim.Config, layout heap.Layout) *KV {
	e := &KV{
		cfg:    cfg,
		layout: layout,
		Store:  device.NewObjectStore(cfg),
		log:    wal.NewLog(),
		vals:   make(map[uint64][]byte),
	}
	e.Pipeline = engine.NewPipeline(cfg, "snowflake", layout, e.log, &e.stats,
		engine.Hooks{Read: e.readKey, Durable: e.durable, Apply: e.apply, Sequencer: &e.commitMu})
	// No page cache registers with the directory, so a publish invalidates
	// nothing and charges nothing: it only keeps the page versions commit
	// validation reads.
	e.Coherent(coherence.ModeBump)
	return e
}

// Name implements engine.Engine.
func (e *KV) Name() string { return "snowflake-kv" }

// readKey is the pipeline's read hook: the materialized view, which costs no
// virtual time.
func (e *KV) readKey(_ *sim.Clock, key uint64) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	v, ok := e.vals[key]
	if !ok {
		return make([]byte, e.layout.ValSize), nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, nil
}

// durable: one immutable segment upload, named by the commit LSN; the
// store keeps the encoding, which nothing else holds. A failed or torn
// upload is an unacknowledged commit, which recovery drops whole.
func (e *KV) durable(c *sim.Clock, recs []wal.Record) error {
	encoded := engine.Encode(recs)
	if err := e.Store.Put(c, segKey(recs[len(recs)-1].LSN), encoded); err != nil {
		return err
	}
	e.stats.LogBytes.Add(int64(len(encoded)))
	e.stats.NetBytes.Add(int64(len(encoded)))
	e.stats.StorageOps.Add(1)
	return nil
}

// apply: the stateless compute node's only page state is its volatile
// materialized view.
func (e *KV) apply(c *sim.Clock, recs []wal.Record) error {
	e.mu.Lock()
	for _, r := range recs[:len(recs)-1] {
		e.vals[r.Key] = e.layout.Fit(r.After) // the log's image, never written again; readKey copies out
	}
	e.mu.Unlock()
	return nil
}

func segKey(lsn wal.LSN) string { return objKey(segPrefix, lsn) }

func ckptKey(lsn wal.LSN) string { return objKey(ckptPrefix, lsn) }

// objKey is prefix followed by lsn zero-padded to 20 digits (every uint64
// fits), so names sort in LSN order. It formats into a stack array rather
// than through fmt, which boxes the LSN.
func objKey(prefix string, lsn wal.LSN) string {
	const digits = 20
	var b [32]byte
	n := copy(b[:], prefix)
	name := b[:n+digits]
	for i, v := len(name)-1, uint64(lsn); i >= n; i, v = i-1, v/10 {
		name[i] = byte('0' + v%10)
	}
	return string(name)
}

// Checkpoint implements engine.Checkpointer: upload a consolidated
// snapshot of the materialized view at the durable horizon, then delete
// the commit segments the snapshot covers (and superseded snapshots) —
// without it recovery re-lists and replays every segment ever uploaded.
// The view may already contain commits newer than the horizon — that is
// safe, because their segments stay above the floor and replay over the
// snapshot idempotently. A torn snapshot upload fails the round before
// anything is deleted; a failed delete leaves garbage that the next
// round retries (deletion is idempotent).
func (e *KV) Checkpoint(c *sim.Clock) error {
	return e.Pipeline.Checkpoint(c, checkpoint.Round{
		Flush: func(c *sim.Clock, h wal.LSN) error {
			// A commit advances the durable LSN before its apply reaches the
			// view; both happen under the sequencer, so holding it here means
			// the view covers every commit at or below h.
			e.commitMu.Lock()
			e.mu.Lock()
			// apply replaces a value and never writes into one, so the
			// pairs can share the view's values past the unlock.
			pairs := slices.Grow(e.snap[:0], len(e.vals))
			for k, v := range e.vals {
				pairs = append(pairs, kvPair{k, v})
			}
			e.mu.Unlock()
			e.commitMu.Unlock()
			slices.SortFunc(pairs, func(a, b kvPair) int { return cmp.Compare(a.key, b.key) })
			// One update record per key at the horizon, then the terminal
			// marker: recovery only trusts a snapshot that ends with it (a
			// torn upload loses the tail, marker included). The object is
			// sized exactly, drawn from the page free list and handed to the
			// store, which keeps it and releases the snapshot it supersedes.
			rec := wal.Record{LSN: h, Type: wal.TypeUpdate}
			marker := wal.Record{LSN: h, Type: wal.TypeCommit}
			size := marker.EncodedSize()
			for _, p := range pairs {
				rec.After = p.val
				size += rec.EncodedSize()
			}
			encoded := page.Alloc(size)[:0]
			for _, p := range pairs {
				rec.Key, rec.After = p.key, p.val
				encoded = rec.Encode(encoded)
			}
			encoded = marker.Encode(encoded)
			clear(pairs)
			e.snap = pairs[:0]
			if err := e.Store.Put(c, ckptKey(h), encoded); err != nil {
				return err
			}
			e.stats.PageBytes.Add(int64(len(encoded)))
			e.stats.NetBytes.Add(int64(len(encoded)))
			e.stats.StorageOps.Add(1)
			return nil
		},
		Truncate: func(c *sim.Clock, h wal.LSN) error {
			bound := segKey(h)
			own := ckptKey(h)
			var firstErr error
			for _, k := range e.Store.Keys() {
				covered := (strings.HasPrefix(k, segPrefix) && k <= bound) ||
					(strings.HasPrefix(k, ckptPrefix) && k < own)
				if !covered {
					continue
				}
				if err := e.Store.Delete(c, k); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				e.stats.StorageOps.Add(1)
			}
			e.log.TruncateBefore(h + 1)
			return firstErr
		},
	})
}

// Crash implements engine.Recoverer: the stateless compute node loses its
// materialized view; the object store survives.
func (e *KV) Crash() {
	e.Pipeline.Crash()
	e.mu.Lock()
	e.vals = make(map[uint64][]byte)
	e.mu.Unlock()
}

// Close implements io.Closer: the compute node retires
// (engine.Pipeline.Retire), and with it the log whose images the view holds
// and the object store it built in NewKV, whose objects go back to the page
// free list. Execute sheds afterwards.
func (e *KV) Close() error {
	if e.Retire() {
		e.Store.Release()
	}
	return nil
}

// Recover implements engine.Recoverer: load the newest complete
// snapshot, then list the commit segments above it and replay them in
// LSN order. A segment or a snapshot counts only if it ends in its
// TypeCommit marker. A torn segment upload is skipped whole: its
// transaction was never acknowledged, and replaying the whole records
// before the tear would surface part of it. A torn snapshot is skipped
// too — its covered segments were never deleted, so an older snapshot or
// the raw segments still reconstruct everything.
func (e *KV) Recover(c *sim.Clock) (time.Duration, error) {
	start := c.Now()
	keys := e.Store.Keys()
	var segs, ckpts []string
	for _, k := range keys {
		switch {
		case strings.HasPrefix(k, segPrefix):
			segs = append(segs, k)
		case strings.HasPrefix(k, ckptPrefix):
			ckpts = append(ckpts, k)
		}
	}
	sort.Strings(segs) // zero-padded LSN names sort in commit order
	sort.Sort(sort.Reverse(sort.StringSlice(ckpts)))
	vals := make(map[uint64][]byte)
	var high, snapLSN wal.LSN
	for _, k := range ckpts {
		data, err := e.Store.Get(c, k)
		if err != nil {
			// One retry; a persistently unreadable snapshot must fail the
			// recovery rather than silently fall back past truncated
			// segments.
			data, err = e.Store.Get(c, k)
			if err != nil {
				return 0, err
			}
		}
		recs, _, err := wal.DecodePrefix(data)
		if err != nil || len(recs) == 0 || recs[len(recs)-1].Type != wal.TypeCommit {
			// Torn upload (missing terminal marker): the round that wrote
			// it never deleted anything — try the previous snapshot.
			page.Release(data)
			continue
		}
		// Decode's images alias data, the copy Get returned: keep copies
		// and hand data back.
		for _, r := range recs {
			if r.Type == wal.TypeUpdate {
				keepValue(vals, r.Key, e.layout.Fit(r.After))
			}
		}
		page.Release(data)
		snapLSN = recs[len(recs)-1].LSN
		high = snapLSN
		break
	}
	bound := segKey(snapLSN)
	for _, k := range segs {
		if snapLSN > 0 && k <= bound {
			continue // covered by the snapshot (GC may not have run yet)
		}
		data, err := e.Store.Get(c, k)
		if err != nil {
			// One retry: a transient injected fetch error must not turn
			// into silent data loss.
			data, err = e.Store.Get(c, k)
			if err != nil {
				return 0, err
			}
		}
		recs, _, err := wal.DecodePrefix(data)
		if err != nil {
			page.Release(data)
			return 0, fmt.Errorf("segment %s: %w", k, err)
		}
		if len(recs) == 0 || recs[len(recs)-1].Type != wal.TypeCommit {
			page.Release(data)
			continue // torn upload: none of its transaction happened
		}
		for _, r := range recs {
			if r.Type == wal.TypeUpdate {
				keepValue(vals, r.Key, e.layout.Fit(r.After))
			}
			if r.LSN > high {
				high = r.LSN
			}
		}
		page.Release(data)
	}
	e.mu.Lock()
	e.vals = vals
	e.mu.Unlock()
	e.Restart(high)
	return c.Now() - start, nil
}

// keepValue copies v into the recovered view's buffer for key, which it
// allocates on the key's first value and reuses while the length holds: a
// key that later segments overwrite costs one buffer, not one per segment.
func keepValue(vals map[uint64][]byte, key uint64, v []byte) {
	if b, ok := vals[key]; ok && len(b) == len(v) {
		copy(b, v)
		return
	}
	vals[key] = bytes.Clone(v)
}
