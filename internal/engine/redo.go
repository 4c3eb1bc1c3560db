package engine

import (
	"fmt"
	"maps"
	"slices"

	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/wal"
)

// Redo is the one redo rule: how a page image catches up with the log.
// Every path that replays records onto an image goes through it — a page
// miss replaying its chain, a checkpoint flush, crash recovery — so the
// architectures differ only in where the image lives and what the replay is
// charged. r is applied to data, r's page, when it is an update the image
// does not hold yet (the page LSN guard makes a replay idempotent); a record
// that cannot be applied is an error, never a half-redone page served as
// authoritative.
func (p *Pipeline) Redo(data []byte, r *wal.Record) (applied bool, err error) {
	if r.Type != wal.TypeUpdate || uint64(r.LSN) <= PageLSN(data) {
		return false, nil
	}
	if err := p.layout.WriteValue(data, r.Key, r.After, uint64(r.LSN)); err != nil {
		return false, fmt.Errorf("redo page %d at lsn %d: %w", r.PageID, r.LSN, err)
	}
	return true, nil
}

// RedoImages redoes the log's records in (after, upto] into a store that
// keeps whole page images (a checkpoint flush straight into storage),
// formatting pages the store has never held, and reports how many images
// changed so the caller can charge their writes. wal.ErrTruncated means the
// range reaches below the log's floor. The caller holds the lock guarding
// images; the log's lock nests inside it, never the reverse.
//
// The store's images are immutable — one may also be the payload of a
// replicated log entry — so the redo goes into a fresh copy of each image
// it changes, and the copies replace the originals only once the whole
// range has been redone: a failed round leaves the store as it was.
func (p *Pipeline) RedoImages(images map[page.ID][]byte, after, upto wal.LSN) (changed int, err error) {
	redone := map[page.ID][]byte{}
	err = p.log.Range(after, upto, func(r *wal.Record) error {
		if r.Type != wal.TypeUpdate {
			return nil
		}
		id := page.ID(r.PageID)
		img, ok := redone[id]
		if !ok {
			stored, held := images[id]
			switch {
			case !held:
				img = p.layout.FormatPage(id).Bytes()
			case uint64(r.LSN) > PageLSN(stored):
				img = slices.Clone(stored)
			default:
				return nil // the stored image holds r already
			}
			redone[id] = img
		}
		_, err := p.Redo(img, r)
		return err
	})
	if err != nil {
		return 0, err
	}
	maps.Copy(images, redone)
	return len(redone), nil
}
