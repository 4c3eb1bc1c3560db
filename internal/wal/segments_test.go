package wal

import (
	"math/rand"
	"testing"
)

func isZero(sl *Slot) bool {
	r := &sl.Rec
	return sl.Link == 0 && r.LSN == 0 && r.Type == 0 && r.TxID == 0 && r.PageID == 0 && r.Key == 0 &&
		r.After == nil
}

// checkSegments holds the store to a slice model: the same slots in the
// same order, every slot outside the live range zero, the spare segments
// full and zero, and only the first segment short.
func checkSegments(t *testing.T, s *Segments, model []Slot) {
	t.Helper()
	if s.Len() != len(model) {
		t.Fatalf("Len %d, model %d", s.Len(), len(model))
	}
	for i := range model {
		if got := s.At(i); got.Link != model[i].Link || got.Rec.LSN != model[i].Rec.LSN {
			t.Fatalf("slot %d: link %d LSN %d, model %d %d", i, got.Link, got.Rec.LSN, model[i].Link, model[i].Rec.LSN)
		}
	}
	for si, seg := range s.segs {
		if si > 0 && len(seg) != segLen {
			t.Fatalf("segment %d of %d has %d slots", si, len(s.segs), len(seg))
		}
		for off := range seg {
			p := si*segLen + off
			if (p < s.head || p >= s.head+s.n) && !isZero(&seg[off]) {
				t.Fatalf("vacated slot %d of segment %d holds %+v (head %d, len %d)", off, si, seg[off], s.head, s.n)
			}
		}
	}
	if s.head >= segLen || (s.n == 0 && s.head != 0) {
		t.Fatalf("head %d with %d slots", s.head, s.n)
	}
	for i, seg := range s.spare {
		if len(seg) != segLen {
			t.Fatalf("spare %d has %d slots", i, len(seg))
		}
		for off := range seg {
			if !isZero(&seg[off]) {
				t.Fatalf("spare %d slot %d holds %+v", i, off, seg[off])
			}
		}
	}
}

// Random pushes, front drops and tail cuts of up to a few segments at a
// time, with the cut points the segment arithmetic turns on among them.
func TestSegmentsMatchSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	edges := []int{0, 1, segLen - 1, segLen, segLen + 1, 2*segLen - 1, 2 * segLen, 2*segLen + 1}
	pick := func(n int) int {
		if k := edges[rng.Intn(len(edges))]; rng.Intn(2) == 0 && k <= n {
			return k
		}
		return rng.Intn(n + 1)
	}
	var s Segments
	var model []Slot
	next := uint64(1)
	most := 0
	for round := 0; round < 200; round++ {
		switch rng.Intn(4) {
		case 0, 1:
			for n := rng.Intn(3 * segLen); n > 0; n-- {
				sl := s.Push()
				if !isZero(sl) {
					t.Fatalf("Push returned %+v", *sl)
				}
				sl.Rec = Record{LSN: LSN(next), After: []byte("v")}
				sl.Link = next * 7
				model = append(model, *sl)
				next++
			}
		case 2:
			k := pick(len(model))
			s.DropFront(k)
			model = model[k:]
		case 3:
			k := pick(len(model))
			s.Cut(k)
			model = model[:k]
		}
		checkSegments(t, &s, model)
		most = max(most, len(s.segs))
	}
	if most < 3 {
		t.Fatalf("the store spanned at most %d segments", most)
	}
}
