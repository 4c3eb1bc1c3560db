package wal

// segLen is the number of slots in a full segment.
const segLen = 512

// Slot is one stored record and the link its owner chains it by (Log: the
// LSN of the page's previous record; LogStore: a position plus one).
type Slot struct {
	Rec  Record
	Link uint64
}

// Segments stores slots in fixed-size segments, so a long log never copies
// what it holds to regrow. Slots are indexed 0..Len()-1. The first segment
// grows by append up to segLen slots, so a small store costs what a slice
// would; every later one is allocated full. DropFront and Cut clear the
// slots they vacate and keep the segments they empty on a spare list that
// Push reuses: a store that is regularly truncated stops allocating.
//
// The zero value is an empty store. It is not safe for concurrent use: the
// owner's lock guards it.
type Segments struct {
	segs  [][]Slot // segs[0] holds slots from offset head on; later ones from 0
	head  int
	n     int
	spare [][]Slot // emptied full segments, all slots zero
}

// Len reports the number of stored slots.
func (s *Segments) Len() int { return s.n }

// At returns slot i, 0 <= i < Len().
func (s *Segments) At(i int) *Slot {
	p := s.head + i
	return &s.segs[p/segLen][p%segLen]
}

// Push appends a slot and returns it, zero: every slot past the end was
// cleared when it was vacated.
func (s *Segments) Push() *Slot {
	p := s.head + s.n
	si, off := p/segLen, p%segLen
	if si == len(s.segs) {
		switch k := len(s.spare); {
		case k > 0:
			s.segs = append(s.segs, s.spare[k-1])
			s.spare[k-1] = nil
			s.spare = s.spare[:k-1]
		case si == 0:
			s.segs = append(s.segs, nil) // the first segment grows by append
		default:
			s.segs = append(s.segs, make([]Slot, segLen))
		}
	}
	if off == len(s.segs[si]) {
		s.segs[si] = append(s.segs[si], Slot{})
	}
	s.n++
	return &s.segs[si][off]
}

// DropFront removes the first k slots, k <= Len(); slot k becomes slot 0.
func (s *Segments) DropFront(k int) {
	for i := range k {
		*s.At(i) = Slot{}
	}
	s.head += k
	s.n -= k
	for s.head >= segLen {
		s.recycle(0)
		s.head -= segLen
	}
	if s.n == 0 {
		s.head = 0
	}
}

// Cut removes every slot from k on, k <= Len().
func (s *Segments) Cut(k int) {
	for i := k; i < s.n; i++ {
		*s.At(i) = Slot{}
	}
	s.n = k
	// Keep the segment slot k-1 lies in, and always the first.
	for keep := max(1, (s.head+k+segLen-1)/segLen); len(s.segs) > keep; {
		s.recycle(len(s.segs) - 1)
	}
	if s.n == 0 {
		s.head = 0
	}
}

// recycle moves segment i, full and cleared, to the spare list.
func (s *Segments) recycle(i int) {
	s.spare = append(s.spare, s.segs[i])
	n := copy(s.segs[i:], s.segs[i+1:])
	s.segs[i+n] = nil
	s.segs = s.segs[:i+n]
}
