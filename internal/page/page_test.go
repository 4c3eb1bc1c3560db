package page

import (
	"bytes"
	"testing"
	"testing/quick"

	"github.com/disagglab/disagg/internal/sim"
)

func TestInsertAndCell(t *testing.T) {
	p := New(256)
	s1, err := p.Insert([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.Insert([]byte("world!"))
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 {
		t.Fatal("duplicate slot numbers")
	}
	c1, _ := p.Cell(s1)
	c2, _ := p.Cell(s2)
	if string(c1) != "hello" || string(c2) != "world!" {
		t.Fatalf("cells = %q, %q", c1, c2)
	}
	if p.LiveCells() != 2 {
		t.Fatalf("live = %d", p.LiveCells())
	}
}

func TestLSNRoundTrip(t *testing.T) {
	p := New(128)
	p.SetLSN(0xDEADBEEF12345678)
	if p.LSN() != 0xDEADBEEF12345678 {
		t.Fatalf("LSN = %x", p.LSN())
	}
}

func TestPageFull(t *testing.T) {
	p := New(64)
	var err error
	inserted := 0
	for {
		_, err = p.Insert([]byte("0123456789"))
		if err != nil {
			break
		}
		inserted++
	}
	if err != ErrPageFull {
		t.Fatalf("err = %v, want ErrPageFull", err)
	}
	if inserted == 0 {
		t.Fatal("nothing fit in page")
	}
}

func TestDeleteAndSlotReuse(t *testing.T) {
	p := New(256)
	s0, _ := p.Insert([]byte("aaa"))
	s1, _ := p.Insert([]byte("bbb"))
	if err := p.Delete(s0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Cell(s0); err != ErrBadSlot {
		t.Fatalf("deleted cell readable: %v", err)
	}
	if err := p.Delete(s0); err != ErrBadSlot {
		t.Fatal("double delete should fail")
	}
	// Slot numbers stay stable for survivors.
	c, _ := p.Cell(s1)
	if string(c) != "bbb" {
		t.Fatalf("survivor = %q", c)
	}
	// New insert reuses the deleted slot.
	s2, _ := p.Insert([]byte("ccc"))
	if s2 != s0 {
		t.Fatalf("slot not reused: got %d, want %d", s2, s0)
	}
}

func TestUpdateInPlaceAndGrow(t *testing.T) {
	p := New(256)
	s, _ := p.Insert([]byte("abcdef"))
	if err := p.Update(s, []byte("xyz")); err != nil { // shrink in place
		t.Fatal(err)
	}
	c, _ := p.Cell(s)
	if string(c) != "xyz" {
		t.Fatalf("after shrink = %q", c)
	}
	if err := p.Update(s, []byte("a much longer cell value")); err != nil {
		t.Fatal(err)
	}
	c, _ = p.Cell(s)
	if string(c) != "a much longer cell value" {
		t.Fatalf("after grow = %q", c)
	}
}

func TestUpdateBadSlot(t *testing.T) {
	p := New(128)
	if err := p.Update(0, []byte("x")); err != ErrBadSlot {
		t.Fatal("update of missing slot should fail")
	}
	if err := p.Update(-1, nil); err != ErrBadSlot {
		t.Fatal("negative slot should fail")
	}
}

func TestCompactReclaimsHoles(t *testing.T) {
	p := New(256)
	var slots []int
	for i := 0; i < 8; i++ {
		s, err := p.Insert(bytes.Repeat([]byte{byte('a' + i)}, 16))
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	freeBefore := p.FreeSpace()
	for i := 0; i < 8; i += 2 {
		p.Delete(slots[i])
	}
	p.Compact()
	if p.FreeSpace() <= freeBefore {
		t.Fatalf("compact did not reclaim: before %d after %d", freeBefore, p.FreeSpace())
	}
	// Survivors intact.
	for i := 1; i < 8; i += 2 {
		c, err := p.Cell(slots[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c, bytes.Repeat([]byte{byte('a' + i)}, 16)) {
			t.Fatalf("slot %d corrupted after compact: %q", slots[i], c)
		}
	}
}

func TestValidate(t *testing.T) {
	p := New(128)
	p.Insert([]byte("ok"))
	if err := p.Validate(); err != nil {
		t.Fatalf("valid page rejected: %v", err)
	}
	// Corrupt the slot count.
	bad := p.Clone()
	bad.Bytes()[8] = 0xFF
	bad.Bytes()[9] = 0xFF
	if err := bad.Validate(); err == nil {
		t.Fatal("corrupt slot count accepted")
	}
	if err := Wrap([]byte{1, 2}).Validate(); err == nil {
		t.Fatal("tiny buffer accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := New(128)
	s, _ := p.Insert([]byte("orig"))
	q := p.Clone()
	p.Update(s, []byte("mut!"))
	c, _ := q.Cell(s)
	if string(c) != "orig" {
		t.Fatal("clone aliases original")
	}
}

func TestPropertyInsertedCellsReadable(t *testing.T) {
	f := func(cells [][]byte) bool {
		p := New(4096)
		var want [][]byte
		var slots []int
		for _, c := range cells {
			if len(c) > 512 {
				c = c[:512]
			}
			s, err := p.Insert(c)
			if err != nil {
				break
			}
			slots = append(slots, s)
			want = append(want, c)
		}
		if p.Validate() != nil {
			return false
		}
		for i, s := range slots {
			got, err := p.Cell(s)
			if err != nil || !bytes.Equal(got, want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRandomOpsStayValid(t *testing.T) {
	// Random interleavings of insert/update/delete/compact keep the page
	// structurally valid and the model map consistent.
	const seed = 11
	t.Logf("seed=%d", seed)
	r := sim.NewRand(seed, 0)
	p := New(1024)
	model := make(map[int][]byte)
	for step := 0; step < 5000; step++ {
		switch r.Intn(4) {
		case 0: // insert
			c := make([]byte, 1+r.Intn(40))
			r.Read(c)
			if s, err := p.Insert(c); err == nil {
				model[s] = append([]byte(nil), c...)
			}
		case 1: // update
			for s := range model {
				c := make([]byte, 1+r.Intn(40))
				r.Read(c)
				if err := p.Update(s, c); err == nil {
					model[s] = append([]byte(nil), c...)
				}
				break
			}
		case 2: // delete
			for s := range model {
				if err := p.Delete(s); err != nil {
					t.Fatalf("step %d: delete live slot: %v", step, err)
				}
				delete(model, s)
				break
			}
		case 3:
			p.Compact()
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	for s, want := range model {
		got, err := p.Cell(s)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("slot %d diverged from model: %q vs %q (%v)", s, got, want, err)
		}
	}
	if p.LiveCells() != len(model) {
		t.Fatalf("live cells %d, model %d", p.LiveCells(), len(model))
	}
}

func TestTinyPageDefaultsToStandardSize(t *testing.T) {
	p := New(4)
	if p.Size() != DefaultSize {
		t.Fatalf("size = %d", p.Size())
	}
}

func TestCellTooBig(t *testing.T) {
	p := New(8192)
	if _, err := p.Insert(make([]byte, 0xFFFF)); err != ErrCellTooBig {
		t.Fatalf("err = %v, want ErrCellTooBig", err)
	}
}

// Format over a dirty buffer builds the page n Inserts of zeroed cells build
// on a fresh one, up to a full page; one cell more fails and leaves the
// buffer alone.
func TestFormatMatchesInserts(t *testing.T) {
	const size, cell = 256, 20
	for n := 0; headerSize+n*(slotSize+cell) <= size; n++ {
		want := New(size)
		for i := 0; i < n; i++ {
			if _, err := want.Insert(make([]byte, cell)); err != nil {
				t.Fatal(err)
			}
		}
		buf := bytes.Repeat([]byte{0xAA}, size)
		if err := Format(buf, n, cell); err != nil {
			t.Fatalf("%d cells: %v", n, err)
		}
		if !bytes.Equal(buf, want.Bytes()) {
			t.Fatalf("%d cells: Format differs from %d Inserts", n, n)
		}
	}
	buf := bytes.Repeat([]byte{0xAA}, size)
	if err := Format(buf, (size-headerSize)/(slotSize+cell)+1, cell); err != ErrPageFull {
		t.Fatalf("one cell too many: err = %v, want ErrPageFull", err)
	}
	if !bytes.Equal(buf, bytes.Repeat([]byte{0xAA}, size)) {
		t.Fatal("a failed Format wrote to the buffer")
	}
}
