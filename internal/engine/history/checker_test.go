package history

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// ---- construction helpers ----------------------------------------------

// mkOp builds an op with a single attempt in the given outcome.
func mkOp(id, session int, outcome Outcome, stamp uint64) (*Op, *Attempt) {
	op := &Op{ID: id, Session: session}
	att := op.NewAttempt(0)
	att.Outcome = outcome
	att.Stamp = stamp
	return op, att
}

func classes(rep *Report) []string {
	var out []string
	for _, a := range rep.Anomalies {
		out = append(out, a.Class)
	}
	return out
}

func wantClass(t *testing.T, rep *Report, class string) {
	t.Helper()
	for _, a := range rep.Anomalies {
		if a.Class == class {
			return
		}
	}
	t.Fatalf("expected anomaly %q, got %v", class, classes(rep))
}

func wantClean(t *testing.T, rep *Report) {
	t.Helper()
	if !rep.Ok() {
		for _, a := range rep.Anomalies {
			t.Logf("anomaly: %s", a)
		}
		t.Fatalf("expected clean report, got %d anomalies: %v", len(rep.Anomalies), classes(rep))
	}
}

func check(t *testing.T, ops []*Op, o Opts) *Report {
	t.Helper()
	rep, err := Check(ops, o)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return rep
}

// ---- clean histories ----------------------------------------------------

func TestCleanSerialHistory(t *testing.T) {
	// One writer session advances k; a reader session observes a
	// monotone prefix. Clean at every level, in both version-order modes.
	w0, a0 := mkOp(0, 0, Committed, 10)
	a0.Write(1, 0xA1, 0)
	w1, a1 := mkOp(1, 0, Committed, 20)
	a1.Read(1, 0xA1, 0)
	a1.Write(1, 0xA2, 0)
	r0, ar := mkOp(2, 1, Committed, 0)
	ar.Read(1, 0xA1, 0)
	r1, ar1 := mkOp(3, 1, Committed, 0)
	ar1.Read(1, 0xA2, 0)
	ops := []*Op{w0, w1, r0, r1}

	for _, sw := range []bool{true, false} {
		rep := check(t, ops, Opts{Level: Serializable, SessionOrder: true, SingleWriter: sw})
		wantClean(t, rep)
		if rep.Txns != 4 || rep.Keys != 1 {
			t.Fatalf("single-writer=%v: txns=%d keys=%d", sw, rep.Txns, rep.Keys)
		}
	}
}

func TestInitialReadIsClean(t *testing.T) {
	// Reading the all-zero initial value before any write is not an
	// anomaly, and anti-depends on the first writer.
	r, ar := mkOp(0, 1, Committed, 0)
	ar.Read(7, 0, 0)
	w, aw := mkOp(1, 0, Committed, 5)
	aw.Write(7, 0xB1, 0)
	rep := check(t, []*Op{r, w}, Opts{Level: Serializable})
	wantClean(t, rep)
	if rep.Edges != 1 {
		t.Fatalf("expected 1 rw edge, got %d", rep.Edges)
	}
}

// ---- direct (non-cyclic) anomalies --------------------------------------

func TestG1aAbortedRead(t *testing.T) {
	ab, aa := mkOp(0, 0, Aborted, 0)
	aa.Write(1, 0xC1, 0)
	rd, ar := mkOp(1, 1, Committed, 0)
	ar.Read(1, 0xC1, 0)
	rep := check(t, []*Op{ab, rd}, Opts{Level: ReadCommitted})
	wantClass(t, rep, "G1a")
}

func TestG1bIntermediateRead(t *testing.T) {
	w, aw := mkOp(0, 0, Committed, 5)
	aw.Write(1, 0xD1, 0) // intermediate
	aw.Write(1, 0xD2, 0) // final
	rd, ar := mkOp(1, 1, Committed, 0)
	ar.Read(1, 0xD1, 0)
	rep := check(t, []*Op{w, rd}, Opts{Level: ReadCommitted})
	wantClass(t, rep, "G1b")
}

func TestGarbledRead(t *testing.T) {
	rd, ar := mkOp(0, 0, Committed, 0)
	ar.Read(1, 0xEEEE, 0)
	rep := check(t, []*Op{rd}, Opts{Level: ReadCommitted})
	wantClass(t, rep, "garbled-read")
}

func TestMisdirectedRead(t *testing.T) {
	w, aw := mkOp(0, 0, Committed, 5)
	aw.Write(1, 0xF1, 0)
	rd, ar := mkOp(1, 1, Committed, 0)
	ar.Read(2, 0xF1, 0) // value of key 1 surfaced under key 2
	rep := check(t, []*Op{w, rd}, Opts{Level: ReadCommitted})
	wantClass(t, rep, "misdirected-read")
}

func TestIntraTxnReadYourWrites(t *testing.T) {
	op, att := mkOp(0, 0, Committed, 5)
	att.Write(1, 0xA1, 0)
	att.Read(1, 0xA2, 0) // should have seen its own 0xA1
	rep := check(t, []*Op{op}, Opts{Level: ReadCommitted})
	wantClass(t, rep, "intra-txn-ryw")
}

func TestNonRepeatableRead(t *testing.T) {
	w, aw := mkOp(0, 0, Committed, 5)
	aw.Write(1, 0xA1, 0)
	rd, ar := mkOp(1, 1, Committed, 0)
	ar.Read(1, 0, 0)
	ar.Read(1, 0xA1, 0)
	// Legal under read committed...
	wantClean(t, check(t, []*Op{w, rd}, Opts{Level: ReadCommitted}))
	// ...an anomaly under serializable.
	rep := check(t, []*Op{w, rd}, Opts{Level: Serializable})
	wantClass(t, rep, "non-repeatable-read")
}

func TestUnstampedCommitAndStampCollision(t *testing.T) {
	w1, a1 := mkOp(0, 0, Committed, 0) // committed write, no stamp
	a1.Write(1, 0xA1, 0)
	rep := check(t, []*Op{w1}, Opts{Level: ReadCommitted})
	wantClass(t, rep, "unstamped-commit")

	w2, a2 := mkOp(1, 1, Committed, 9)
	a2.Write(2, 0xB1, 0)
	w3, a3 := mkOp(2, 2, Committed, 9) // same stamp, same key
	a3.Write(2, 0xB2, 0)
	rep = check(t, []*Op{w2, w3}, Opts{Level: ReadCommitted})
	wantClass(t, rep, "stamp-collision")
}

// ---- cyclic anomalies ----------------------------------------------------

func TestG1cDirtyReadCross(t *testing.T) {
	// T1 and T2 each observe the other's write: wr cycle (cyclic
	// information flow), detectable already at read committed.
	t1, a1 := mkOp(0, 0, Committed, 5)
	a1.Write(1, 0xA1, 0)
	a1.Read(2, 0xB1, 0)
	t2, a2 := mkOp(1, 1, Committed, 6)
	a2.Write(2, 0xB1, 0)
	a2.Read(1, 0xA1, 0)
	rep := check(t, []*Op{t1, t2}, Opts{Level: ReadCommitted})
	wantClass(t, rep, "G1c")
	for _, a := range rep.Anomalies {
		if a.Class == "G1c" && len(a.Cycle) != 3 { // 2 steps + closing node
			t.Fatalf("expected minimal 2-cycle witness, got %v", a.Cycle)
		}
	}
}

func TestLostUpdate(t *testing.T) {
	// Both transactions read the initial value and blind-increment:
	// classic lost update, an rw+ww 2-cycle on one key.
	t1, a1 := mkOp(0, 0, Committed, 5)
	a1.Read(1, 0, 0)
	a1.Write(1, 0xA1, 0)
	t2, a2 := mkOp(1, 1, Committed, 6)
	a2.Read(1, 0, 0)
	a2.Write(1, 0xA2, 0)
	// Invisible at read committed...
	wantClean(t, check(t, []*Op{t1, t2}, Opts{Level: ReadCommitted}))
	// ...caught at serializable, labeled specifically.
	rep := check(t, []*Op{t1, t2}, Opts{Level: Serializable})
	wantClass(t, rep, "lost-update")
}

func TestWriteSkew(t *testing.T) {
	// T1 reads k2 and writes k1; T2 reads k1 and writes k2: two rw
	// anti-dependencies over two keys.
	t1, a1 := mkOp(0, 0, Committed, 5)
	a1.Read(2, 0, 0)
	a1.Write(1, 0xA1, 0)
	t2, a2 := mkOp(1, 1, Committed, 6)
	a2.Read(1, 0, 0)
	a2.Write(2, 0xB1, 0)
	wantClean(t, check(t, []*Op{t1, t2}, Opts{Level: ReadCommitted}))
	rep := check(t, []*Op{t1, t2}, Opts{Level: Serializable})
	wantClass(t, rep, "write-skew")
}

func TestGSingleStaleSessionRead(t *testing.T) {
	// A session observes version 2 of a key and then version 1: with
	// session order on, that is a (so, rw, wr) cycle.
	w1, aw1 := mkOp(0, 0, Committed, 10)
	aw1.Write(1, 0xA1, 0)
	w2, aw2 := mkOp(1, 0, Committed, 20)
	aw2.Write(1, 0xA2, 0)
	r1, ar1 := mkOp(2, 1, Committed, 0)
	ar1.Read(1, 0xA2, 0)
	r2, ar2 := mkOp(3, 1, Committed, 0)
	ar2.Read(1, 0xA1, 0) // went backwards
	ops := []*Op{w1, w2, r1, r2}
	// Without session order the reads are individually consistent.
	wantClean(t, check(t, ops, Opts{Level: Serializable}))
	rep := check(t, ops, Opts{Level: Serializable, SessionOrder: true})
	if rep.Ok() {
		t.Fatal("stale session read not detected")
	}
	found := false
	for _, a := range rep.Anomalies {
		if a.Class == "G-single" || a.Class == "stale-read" {
			found = true
			if len(a.Cycle) == 0 {
				t.Fatalf("cycle anomaly without witness: %s", a)
			}
		}
	}
	if !found {
		t.Fatalf("expected G-single/stale-read, got %v", classes(rep))
	}
}

// ---- indeterminate outcomes ---------------------------------------------

func TestIndeterminateWriteMaySurface(t *testing.T) {
	// A write that failed past the durability point (stamp set, outcome
	// unknown) may legally be observed later — no G1a.
	ind, ai := mkOp(0, 0, Indeterminate, 7)
	ai.Write(1, 0xA1, 0)
	rd, ar := mkOp(1, 1, Committed, 0)
	ar.Read(1, 0xA1, 0)
	for _, sw := range []bool{true, false} {
		rep := check(t, []*Op{ind, rd}, Opts{Level: Serializable, SingleWriter: sw})
		wantClean(t, rep)
	}
}

func TestIndeterminateWriteMayVanish(t *testing.T) {
	// ...and it may equally never surface: a later committed write by the
	// owner session supersedes it without any anomaly, even when readers
	// only ever see the committed value.
	ind, ai := mkOp(0, 0, Indeterminate, 0) // not even stamped
	ai.Write(1, 0xA1, 0)
	w, aw := mkOp(1, 0, Committed, 9)
	aw.Write(1, 0xA2, 0)
	rd, ar := mkOp(2, 1, Committed, 0)
	ar.Read(1, 0xA2, 0)
	for _, sw := range []bool{true, false} {
		rep := check(t, []*Op{ind, w, rd}, Opts{Level: Serializable, SessionOrder: true, SingleWriter: sw})
		wantClean(t, rep)
	}
}

func TestObservedIndeterminateWriteSurfacesWhole(t *testing.T) {
	// An unacknowledged transaction wrote two keys. A reader that sees it
	// on one key has proved it took effect, so seeing the other key's older
	// version is half a transaction: a cycle. Seeing both, or neither, is
	// clean.
	for _, tc := range []struct {
		name   string
		x, y   uint64
		broken bool
	}{{"whole", 0xA1, 0xB1, false}, {"none", 0, 0, false}, {"half", 0xA1, 0, true}} {
		ind, ai := mkOp(0, 0, Indeterminate, 0)
		ai.Write(1, 0xA1, 0)
		ai.Write(2, 0xB1, 0)
		rd, ar := mkOp(1, 1, Committed, 0)
		ar.Read(1, tc.x, 0)
		ar.Read(2, tc.y, 0)
		rep := check(t, []*Op{ind, rd}, Opts{Level: Serializable, SingleWriter: true})
		if tc.broken {
			wantClass(t, rep, "G-single")
		} else {
			wantClean(t, rep)
		}
	}
}

// ---- retry lineage -------------------------------------------------------

func TestRetryLineageIsOneLogicalOp(t *testing.T) {
	// An aborted attempt whose retry commits the same value is ONE
	// logical write: reads of the value must bind to the committed
	// attempt, not trip G1a, and the op contributes one graph node.
	op := &Op{ID: 0, Session: 0}
	first := op.NewAttempt(0)
	first.Write(1, 0xA1, 0)
	first.Finish(Aborted, 10, 0, errors.New("conflict"))
	second := op.NewAttempt(20)
	second.Write(1, 0xA1, 0)
	second.Finish(Committed, 30, 5, nil)

	rd, ar := mkOp(1, 1, Committed, 0)
	ar.Read(1, 0xA1, 0)

	rep := check(t, []*Op{op, rd}, Opts{Level: Serializable, SessionOrder: true})
	wantClean(t, rep)
	if rep.Txns != 2 {
		t.Fatalf("retried op counted as %d nodes, want 2 total txns", rep.Txns)
	}
}

func TestRetryLineageAbortedOnly(t *testing.T) {
	// If every attempt aborted, observing the value is still G1a.
	op := &Op{ID: 0, Session: 0}
	for i := 0; i < 2; i++ {
		a := op.NewAttempt(time.Duration(i) * 10)
		a.Write(1, 0xA1, 0)
		a.Finish(Aborted, time.Duration(i)*10+5, 0, errors.New("conflict"))
	}
	rd, ar := mkOp(1, 1, Committed, 0)
	ar.Read(1, 0xA1, 0)
	rep := check(t, []*Op{op, rd}, Opts{Level: ReadCommitted})
	wantClass(t, rep, "G1a")
}

// ---- invalid histories ---------------------------------------------------

func TestInvalidDuplicateValueAcrossOps(t *testing.T) {
	w1, a1 := mkOp(0, 0, Committed, 5)
	a1.Write(1, 0xA1, 0)
	w2, a2 := mkOp(1, 1, Committed, 6)
	a2.Write(2, 0xA1, 0)
	_, err := Check([]*Op{w1, w2}, Opts{})
	if !errors.Is(err, ErrInvalidHistory) {
		t.Fatalf("want ErrInvalidHistory, got %v", err)
	}
}

func TestInvalidMultiWriterInSingleWriterMode(t *testing.T) {
	w1, a1 := mkOp(0, 0, Committed, 5)
	a1.Write(1, 0xA1, 0)
	w2, a2 := mkOp(1, 1, Committed, 6)
	a2.Write(1, 0xA2, 0)
	_, err := Check([]*Op{w1, w2}, Opts{SingleWriter: true})
	if !errors.Is(err, ErrInvalidHistory) {
		t.Fatalf("want ErrInvalidHistory, got %v", err)
	}
}

func TestInvalidZeroValueWrite(t *testing.T) {
	w, a := mkOp(0, 0, Committed, 5)
	a.Write(1, 0, 0)
	_, err := Check([]*Op{w}, Opts{})
	if !errors.Is(err, ErrInvalidHistory) {
		t.Fatalf("want ErrInvalidHistory, got %v", err)
	}
}

// ---- shed ops ------------------------------------------------------------

func TestShedOpsAreIgnored(t *testing.T) {
	shed, _ := mkOp(0, 0, Shed, 0)
	w, aw := mkOp(1, 0, Committed, 5)
	aw.Write(1, 0xA1, 0)
	rep := check(t, []*Op{shed, w}, Opts{Level: Serializable, SessionOrder: true})
	wantClean(t, rep)
	if rep.Txns != 1 {
		t.Fatalf("shed op counted as node: txns=%d", rep.Txns)
	}
}

// ---- recorder ------------------------------------------------------------

func TestRecorderConcurrentBegin(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	const workers, perWorker = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				op := r.Begin(w, 0)
				a := op.NewAttempt(0)
				a.Write(uint64(w*perWorker+i+1), uint64(op.ID+1), 0)
				a.Finish(Committed, 1, uint64(op.ID+1), nil)
			}
		}(w)
	}
	wg.Wait()
	ops := r.Ops()
	if len(ops) != workers*perWorker {
		t.Fatalf("ops=%d", len(ops))
	}
	seen := map[int]bool{}
	for _, op := range ops {
		if seen[op.ID] {
			t.Fatalf("duplicate op ID %d", op.ID)
		}
		seen[op.ID] = true
	}
	nops, atts, evs := r.Counts()
	if nops != workers*perWorker || atts != nops || evs != nops {
		t.Fatalf("counts: ops=%d attempts=%d events=%d", nops, atts, evs)
	}
}

func TestHashVal(t *testing.T) {
	if HashVal(nil) != 0 || HashVal(make([]byte, 32)) != 0 {
		t.Fatal("all-zero values must hash to 0")
	}
	a, b := HashVal([]byte("alpha")), HashVal([]byte("beta"))
	if a == 0 || b == 0 || a == b {
		t.Fatalf("hashes: %x %x", a, b)
	}
}

func TestReportSummaryAndStrings(t *testing.T) {
	w, aw := mkOp(0, 0, Committed, 5)
	aw.Write(1, 0xA1, 0)
	rep := check(t, []*Op{w}, Opts{Level: Serializable})
	if !strings.Contains(rep.Summary(), "level=serializable") {
		t.Fatalf("summary: %s", rep.Summary())
	}
	if Committed.String() != "committed" || Shed.String() != "shed" {
		t.Fatal("outcome strings")
	}
}
