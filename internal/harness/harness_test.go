package harness

import (
	"bytes"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/sim"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 30 {
		t.Fatalf("registry has %d experiments, want 30 (E1-E20 claims + E21-E30 extensions)", len(all))
	}
	for i, e := range all {
		want := i + 1
		if expNum(e.ID) != want {
			t.Fatalf("position %d holds %s", i, e.ID)
		}
		if e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Fatalf("%s incomplete", e.ID)
		}
	}
	if _, ok := Lookup("E6"); !ok {
		t.Fatal("Lookup(E6) failed")
	}
	if e, ok := Lookup("E-batch"); !ok || e.ID != "E24" {
		t.Fatalf("Lookup(E-batch) = (%q, %v), want E24 via alias", e.ID, ok)
	}
	if _, ok := Lookup("E99"); ok {
		t.Fatal("Lookup(E99) succeeded")
	}
}

// TestAllExperimentsPassAtQuickScale is the integration suite: every
// experiment must reproduce its claimed shape. It runs with tracing on,
// so each experiment must also record a representative span tree whose
// root equals the op's end-to-end virtual latency (traceOp pins that
// equality as a check).
func TestAllExperimentsPassAtQuickScale(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Trace = true
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			r := e.Run(cfg.Clone(), Quick)
			if len(r.Checks) == 0 {
				t.Fatalf("%s made no checks", e.ID)
			}
			if r.Trace == nil {
				t.Fatalf("%s recorded no trace with cfg.Trace set", e.ID)
			}
			found := false
			for _, c := range r.Checks {
				if c.Name == "trace root equals end-to-end latency" {
					found = true
				}
			}
			if !found {
				t.Fatalf("%s did not pin the trace-root invariant", e.ID)
			}
			var buf bytes.Buffer
			Render(&buf, r)
			if r.Failed() {
				t.Fatalf("%s failed:\n%s", e.ID, buf.String())
			}
			if !strings.Contains(buf.String(), "PASS") {
				t.Fatalf("render missing check output:\n%s", buf.String())
			}
		})
	}
}

// TestQuickScaleRendersIdenticalBytes renders every experiment at quick
// scale and requires the bytes of its section of testdata/quick.golden:
// tables, notes and checks are a function of the seed and the virtual
// clocks, never of the Go scheduler, so a change that moves a simulated
// number shows up here as a diff. The file is the CLI's output; regenerate
// it with
//
//	go run ./cmd/disagg-bench -run all > internal/harness/testdata/quick.golden
func TestQuickScaleRendersIdenticalBytes(t *testing.T) {
	golden, err := os.ReadFile("testdata/quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	// Each section runs from its "==== E<n>: " header to the next one.
	want := map[string]*strings.Builder{}
	var section *strings.Builder
	for _, line := range strings.SplitAfter(string(golden), "\n") {
		if id, ok := strings.CutPrefix(line, "==== "); ok {
			section = new(strings.Builder)
			want[id[:strings.IndexByte(id, ':')]] = section
		}
		if section != nil {
			section.WriteString(line)
		}
	}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			Render(&buf, e.Run(sim.DefaultConfig(), Quick))
			w, ok := want[e.ID]
			if !ok {
				t.Fatalf("%s has no section in testdata/quick.golden", e.ID)
			}
			if got := buf.String(); got != w.String() {
				t.Fatalf("%s differs from testdata/quick.golden:\n%s", e.ID, firstDiff(w.String(), got))
			}
		})
	}
}

// firstDiff shows the first line where a and b differ.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return "line " + strconv.Itoa(i+1) + ":\n  " + al[i] + "\n  " + bl[i]
		}
	}
	return "one output is a prefix of the other"
}

func TestRenderIncludesTables(t *testing.T) {
	r := &Result{ID: "EX", Title: "demo"}
	tb := r.table("demo table", "a", "b")
	tb.Row(1, 2)
	r.note("a note")
	r.check("always", true, "fine")
	var buf bytes.Buffer
	Render(&buf, r)
	out := buf.String()
	for _, want := range []string{"==== EX", "demo table", "note: a note", "[PASS] always"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestPick(t *testing.T) {
	if pick(Quick, 1, 2) != 1 || pick(Full, 1, 2) != 2 {
		t.Fatal("pick broken")
	}
}

func TestExpNum(t *testing.T) {
	if expNum("E2") != 2 || expNum("E17") != 17 {
		t.Fatal("expNum broken")
	}
}

// TestRosterCapabilities pins the optional interfaces each roster engine
// satisfies. Nine engines take most of their methods from the embedded
// engine.Pipeline, so a method added there reaches all nine at once; this
// table is where such a widening shows. Experiments pick engines by these
// interfaces (engine.Caps), so a column that changes changes a table.
func TestRosterCapabilities(t *testing.T) {
	type caps struct {
		name                                                    string
		recoverer, reader, groupCommitter, checkpointer, closer bool
	}
	want := []caps{
		{"monolithic", true, false, false, true, true},
		{"shared-nothing", false, false, false, true, true},
		{"aurora", true, true, true, true, true},
		{"socrates", true, false, true, true, true},
		{"taurus", true, false, true, true, true},
		{"polardb", true, false, true, true, true},
		{"legobase", true, false, false, true, true},
		{"pilotdb", true, false, false, true, true},
		{"snowflake-kv", true, false, false, true, true},
		{"serverless", true, true, false, true, true},
	}
	if len(want) != len(roster) {
		t.Fatalf("table has %d rows, roster %d engines", len(want), len(roster))
	}
	var gc, readers []string
	for i, ent := range roster {
		e := ent.build(sim.DefaultConfig(), oltpLayout())
		got := caps{name: ent.name}
		_, got.recoverer = e.(engine.Recoverer)
		_, got.reader = e.(engine.Reader)
		_, got.groupCommitter = e.(engine.GroupCommitter)
		_, got.checkpointer = e.(engine.Checkpointer)
		_, got.closer = e.(io.Closer)
		retire(e)
		if got != want[i] {
			t.Errorf("capabilities\n got %+v\nwant %+v", got, want[i])
		}
		if got.groupCommitter {
			gc = append(gc, ent.name)
		}
		if got.reader {
			readers = append(readers, ent.name)
		}
	}
	if !slices.Equal(gc, groupCommitters) {
		t.Errorf("group committers %v, groupCommitters %v", gc, groupCommitters)
	}
	if !slices.Equal(readers, []string{"aurora", "serverless"}) {
		t.Errorf("readers %v, want aurora and serverless", readers)
	}
}
