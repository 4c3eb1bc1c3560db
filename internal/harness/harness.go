// Package harness is the experimental platform the tutorial's Future
// Directions section calls for (§4): a registry of experiments spanning
// hardware platforms (RDMA, CXL, PM), workloads (OLTP, OLAP), and
// disaggregation forms (storage, memory), each regenerating one of the
// quantitative claims made or cited by the paper. Every experiment prints
// paper-style tables and records shape checks (who wins, by roughly what
// factor) so the suite is self-validating.
package harness

import (
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/metrics"
	"github.com/disagglab/disagg/internal/sim"
)

// Scale selects experiment sizing.
type Scale int

// Scales.
const (
	// Quick is CI-sized: seconds, shape-preserving.
	Quick Scale = iota
	// Full is the paper-style run.
	Full
)

// pick returns q at Quick scale and f at Full scale.
func pick[T any](s Scale, q, f T) T {
	if s == Full {
		return f
	}
	return q
}

// runPhase runs body under sim.RunGroup as the phase after wall: workers
// start at wall's time and wall moves to the phase's end, so meters see one
// timeline. It returns the workers' ops and the phase's own span.
func runPhase(wall *sim.Clock, n int, body func(id int, c *sim.Clock) int) (ops int, span time.Duration) {
	start := wall.Now()
	res := sim.RunGroup(n, func(id int, c *sim.Clock) int {
		c.AdvanceTo(start)
		return body(id, c)
	})
	wall.AdvanceTo(res.MakeSpan)
	return res.TotalOps, res.MakeSpan - start
}

// retire closes each engine that is an io.Closer, once the experiment is done
// with it (its rows, trace and audits taken): a retired compute node's caches
// hand their frames to the page free list, where the next engine's first
// fills find them instead of allocating.
func retire(es ...engine.Engine) {
	for _, e := range es {
		if c, ok := e.(io.Closer); ok {
			c.Close()
		}
	}
}

// Check is one shape assertion an experiment makes about its own results.
type Check struct {
	Name   string
	OK     bool
	Detail string
}

// Result is an experiment's output.
type Result struct {
	ID     string
	Title  string
	Tables []*metrics.Table
	Checks []Check
	Notes  []string
	// Trace, when non-nil, is the span tree of one representative
	// operation (recorded when cfg.Trace is set; see Result.traceOp).
	Trace *sim.Trace
}

// table creates and registers a table.
func (r *Result) table(title string, header ...string) *metrics.Table {
	t := metrics.NewTable(title, header...)
	r.Tables = append(r.Tables, t)
	return t
}

// check records a shape assertion.
func (r *Result) check(name string, ok bool, detail string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, OK: ok, Detail: fmt.Sprintf(detail, args...)})
}

// note records free-form commentary printed under the tables.
func (r *Result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// traceOp records the span tree of one representative operation when
// cfg.Trace is set: fn runs on a fresh clock with a trace attached, the
// whole operation wrapped in a root span named site, so the root's
// duration is exactly the operation's end-to-end virtual latency. A check
// pins that equality so the trace cannot silently lose charged time.
func (r *Result) traceOp(cfg *sim.Config, site string, fn func(c *sim.Clock)) {
	if !cfg.Trace {
		return
	}
	tr := sim.NewTrace(site)
	c := sim.NewClock()
	c.SetTrace(tr)
	op := cfg.Begin(c, site)
	fn(c)
	op.End(0)
	r.Trace = tr
	r.note("traced representative op %s: end-to-end %v", site, c.Now())
	r.check("trace root equals end-to-end latency",
		tr.Root() != nil && tr.Root().Duration() == c.Now(),
		"root %v vs clock %v", tr.Root().Duration(), c.Now())
}

// Failed reports whether any check failed.
func (r *Result) Failed() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return true
		}
	}
	return false
}

// Experiment is one registry entry.
type Experiment struct {
	ID    string
	Title string
	Claim string // the paper statement being reproduced
	// Aliases are alternate -run names (e.g. "E-batch" for E24), for
	// callers that address an experiment by topic rather than number.
	Aliases []string
	Run     func(cfg *sim.Config, s Scale) *Result
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the experiments in ID order.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool {
		// Numeric-aware: E2 < E10.
		return expNum(out[i].ID) < expNum(out[j].ID)
	})
	return out
}

func expNum(id string) int {
	n := 0
	for _, ch := range id {
		if ch >= '0' && ch <= '9' {
			n = n*10 + int(ch-'0')
		}
	}
	return n
}

// Lookup finds an experiment by ID or alias (case-sensitive, e.g. "E6"
// or "E-batch").
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
		for _, a := range e.Aliases {
			if a == id {
				return e, true
			}
		}
	}
	return Experiment{}, false
}

// Render writes a result as text.
func Render(w io.Writer, r *Result) {
	fmt.Fprintf(w, "==== %s: %s ====\n", r.ID, r.Title)
	for _, t := range r.Tables {
		fmt.Fprintln(w, t.String())
	}
	if r.Trace != nil {
		fmt.Fprintln(w, "span tree (virtual time):")
		fmt.Fprint(w, r.Trace.String())
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, c := range r.Checks {
		status := "PASS"
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  [%s] %s — %s\n", status, c.Name, c.Detail)
	}
	fmt.Fprintln(w)
}

// ratio formats a speedup factor.
func ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
