package sim

import (
	"fmt"
	"strings"
	"time"
)

// Trace is a per-worker virtual-time span tree. Attach it to exactly one
// Clock (Clock.SetTrace); every instrumented substrate operation performed
// on that clock then records a Span, nested under whatever span was open
// when the operation began. Like the Clock itself, a Trace is not safe for
// concurrent use — one worker, one clock, one trace.
//
// Spans carry the same site labels the fault layer uses ("rdma.read",
// "logstore.append", ...), so a latency breakdown and a fault replay talk
// about the same places.
type Trace struct {
	Name  string
	roots []*Span
	cur   *Span
}

// NewTrace returns an empty trace.
func NewTrace(name string) *Trace { return &Trace{Name: name} }

// Span is one timed operation in virtual time: [Start, End) on the owning
// worker's clock, with the bytes the operation moved (0 when meaningless).
type Span struct {
	Site       string
	Start, End time.Duration
	Bytes      int64
	Children   []*Span
	parent     *Span
}

// Duration reports the span's virtual elapsed time.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return s.End - s.Start
}

// Root returns the first top-level span (nil if none finished yet).
func (t *Trace) Root() *Span {
	if t == nil || len(t.roots) == 0 {
		return nil
	}
	return t.roots[0]
}

// Roots returns all top-level spans.
func (t *Trace) Roots() []*Span {
	if t == nil {
		return nil
	}
	return t.roots
}

func (t *Trace) push(site string, now time.Duration) *Span {
	sp := &Span{Site: site, Start: now}
	if t.cur != nil {
		sp.parent = t.cur
		t.cur.Children = append(t.cur.Children, sp)
	} else {
		t.roots = append(t.roots, sp)
	}
	t.cur = sp
	return sp
}

func (t *Trace) pop(sp *Span, now time.Duration, bytes int64) {
	sp.End = now
	sp.Bytes = bytes
	t.cur = sp.parent
}

// String renders the span tree, one span per line, children indented under
// their parent with the virtual duration and payload size of each span.
func (t *Trace) String() string {
	var b strings.Builder
	if t.Name != "" {
		fmt.Fprintf(&b, "trace %s\n", t.Name)
	}
	for _, r := range t.roots {
		writeSpan(&b, r, 0)
	}
	return b.String()
}

func writeSpan(b *strings.Builder, sp *Span, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	fmt.Fprintf(b, "%s  %v", sp.Site, sp.Duration())
	if sp.Bytes > 0 {
		fmt.Fprintf(b, "  [%dB]", sp.Bytes)
	}
	b.WriteByte('\n')
	for _, ch := range sp.Children {
		writeSpan(b, ch, depth+1)
	}
}

// Op is one in-flight observed operation, returned by Config.Begin. The
// zero value is inert: when neither tracing nor a stats registry is
// attached, Begin/End cost a few branches and zero allocations.
type Op struct {
	c     *Clock
	reg   *Registry
	sp    *Span
	site  string
	start time.Duration
}

// Begin starts an observed operation at site on the worker's clock. It
// opens a trace span if the clock has a trace attached, and arranges for
// the elapsed virtual time and byte count to be recorded in the config's
// stats registry — and an EvOp event in the clock's sink — at End. Safe
// with nil clock/config pieces.
func (c *Config) Begin(clk *Clock, site string) Op {
	if clk == nil || c == nil || (c.Stats == nil && clk.trace == nil && clk.events == nil) {
		return Op{}
	}
	op := Op{c: clk, reg: c.Stats, site: site, start: clk.now}
	if clk.trace != nil {
		op.sp = clk.trace.push(site, clk.now)
	}
	return op
}

// RPC charges clk one kernel TCP round trip carrying n bytes, observed as
// the site "tcp.rpc".
func (c *Config) RPC(clk *Clock, n int) {
	op := c.Begin(clk, "tcp.rpc")
	clk.Advance(c.TCP.Cost(n))
	op.End(int64(n))
}

// End finishes the operation, attributing everything the clock accumulated
// since Begin (device charges, meter penalties, injected delays, nested
// work) to the site. bytes is the payload the operation moved, 0 if not
// meaningful. End on a zero Op is a no-op.
func (o Op) End(bytes int64) {
	if o.c == nil {
		return
	}
	now := o.c.now
	if o.sp != nil {
		o.c.trace.pop(o.sp, now, bytes)
	}
	if o.reg != nil {
		o.reg.Observe(o.site, now-o.start, bytes, now)
	}
	if o.c.events != nil {
		o.c.events.Emit(Event{T: now, Kind: EvOp, Site: o.site, Dur: now - o.start, Bytes: bytes})
	}
}
