package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one wall-clock interval the benchmark recorded around a call it
// made into a layer. Parent is an index into the same slice (-1 for a
// root); spans of one operation share Op.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int64  `json:"op"`
	Tag     string `json:"tag,omitempty"`
}

// tracer holds one goroutine's spans in memory. A nil *tracer records
// nothing, so untraced runs pay one branch per call site.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string, op int64, tag string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, StartNs: time.Since(t.t0).Nanoseconds(), Parent: parent, Op: op, Tag: tag})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, appending outcome to its tag when non-empty.
func (t *tracer) end(id int, outcome string) {
	if t == nil {
		return
	}
	sp := &t.spans[id]
	sp.EndNs = time.Since(t.t0).Nanoseconds()
	if outcome != "" {
		if sp.Tag != "" {
			sp.Tag += " "
		}
		sp.Tag += outcome
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// traceLog collects the tracers of a run (one per goroutine that made
// calls) and writes them out together when the run ends.
type traceLog struct {
	mu      sync.Mutex
	t0      time.Time
	tracers []*tracer
}

func newTraceLog() *traceLog { return &traceLog{t0: time.Now()} }

// tracer hands out a fresh per-goroutine tracer; nil log, nil tracer.
func (l *traceLog) tracer() *tracer {
	if l == nil {
		return nil
	}
	t := newTracer(l.t0)
	l.mu.Lock()
	l.tracers = append(l.tracers, t)
	l.mu.Unlock()
	return t
}

// spans flattens every tracer into one slice, rebasing parent indexes.
func (l *traceLog) spans() []span {
	var out []span
	for _, t := range l.tracers {
		base := len(out)
		for _, sp := range t.spans {
			if sp.Parent >= 0 {
				sp.Parent += base
			}
			out = append(out, sp)
		}
	}
	return out
}

func (l *traceLog) write(path string) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{l.spans()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
