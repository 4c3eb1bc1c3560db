package history

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Level is the isolation level a history is checked against.
type Level uint8

// Checkable levels, by Adya's portable definitions.
const (
	// ReadCommitted (PL-2) forbids G0 (write cycles), G1a (aborted
	// reads), G1b (intermediate reads) and G1c (cyclic information
	// flow over ww/wr edges).
	ReadCommitted Level = iota
	// Serializable (PL-3) additionally forbids any cycle in the full
	// dependency graph (ww, wr, and rw anti-dependency edges) — G-single
	// and G2, which cover lost update, fractured reads, and write skew.
	Serializable
)

func (l Level) String() string {
	if l == Serializable {
		return "serializable"
	}
	return "read-committed"
}

// Opts configures a check.
type Opts struct {
	// Level selects the phenomena that count as violations.
	Level Level
	// SessionOrder adds program-order edges between each session's
	// committed ops, strengthening the check to strong-session
	// variants: a session that writes (or reads) a key and later
	// observes an older version forms a cycle. Spans replica routing,
	// so stale replica reads become witnessable.
	SessionOrder bool
	// SingleWriter derives each key's version order from the writing
	// session's program order instead of commit stamps. It requires
	// every key to be written by at most one session (the conformance
	// workload shape) and is exact even for indeterminate writes.
	SingleWriter bool
}

// Anomaly is one detected violation.
type Anomaly struct {
	// Class is the anomaly taxon: G0, G1a, G1b, G1c, G-single, G2,
	// lost-update, write-skew, stale-read, non-repeatable-read,
	// intra-txn-ryw, garbled-read, misdirected-read, unstamped-commit,
	// stamp-collision.
	Class string
	// Message is the one-line human-readable statement.
	Message string
	// Cycle is the minimal witness cycle (empty for direct, non-cyclic
	// anomalies), formatted one step per entry.
	Cycle []string
}

func (a Anomaly) String() string {
	if len(a.Cycle) == 0 {
		return fmt.Sprintf("%s: %s", a.Class, a.Message)
	}
	return fmt.Sprintf("%s: %s\n    witness: %s", a.Class, a.Message, strings.Join(a.Cycle, " "))
}

// Report is a finished check.
type Report struct {
	Level     Level
	Txns      int // dependency-graph nodes (committed + observed-indeterminate)
	Reads     int // external reads checked
	Writes    int // recorded writes indexed
	Keys      int // keys with at least one version
	Edges     int // dependency edges built
	Anomalies []Anomaly
	Elapsed   time.Duration // real (wall) time spent checking
}

// Ok reports whether the history passed.
func (r *Report) Ok() bool { return len(r.Anomalies) == 0 }

// Summary is a one-line digest for logs and experiment tables.
func (r *Report) Summary() string {
	return fmt.Sprintf("level=%s txns=%d reads=%d writes=%d keys=%d edges=%d anomalies=%d (%v)",
		r.Level, r.Txns, r.Reads, r.Writes, r.Keys, r.Edges, len(r.Anomalies), r.Elapsed.Round(time.Microsecond))
}

// edge kinds.
type ekind uint8

const (
	ww ekind = iota // version order: from writer of v_i to writer of v_i+1
	wr              // reads-from: from writer to reader
	rw              // anti-dependency: from reader of v_i to writer of v_i+1
	so              // session order: program order within one session
)

func (k ekind) String() string { return [...]string{"ww", "wr", "rw", "so"}[k] }

type edge struct {
	to   int
	kind ekind
	key  uint64
}

// node is one transaction in the dependency graph: a committed attempt,
// or an indeterminate attempt whose writes may be (and for edge purposes
// were) observed. observed marks an indeterminate attempt a committed
// transaction read from: it took effect, and took effect whole.
type node struct {
	op        *Op
	att       *Attempt
	committed bool
	observed  bool
	out       []edge
}

func (n *node) name() string {
	tag := ""
	if !n.committed {
		tag = "?"
	}
	r := ""
	if n.op.Replica > 0 {
		r = fmt.Sprintf("@r%d", n.op.Replica-1)
	}
	return fmt.Sprintf("s%d.op%d%s%s", n.op.Session, n.op.ID, r, tag)
}

// writeRef locates one recorded write.
type writeRef struct {
	op    *Op
	att   *Attempt
	key   uint64
	final bool // last write of key within its attempt
	node  int  // graph node index, -1 for definitely-aborted attempts
}

// ErrInvalidHistory reports a history the checker cannot reason about —
// a workload bug, not an engine anomaly (e.g. two distinct transactions
// wrote the same value).
var ErrInvalidHistory = errors.New("history: invalid history")

// Check verifies the recorded ops against opts and returns the report.
// It returns a non-nil error only for invalid histories (duplicate write
// values, multi-writer keys in SingleWriter mode); engine misbehavior is
// reported through Report.Anomalies.
func Check(ops []*Op, opts Opts) (*Report, error) {
	start := time.Now()
	rep := &Report{Level: opts.Level}

	// ---- 1. Nodes and the write index. ------------------------------
	var nodes []*node
	// valIndex maps value fingerprints to their writes. Retry lineage:
	// the same (op, key, value) written by several attempts of one op is
	// ONE logical write — the committed attempt (or, failing that, the
	// most advanced one) is canonical, so a retried transaction cannot
	// appear as a phantom duplicate.
	valIndex := make(map[uint64]*writeRef)
	addWrite := func(ref *writeRef, val uint64) error {
		prev, ok := valIndex[val]
		if !ok {
			valIndex[val] = ref
			return nil
		}
		if prev.op != ref.op || prev.key != ref.key {
			return fmt.Errorf("%w: value %016x written by both %s (key %d) and %s (key %d) — workloads must write unique values",
				ErrInvalidHistory, val, opName(prev.op), prev.key, opName(ref.op), ref.key)
		}
		// Same op, same key: retry lineage. Prefer the canonical attempt.
		if rank(ref) > rank(prev) {
			valIndex[val] = ref
		}
		return nil
	}
	for _, op := range ops {
		for _, att := range op.Attempts {
			switch att.Outcome {
			case Shed:
				continue
			case Committed:
				nodes = append(nodes, &node{op: op, att: att, committed: true})
			case Aborted:
				// Definite abort: no node, but its writes feed G1a.
			default: // Indeterminate / Open
				if countWrites(att) > 0 {
					nodes = append(nodes, &node{op: op, att: att})
				}
			}
		}
	}
	nodeIdx := make(map[*Attempt]int, len(nodes))
	for i, n := range nodes {
		nodeIdx[n.att] = i
	}
	for _, op := range ops {
		for _, att := range op.Attempts {
			if att.Outcome == Shed {
				continue
			}
			idx, hasNode := nodeIdx[att]
			if !hasNode {
				idx = -1
			}
			last := lastWriteIdx(att)
			for i, e := range att.Events {
				if e.Kind != WriteEvent {
					continue
				}
				rep.Writes++
				if e.Val == 0 {
					return nil, fmt.Errorf("%w: %s wrote the all-zero value to key %d — zero is reserved for the initial state",
						ErrInvalidHistory, opName(op), e.Key)
				}
				ref := &writeRef{op: op, att: att, key: e.Key, final: last[e.Key] == i, node: idx}
				if err := addWrite(ref, e.Val); err != nil {
					return nil, err
				}
			}
		}
	}
	rep.Txns = len(nodes)

	// ---- 2. Per-key version order. -----------------------------------
	// versions[k] lists the final committed (and, in SingleWriter mode,
	// indeterminate) writes of k in version order; pos[k][node] is the
	// node's position in that chain.
	versions := make(map[uint64][]int)
	for i, n := range nodes {
		seen := map[uint64]bool{}
		for _, e := range n.att.Events {
			if e.Kind != WriteEvent || seen[e.Key] {
				continue
			}
			seen[e.Key] = true
			if !opts.SingleWriter && !n.committed {
				// Without a trustworthy order source, indeterminate
				// writes stay out of the chain (they still resolve
				// reads through valIndex).
				continue
			}
			versions[e.Key] = append(versions[e.Key], i)
		}
	}
	rep.Keys = len(versions)
	for key, chain := range versions {
		if opts.SingleWriter {
			sess := -1
			for _, i := range chain {
				if s := nodes[i].op.Session; sess == -1 {
					sess = s
				} else if s != sess {
					return nil, fmt.Errorf("%w: key %d written by sessions %d and %d but SingleWriter version order was requested",
						ErrInvalidHistory, key, sess, s)
				}
			}
			sort.Slice(chain, func(a, b int) bool { return nodes[chain[a]].op.ID < nodes[chain[b]].op.ID })
			continue
		}
		for _, i := range chain {
			if nodes[i].att.Stamp == 0 {
				rep.Anomalies = append(rep.Anomalies, Anomaly{
					Class:   "unstamped-commit",
					Message: fmt.Sprintf("%s committed a write to key %d without a commit stamp — engine does not expose commit timestamps", nodes[i].name(), key),
				})
			}
		}
		sort.Slice(chain, func(a, b int) bool {
			na, nb := nodes[chain[a]], nodes[chain[b]]
			if na.att.Stamp != nb.att.Stamp {
				return na.att.Stamp < nb.att.Stamp
			}
			return na.op.ID < nb.op.ID
		})
		for j := 1; j < len(chain); j++ {
			a, b := nodes[chain[j-1]], nodes[chain[j]]
			if a.att.Stamp != 0 && a.att.Stamp == b.att.Stamp {
				rep.Anomalies = append(rep.Anomalies, Anomaly{
					Class:   "stamp-collision",
					Message: fmt.Sprintf("%s and %s share commit stamp %d on key %d — version order is ambiguous", a.name(), b.name(), a.att.Stamp, key),
				})
			}
		}
	}
	pos := make(map[uint64]map[int]int, len(versions))
	for key, chain := range versions {
		m := make(map[int]int, len(chain))
		for j, i := range chain {
			m[i] = j
		}
		pos[key] = m
	}

	addEdge := func(from, to int, kind ekind, key uint64) {
		if from == to || from < 0 || to < 0 {
			return
		}
		nodes[from].out = append(nodes[from].out, edge{to: to, kind: kind, key: key})
		rep.Edges++
	}

	// ww edges: consecutive versions.
	for key, chain := range versions {
		for j := 1; j < len(chain); j++ {
			addEdge(chain[j-1], chain[j], ww, key)
		}
	}

	// An indeterminate attempt that a committed transaction read from is
	// no longer in doubt: a reader of an older version of any key it wrote
	// anti-depends on it, as on a committed writer, so an engine that
	// surfaces half of an unacknowledged transaction leaves a cycle.
	for _, n := range nodes {
		if !n.committed {
			continue
		}
		for _, e := range n.att.Events {
			if ref, ok := valIndex[e.Val]; ok && e.Kind == ReadEvent && ref.key == e.Key && ref.node >= 0 {
				nodes[ref.node].observed = true
			}
		}
	}

	// nextCommitted returns the first committed or observed node in key's
	// chain at a position > from (-1 = start of chain), or -1.
	nextCommitted := func(key uint64, from int) int {
		chain := versions[key]
		for j := from + 1; j < len(chain); j++ {
			if n := nodes[chain[j]]; n.committed || n.observed {
				return chain[j]
			}
		}
		return -1
	}

	// ---- 3. Reads: direct checks + wr/rw edges. ----------------------
	for i, n := range nodes {
		if !n.committed {
			continue // reads of unacknowledged attempts prove nothing
		}
		own := map[uint64]uint64{} // staged writes so far, program order
		ext := map[uint64]uint64{} // first external read per key
		for _, e := range n.att.Events {
			if e.Kind == WriteEvent {
				own[e.Key] = e.Val
				continue
			}
			if v, staged := own[e.Key]; staged {
				if e.Val != v {
					rep.Anomalies = append(rep.Anomalies, Anomaly{
						Class:   "intra-txn-ryw",
						Message: fmt.Sprintf("%s staged %016x on key %d but then read %016x — transaction does not see its own writes", n.name(), v, e.Key, e.Val),
					})
				}
				continue
			}
			rep.Reads++
			if prev, again := ext[e.Key]; again {
				if prev != e.Val && opts.Level >= Serializable {
					rep.Anomalies = append(rep.Anomalies, Anomaly{
						Class:   "non-repeatable-read",
						Message: fmt.Sprintf("%s read key %d twice and saw %016x then %016x", n.name(), e.Key, prev, e.Val),
					})
				}
				// Fall through: repeated reads still get full value
				// validation and edges (a dirty read on the second read
				// of a key is no less a dirty read).
			} else {
				ext[e.Key] = e.Val
			}
			if e.Val == 0 {
				// Initial version: anti-depend on the first writer.
				if succ := nextCommitted(e.Key, -1); succ >= 0 {
					addEdge(i, succ, rw, e.Key)
				}
				continue
			}
			ref, known := valIndex[e.Val]
			switch {
			case !known:
				rep.Anomalies = append(rep.Anomalies, Anomaly{
					Class:   "garbled-read",
					Message: fmt.Sprintf("%s read %016x on key %d — no recorded transaction wrote it (torn or fabricated value)", n.name(), e.Val, e.Key),
				})
				continue
			case ref.key != e.Key:
				rep.Anomalies = append(rep.Anomalies, Anomaly{
					Class:   "misdirected-read",
					Message: fmt.Sprintf("%s read key %d but observed the value %s wrote to key %d", n.name(), e.Key, opName(ref.op), ref.key),
				})
				continue
			case ref.node < 0:
				rep.Anomalies = append(rep.Anomalies, Anomaly{
					Class:   "G1a",
					Message: fmt.Sprintf("%s read key %d from %s, which definitely aborted (dirty read of aborted data)", n.name(), e.Key, opName(ref.op)),
				})
				continue
			}
			if !ref.final {
				rep.Anomalies = append(rep.Anomalies, Anomaly{
					Class:   "G1b",
					Message: fmt.Sprintf("%s read an intermediate version of key %d from %s (overwritten within that transaction)", n.name(), e.Key, opName(ref.op)),
				})
			}
			addEdge(ref.node, i, wr, e.Key)
			if p, in := pos[e.Key][ref.node]; in && ref.final {
				if succ := nextCommitted(e.Key, p); succ >= 0 {
					addEdge(i, succ, rw, e.Key)
				}
			}
		}
	}

	// ---- 4. Session order edges. -------------------------------------
	if opts.SessionOrder {
		bySession := map[int][]int{}
		for i, n := range nodes {
			if n.committed {
				bySession[n.op.Session] = append(bySession[n.op.Session], i)
			}
		}
		for _, chain := range bySession {
			sort.Slice(chain, func(a, b int) bool { return nodes[chain[a]].op.ID < nodes[chain[b]].op.ID })
			for j := 1; j < len(chain); j++ {
				addEdge(chain[j-1], chain[j], so, 0)
			}
		}
	}

	// ---- 5. Cycle search. --------------------------------------------
	// ReadCommitted inspects the ww/wr information-flow subgraph (G0,
	// G1c); Serializable inspects the full graph including rw and
	// session edges. Each non-trivial SCC contributes one anomaly with a
	// minimal witness cycle.
	allowed := map[ekind]bool{ww: true, wr: true}
	if opts.Level >= Serializable {
		allowed[rw] = true
		allowed[so] = true
	}
	for _, scc := range stronglyConnected(nodes, allowed) {
		cycle := minimalCycle(nodes, allowed, scc)
		if len(cycle) == 0 {
			continue
		}
		rep.Anomalies = append(rep.Anomalies, classifyCycle(nodes, cycle))
	}

	rep.Elapsed = time.Since(start)
	return rep, nil
}

func opName(op *Op) string {
	return fmt.Sprintf("s%d.op%d", op.Session, op.ID)
}

// rank orders duplicate same-op writes for canonicalization.
func rank(r *writeRef) int {
	switch r.att.Outcome {
	case Committed:
		return 3
	case Indeterminate, Open:
		return 2
	default:
		return 1
	}
}

func countWrites(att *Attempt) int {
	n := 0
	for _, e := range att.Events {
		if e.Kind == WriteEvent {
			n++
		}
	}
	return n
}

// lastWriteIdx maps key -> index of the attempt's final write event.
func lastWriteIdx(att *Attempt) map[uint64]int {
	m := map[uint64]int{}
	for i, e := range att.Events {
		if e.Kind == WriteEvent {
			m[e.Key] = i
		}
	}
	return m
}

// stronglyConnected returns Tarjan SCCs of size > 1 over the allowed
// subgraph. Iterative so adversarially long chains cannot overflow the
// stack.
func stronglyConnected(nodes []*node, allowed map[ekind]bool) [][]int {
	n := len(nodes)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var sccStack []int
	var sccs [][]int
	next := 1
	type frame struct{ v, ei int }
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		frames := []frame{{v: root}}
		index[root], low[root] = next, next
		next++
		sccStack = append(sccStack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			advanced := false
			for f.ei < len(nodes[v].out) {
				e := nodes[v].out[f.ei]
				f.ei++
				if !allowed[e.kind] {
					continue
				}
				w := e.to
				if index[w] == -1 {
					index[w], low[w] = next, next
					next++
					sccStack = append(sccStack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
					advanced = true
					break
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// v is finished.
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				var scc []int
				for {
					w := sccStack[len(sccStack)-1]
					sccStack = sccStack[:len(sccStack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == v {
						break
					}
				}
				if len(scc) > 1 {
					sccs = append(sccs, scc)
				}
			}
		}
	}
	return sccs
}

// cycleStep is one hop of a witness cycle.
type cycleStep struct {
	from, to int
	kind     ekind
	key      uint64
}

// minimalCycle finds the shortest cycle inside one SCC: BFS from each
// member (capped), keeping the overall shortest loop. The result is the
// minimal witness the report prints.
func minimalCycle(nodes []*node, allowed map[ekind]bool, scc []int) []cycleStep {
	in := map[int]bool{}
	for _, v := range scc {
		in[v] = true
	}
	starts := scc
	if len(starts) > 32 {
		starts = starts[:32]
	}
	var best []cycleStep
	for _, src := range starts {
		// BFS over SCC-internal allowed edges back to src.
		type hop struct {
			node int
			prev int // index into visitOrder, -1 for root
			via  cycleStep
		}
		visited := map[int]bool{src: true}
		queue := []hop{{node: src, prev: -1}}
		var trail []hop
		found := -1
		for qi := 0; qi < len(queue) && found < 0; qi++ {
			h := queue[qi]
			trail = append(trail, h)
			ti := len(trail) - 1
			for _, e := range nodes[h.node].out {
				if !allowed[e.kind] || !in[e.to] {
					continue
				}
				step := cycleStep{from: h.node, to: e.to, kind: e.kind, key: e.key}
				if e.to == src {
					trail = append(trail, hop{node: e.to, prev: ti, via: step})
					found = len(trail) - 1
					break
				}
				if !visited[e.to] {
					visited[e.to] = true
					queue = append(queue, hop{node: e.to, prev: ti, via: step})
				}
			}
		}
		if found < 0 {
			continue
		}
		var cyc []cycleStep
		for at := found; trail[at].prev >= 0; at = trail[at].prev {
			cyc = append(cyc, trail[at].via)
		}
		for l, r := 0, len(cyc)-1; l < r; l, r = l+1, r-1 {
			cyc[l], cyc[r] = cyc[r], cyc[l]
		}
		if best == nil || len(cyc) < len(best) {
			best = cyc
		}
	}
	return best
}

// classifyCycle labels a witness cycle with its anomaly taxon.
func classifyCycle(nodes []*node, cyc []cycleStep) Anomaly {
	var nww, nwr, nrw, nso int
	keys := map[uint64]bool{}
	for _, s := range cyc {
		switch s.kind {
		case ww:
			nww++
		case wr:
			nwr++
		case rw:
			nrw++
		case so:
			nso++
		}
		if s.kind != so {
			keys[s.key] = true
		}
	}
	class := "G2"
	switch {
	case nrw == 0 && nwr == 0 && nso == 0:
		class = "G0"
	case nrw == 0:
		class = "G1c"
	case nrw == 1:
		class = "G-single"
		if len(cyc) == 2 && nww == 1 && len(keys) == 1 {
			class = "lost-update"
		}
		if len(cyc) == 2 && nso == 1 {
			class = "stale-read"
		}
	default:
		if len(cyc) == 2 && nrw == 2 && len(keys) == 2 {
			class = "write-skew"
		}
	}
	steps := make([]string, 0, len(cyc)+1)
	for _, s := range cyc {
		lbl := s.kind.String()
		if s.kind != so {
			lbl = fmt.Sprintf("%s(key %d)", s.kind, s.key)
		}
		steps = append(steps, fmt.Sprintf("%s --%s-->", nodes[s.from].name(), lbl))
	}
	steps = append(steps, nodes[cyc[0].from].name())
	return Anomaly{
		Class:   class,
		Message: fmt.Sprintf("dependency cycle of %d transaction(s) over %d key(s)", len(cyc), len(keys)),
		Cycle:   steps,
	}
}
