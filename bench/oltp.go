package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/aurora"
	"github.com/disagglab/disagg/internal/engine/legobase"
	"github.com/disagglab/disagg/internal/engine/monolithic"
	"github.com/disagglab/disagg/internal/engine/pilotdb"
	"github.com/disagglab/disagg/internal/engine/polardb"
	"github.com/disagglab/disagg/internal/engine/serverless"
	"github.com/disagglab/disagg/internal/engine/sharednothing"
	"github.com/disagglab/disagg/internal/engine/snowflake"
	"github.com/disagglab/disagg/internal/engine/socrates"
	"github.com/disagglab/disagg/internal/engine/taurus"
	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/sim"
)

// engineNames is the roster in the order every per-engine metric uses.
var engineNames = []string{
	"monolithic", "shared-nothing", "aurora", "socrates", "taurus",
	"polardb", "legobase", "pilotdb", "snowflake-kv", "serverless",
}

// groupEngines are the engine.GroupCommitter architectures.
var groupEngines = []string{"aurora", "socrates", "taurus", "polardb"}

func oltpLayout() heap.Layout {
	l, err := heap.NewLayout(8192, 96)
	if err != nil {
		panic(err) // constant arguments: only a bug fails here
	}
	return l
}

// buildEngine constructs one architecture. With small=false the sizing is
// the conformance roster's (harness.e26Engines: 1024-page caches, so a
// 512-key working set is resident). With small=true compute caches hold 64
// pages and the remote tiers 256, an eighth and a half of the oltp_miss
// working set; shared-nothing and snowflake-kv have no page cache to
// shrink and stay as control rows.
func buildEngine(name string, cfg *sim.Config, l heap.Layout, small bool) engine.Engine {
	pool := 1024
	if small {
		pool = 64
	}
	switch name {
	case "monolithic":
		return monolithic.New(cfg, l, pool)
	case "shared-nothing":
		return sharednothing.New(cfg, l, 4)
	case "aurora":
		return aurora.New(cfg, l, pool, 1)
	case "socrates":
		return socrates.New(cfg, l, pool, 2)
	case "taurus":
		return taurus.New(cfg, l, pool, 3)
	case "polardb":
		return polardb.New(cfg, l, pool)
	case "legobase":
		if small {
			return legobase.New(cfg, l, 16, 256)
		}
		return legobase.New(cfg, l, 64, 4096)
	case "pilotdb":
		return pilotdb.New(cfg, l, pool, pilotdb.Pilot())
	case "snowflake-kv":
		return snowflake.NewKV(cfg, l)
	case "serverless":
		if small {
			return serverless.New(cfg, l, 2, 16, 256)
		}
		return serverless.New(cfg, l, 2, 64, 4096)
	}
	panic("bench: unknown engine " + name)
}

// oltpSpec sizes one oltp_* workload. Op counts are per round; a run
// executes whole rounds until its time is up.
type oltpSpec struct {
	name     string
	engines  []string
	small    bool
	clients  int    // virtual clients per engine (1: no goroutines)
	keys     uint64 // keys per client (single client: the whole keyspace)
	hotKeys  uint64 // shared keys all clients write (oltp_group)
	hotPct   int    // share of txns on a hot key
	readPct  int    // share of read-only txns
	perRound int    // txns per client per engine per round
}

var oltpSpecs = map[string]oltpSpec{
	"oltp_commit": {name: "oltp_commit", engines: engineNames, clients: 1, keys: 512, perRound: 5000},
	"oltp_miss":   {name: "oltp_miss", engines: engineNames, small: true, clients: 1, keys: 40000, readPct: 90, perRound: 5000},
	"oltp_group":  {name: "oltp_group", engines: groupEngines, clients: 8, keys: 64, hotKeys: 64, hotPct: 5, perRound: 1000},
}

// simRounds is how many leading rounds feed the simulated statistics. The
// count is fixed so those statistics depend on the seed alone, never on
// how many rounds the host had time for.
const simRounds = 2

// preloadBatch is how many keys one preload or read-back transaction
// touches; batching keeps set-up and verification short.
const preloadBatch = 64

// fillValue writes the value of (key, seq) under seed into dst: the
// identifying pair followed by a splitmix64 stream, so any stale or
// foreign value fails a byte comparison.
func fillValue(dst []byte, seed int64, key, seq uint64) {
	binary.LittleEndian.PutUint64(dst[0:], key)
	binary.LittleEndian.PutUint64(dst[8:], seq)
	x := uint64(seed) ^ key*0x9e3779b97f4a7c15 ^ seq*0xbf58476d1ce4e5b9
	for off := 16; off+8 <= len(dst); off += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(dst[off:], z^(z>>31))
	}
}

// client is one closed-loop caller: its own clock, generator and reference
// entries for the keys only it writes.
type client struct {
	rng   *rand.Rand
	clock time.Duration // virtual time carried between rounds
	base  uint64        // first private key
	ref   []uint64      // ref[k-base] = seq of the last acknowledged write
	seq   uint64
	// acked holds every (hot key, seq) this client was acknowledged for;
	// a hot key may legally end on any of them.
	acked map[[2]uint64]struct{}
	tr    *tracer
	op    int64 // id of the current transaction, shared by its spans
	// Over the first simRounds rounds: commits and the virtual time they took.
	simCommits int
	simSpan    time.Duration

	// Reused across transactions so the driver itself allocates nothing.
	key      uint64
	val      []byte
	readOnly bool
	fn       func(tx engine.Tx) error
}

// target is one engine under test with its clients and what was measured
// on it.
type target struct {
	name    string
	e       engine.Engine
	caps    engine.Capability
	admin   *sim.Clock // single client: the client's clock; group: checkpoints
	clients []*client
	hotBase uint64

	host   cost    // summed over every round
	lat    []int64 // simulated ns per committed txn, first simRounds rounds
	before statSnap
	after  statSnap
	failed int64
}

// statSnap is the part of engine.Stats the benchmark reports on, indexed
// by the st* constants so snapshots subtract and add field by field.
type statSnap [nStats]int64

const (
	stAttempts = iota
	stCommits
	stAborts
	stShed
	stNetBytes
	stHits
	stMisses
	stRetries
	stGroupCommits
	stFlushes
	nStats
)

func snapStats(e engine.Engine) statSnap {
	s := e.Stats()
	return statSnap{
		stAttempts: s.Attempts.Load(), stCommits: s.Commits.Load(), stAborts: s.Aborts.Load(), stShed: s.Shed.Load(),
		stNetBytes: s.NetBytes.Load(), stHits: s.CacheHits.Load(), stMisses: s.CacheMisses.Load(),
		stRetries: s.Retries.Load(), stGroupCommits: s.GroupCommits.Load(), stFlushes: s.GroupFlushes.Load(),
	}
}

// plus returns a + k*b; k is 1 or -1.
func (a statSnap) plus(k int64, b statSnap) statSnap {
	for i := range a {
		a[i] += k * b[i]
	}
	return a
}

// oltpRun is one workload instance: engines built, preloaded and warm.
type oltpRun struct {
	spec    oltpSpec
	seed    int64
	layout  heap.Layout
	targets []*target
	opts    engine.RunOpts
	rounds  int
	tr      *tracer // the driver goroutine's spans
}

// setupOLTP builds every engine of the workload with empty caches, preloads
// each client's keys in batches, then reads every key once so that timing
// starts warm. cfg carries the stats registry in the traced pass.
func setupOLTP(spec oltpSpec, seed int64, cfg *sim.Config, log *traceLog) (*oltpRun, error) {
	r := &oltpRun{spec: spec, seed: seed, layout: oltpLayout(), tr: log.tracer()}
	if spec.clients > 1 {
		r.opts = engine.RunOpts{Retries: groupRetries}
	}
	for ei, name := range spec.engines {
		t := &target{name: name, e: buildEngine(name, cfg.Clone(), r.layout, spec.small), admin: sim.NewClock()}
		t.caps = engine.Caps(t.e)
		t.lat = make([]int64, 0, simRounds*spec.perRound*spec.clients)
		if spec.clients > 1 {
			t.caps.GroupCommitter.EnableGroupCommit(8, 50*time.Microsecond)
		}
		t.hotBase = uint64(spec.clients) * spec.keys
		for id := 0; id < spec.clients; id++ {
			cl := &client{
				rng:  sim.NewRand(seed, ei*64+id),
				base: uint64(id) * spec.keys,
				ref:  make([]uint64, spec.keys),
				op:   int64(ei*64+id) << 32,
				val:  make([]byte, r.layout.ValSize),
			}
			if spec.hotKeys > 0 {
				cl.acked = make(map[[2]uint64]struct{})
			}
			if spec.clients > 1 {
				cl.tr = log.tracer()
			} else {
				cl.tr = r.tr
			}
			cl.fn = func(tx engine.Tx) error {
				if _, err := tx.Read(cl.key); err != nil {
					return err
				}
				if cl.readOnly {
					return nil
				}
				return tx.Write(cl.key, cl.val)
			}
			t.clients = append(t.clients, cl)
		}
		if err := r.preload(t); err != nil {
			return nil, fmt.Errorf("%s: preload %s: %w", spec.name, name, err)
		}
		r.targets = append(r.targets, t)
	}
	return r, nil
}

// preloadCheckpoint is how many preloaded keys go between checkpoints:
// several engines replay their whole log tail on every page miss, so an
// uncheckpointed preload makes set-up (and the first timed round) cost
// seconds per engine.
const preloadCheckpoint = 5000

// preload writes seq 1 of every private key and seq 1 (from client 0) of
// every hot key, checkpoints, then reads them all back once to warm the
// caches.
func (r *oltpRun) preload(t *target) error {
	c := t.admin
	batch := make([]uint64, 0, preloadBatch)
	written := 0
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := engine.Run(t.e, c, engine.RunOpts{}, func(tx engine.Tx) error {
			for _, k := range batch {
				v := make([]byte, r.layout.ValSize)
				fillValue(v, r.seed, k, 1)
				if err := tx.Write(k, v); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		written += len(batch)
		batch = batch[:0]
		if written >= preloadCheckpoint {
			written = 0
			return r.checkpoint(t, c)
		}
		return nil
	}
	for _, cl := range t.clients {
		cl.seq = 1
		for i := range cl.ref {
			cl.ref[i] = 1
			batch = append(batch, cl.base+uint64(i))
			if len(batch) == preloadBatch {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		if err := flush(); err != nil {
			return err
		}
	}
	for k := uint64(0); k < r.spec.hotKeys; k++ {
		t.clients[0].acked[[2]uint64{t.hotBase + k, 1}] = struct{}{}
		batch = append(batch, t.hotBase+k)
	}
	if err := flush(); err != nil {
		return err
	}
	if err := r.checkpoint(t, c); err != nil {
		return err
	}
	if bad := r.readBack(t, nil); bad != "" {
		return fmt.Errorf("warm read-back: %s", bad)
	}
	for _, cl := range t.clients {
		cl.clock = c.Now()
	}
	return nil
}

// next draws the client's next transaction into its reusable fields and
// reports whether the key is a shared hot key.
func (r *oltpRun) next(t *target, cl *client) (hot bool) {
	cl.op++
	sp := cl.tr.begin("workload.next", cl.op, "")
	s := &r.spec
	if s.hotPct > 0 && cl.rng.Intn(100) < s.hotPct {
		hot = true
		cl.key = t.hotBase + uint64(cl.rng.Int63n(int64(s.hotKeys)))
	} else {
		cl.key = cl.base + uint64(cl.rng.Int63n(int64(s.keys)))
	}
	cl.readOnly = s.readPct > 0 && cl.rng.Intn(100) < s.readPct
	if !cl.readOnly {
		cl.seq++
		fillValue(cl.val, r.seed, cl.key, cl.seq)
	}
	cl.tr.end(sp, "")
	return hot
}

// drive runs n transactions of cl on t on clock c, recording acknowledged
// writes in the reference and, while lat is non-nil, the simulated latency
// of each commit and the client's simulated span. It returns the number of
// transactions that failed.
func (r *oltpRun) drive(t *target, cl *client, c *sim.Clock, n int, lat *[]int64) (failed int64) {
	if lat != nil {
		begin := c.Now()
		defer func() {
			cl.simSpan += c.Now() - begin
			cl.simCommits += n - int(failed)
		}()
	}
	for i := 0; i < n; i++ {
		hot := r.next(t, cl)
		start := c.Now()
		sp := cl.tr.begin("engine.run", cl.op, t.name)
		err := engine.Run(t.e, c, r.opts, cl.fn)
		if err != nil {
			cl.tr.end(sp, "failed")
			failed++
			continue
		}
		cl.tr.end(sp, "committed")
		if lat != nil {
			*lat = append(*lat, int64(c.Now()-start))
		}
		if cl.readOnly {
			continue
		}
		if hot {
			cl.acked[[2]uint64{cl.key, cl.seq}] = struct{}{}
		} else {
			cl.ref[cl.key-cl.base] = cl.seq
		}
	}
	return failed
}

// checkpoint runs one checkpoint round on engines that bound recovery.
func (r *oltpRun) checkpoint(t *target, c *sim.Clock) error {
	if t.caps.Checkpointer == nil {
		return nil
	}
	sp := r.tr.begin("engine.checkpoint", 0, t.name)
	err := t.caps.Checkpointer.Checkpoint(c)
	r.tr.end(sp, "")
	if err != nil {
		return fmt.Errorf("%s: checkpoint %s: %w", r.spec.name, t.name, err)
	}
	return nil
}

// round runs one round — every engine in turn, perRound transactions per
// client, then a checkpoint — and returns its host cost.
func (r *oltpRun) round() (cost, error) {
	var total cost
	n := r.spec.perRound
	sims := r.rounds < simRounds
	for _, t := range r.targets {
		if r.rounds == 0 {
			t.before = snapStats(t.e)
		}
		var lat *[]int64
		if sims {
			lat = &t.lat
		}
		a := readCounters()
		if r.spec.clients == 1 {
			t.failed += r.drive(t, t.clients[0], t.admin, n, lat)
			if err := r.checkpoint(t, t.admin); err != nil {
				return total, err
			}
		} else {
			if err := r.groupRound(t, n, sims); err != nil {
				return total, err
			}
		}
		c := a.until(readCounters(), int64(n*r.spec.clients))
		t.host.add(c)
		total.add(c)
		if r.rounds == simRounds-1 {
			t.after = snapStats(t.e)
		}
	}
	r.rounds++
	return total, nil
}

// groupRound runs the clients of t concurrently under sim.RunGroup. Each
// worker resumes its client's virtual time (RunGroup hands out clocks at
// zero, and a rewound clock would read every meter as saturated).
func (r *oltpRun) groupRound(t *target, n int, sims bool) error {
	lats := make([][]int64, len(t.clients))
	fails := make([]int64, len(t.clients))
	sim.RunGroup(len(t.clients), func(id int, c *sim.Clock) int {
		cl := t.clients[id]
		c.AdvanceTo(cl.clock)
		var lat *[]int64
		if sims {
			lat = &lats[id]
		}
		fails[id] = r.drive(t, cl, c, n, lat)
		cl.clock = c.Now()
		return n
	})
	var end time.Duration
	for id, cl := range t.clients {
		end = max(end, cl.clock)
		t.failed += fails[id]
		t.lat = append(t.lat, lats[id]...)
	}
	t.admin.AdvanceTo(end)
	return r.checkpoint(t, t.admin)
}

// readBack reads every key through engine.Run and compares it with the
// reference; it returns "" or the first mismatch. A private key must hold
// exactly its last acknowledged write; a hot key must hold a value some
// client was acknowledged for. tr, when non-nil, records verify.read spans.
func (r *oltpRun) readBack(t *target, tr *tracer) string {
	want := make([]byte, r.layout.ValSize)
	check := func(keys []uint64, expect func(key uint64, got []byte) string) string {
		got := make([][]byte, len(keys))
		sp := tr.begin("verify.read", 0, t.name)
		err := engine.Run(t.e, t.admin, engine.RunOpts{Retries: 8}, func(tx engine.Tx) error {
			for i, k := range keys {
				v, err := tx.Read(k)
				if err != nil {
					return err
				}
				got[i] = v
			}
			return nil
		})
		tr.end(sp, "")
		if err != nil {
			return fmt.Sprintf("%s: read-back of keys %d..%d: %v", t.name, keys[0], keys[len(keys)-1], err)
		}
		for i, k := range keys {
			if bad := expect(k, got[i]); bad != "" {
				return bad
			}
		}
		return ""
	}
	batch := make([]uint64, 0, preloadBatch)
	for _, cl := range t.clients {
		expect := func(key uint64, got []byte) string {
			fillValue(want, r.seed, key, cl.ref[key-cl.base])
			if !bytes.Equal(got, want) {
				return fmt.Sprintf("%s: key %d does not hold its last acknowledged write (seq %d)", t.name, key, cl.ref[key-cl.base])
			}
			return ""
		}
		for i := range cl.ref {
			batch = append(batch, cl.base+uint64(i))
			if len(batch) == preloadBatch || i == len(cl.ref)-1 {
				if bad := check(batch, expect); bad != "" {
					return bad
				}
				batch = batch[:0]
			}
		}
	}
	if r.spec.hotKeys == 0 {
		return ""
	}
	for k := uint64(0); k < r.spec.hotKeys; k++ {
		batch = append(batch, t.hotBase+k)
	}
	return check(batch, func(key uint64, got []byte) string {
		if len(got) != len(want) || binary.LittleEndian.Uint64(got) != key {
			return fmt.Sprintf("%s: hot key %d holds a foreign value", t.name, key)
		}
		seq := binary.LittleEndian.Uint64(got[8:])
		fillValue(want, r.seed, key, seq)
		if !bytes.Equal(got, want) {
			return fmt.Sprintf("%s: hot key %d holds a corrupt value", t.name, key)
		}
		for _, cl := range t.clients {
			if _, ok := cl.acked[[2]uint64{key, seq}]; ok {
				return ""
			}
		}
		return fmt.Sprintf("%s: hot key %d holds seq %d, which no client was acknowledged for", t.name, key, seq)
	})
}

// verify checks the run's outputs and returns the failures. After
// oltp_commit it also crashes and recovers every engine.Recoverer (the
// simulator's crash: volatile state really is discarded) and requires every
// acknowledged write to read back again.
func (r *oltpRun) verify() (failures []string) {
	fail := func(bad string) {
		if bad != "" {
			failures = append(failures, bad)
		}
	}
	for _, t := range r.targets {
		fail(r.readBack(t, r.tr))
		if s := snapStats(t.e); s[stAttempts] != s[stCommits]+s[stAborts]+s[stShed] {
			fail(fmt.Sprintf("%s: attempts %d != commits %d + aborts %d + shed %d", t.name, s[stAttempts], s[stCommits], s[stAborts], s[stShed]))
		}
		if r.spec.name != "oltp_commit" || t.caps.Recoverer == nil {
			continue
		}
		t.caps.Recoverer.Crash()
		sp := r.tr.begin("engine.recover", 0, t.name)
		_, err := t.caps.Recoverer.Recover(t.admin)
		r.tr.end(sp, "")
		if err != nil {
			fail(fmt.Sprintf("%s: recover: %v", t.name, err))
			continue
		}
		fail(r.readBack(t, r.tr))
	}
	return failures
}

// simStats are one engine's simulated results over the first simRounds
// rounds: the product, as opposed to the host price of computing it.
type simStats struct {
	Samples    int     `json:"samples"`
	P50Us      float64 `json:"p50_us"`
	P99Us      float64 `json:"p99_us"`
	MeanUs     float64 `json:"mean_us"`
	TxnPerS    float64 `json:"txn_per_s"`
	NetBPerTxn float64 `json:"net_bytes_per_commit"`
	HitRatio   float64 `json:"hit_ratio"`
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// failedOps counts the transactions of the run that returned an error.
func (r *oltpRun) failedOps() (n int64) {
	for _, t := range r.targets {
		n += t.failed
	}
	return n
}

func (t *target) sim() simStats {
	d := t.after.plus(-1, t.before)
	s := simStats{
		Samples:    len(t.lat),
		NetBPerTxn: ratio(d[stNetBytes], d[stCommits]),
		HitRatio:   ratio(d[stHits], d[stHits]+d[stMisses]),
	}
	if len(t.lat) == 0 {
		return s
	}
	sorted := append([]int64(nil), t.lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum int64
	for _, v := range sorted {
		sum += v
	}
	at := func(q float64) float64 { return float64(sorted[int(q*float64(len(sorted)-1))]) / 1e3 }
	s.P50Us, s.P99Us = at(0.50), at(0.99)
	s.MeanUs = float64(sum) / float64(len(sorted)) / 1e3
	// Closed-loop throughput is the sum of the clients' own completion rates.
	for _, cl := range t.clients {
		if cl.simSpan > 0 {
			s.TxnPerS += float64(cl.simCommits) / cl.simSpan.Seconds()
		}
	}
	return s
}

// groupRetries bounds conflict retries in oltp_group. A lock holder parked
// in a group flush is descheduled in real time while a conflicting client
// retries at full speed, so the issue's 50 is exhausted a few times per
// 300k transactions on two cores; 2000 never was in sizing runs.
const groupRetries = 2000
