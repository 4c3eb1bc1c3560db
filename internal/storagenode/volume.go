package storagenode

import (
	"sort"
	"time"

	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/wal"
)

// Volume is an Aurora-style quorum-replicated storage volume: R replicas
// spread over AZs, a write quorum W and read quorum Rq with W + Rq > R so
// every read quorum intersects every write quorum (§2.1: 6 replicas over 3
// AZs, W=4, Rq=3 — tolerating an entire AZ plus one more node for reads).
type Volume struct {
	cfg      *sim.Config
	Replicas []*Replica
	// nearest is Replicas in ReadPage's order: by network distance, which
	// is fixed when a replica is built.
	nearest []*Replica
	WriteQ  int
	ReadQ   int
	meter   *sim.Meter
}

// NewAuroraVolume builds the canonical 6-replica/3-AZ volume with W=4,
// R=3. Same-AZ replicas are network-closer than cross-AZ ones.
func NewAuroraVolume(cfg *sim.Config, layout heap.Layout) *Volume {
	v := &Volume{cfg: cfg, WriteQ: 4, ReadQ: 3, meter: sim.NewMeter(cfg.NICSlots)}
	for i := 0; i < 6; i++ {
		az := i / 2
		scale := 1.0 + 0.25*float64(az)
		v.Replicas = append(v.Replicas, NewReplica(cfg, replicaName(i), az, layout, scale))
	}
	v.sortNearest()
	return v
}

func (v *Volume) sortNearest() {
	v.nearest = append([]*Replica(nil), v.Replicas...)
	sort.Slice(v.nearest, func(i, j int) bool { return v.nearest[i].netScale < v.nearest[j].netScale })
}

func replicaName(i int) string {
	return "sn-" + string(rune('a'+i))
}

// Alive reports the number of healthy replicas.
func (v *Volume) Alive() int {
	n := 0
	for _, r := range v.Replicas {
		if !r.Failed() {
			n++
		}
	}
	return n
}

// FailAZ crashes every replica in the given AZ.
func (v *Volume) FailAZ(az int) {
	for _, r := range v.Replicas {
		if r.AZ == az {
			r.Fail()
		}
	}
}

// WriteAvailable reports whether a write quorum is reachable.
func (v *Volume) WriteAvailable() bool { return v.Alive() >= v.WriteQ }

// ReadAvailable reports whether a read quorum is reachable.
func (v *Volume) ReadAvailable() bool { return v.Alive() >= v.ReadQ }

// AppendLog ships the encoded records, sorted by LSN, to all alive replicas
// in parallel and returns when the write quorum has acknowledged: the
// caller's clock advances by the W-th fastest replica acknowledgement. Every
// alive replica ultimately receives the records (slow acks are still in
// flight). Fault injection acts per replica delivery: a dropped delivery
// loses that replica's copy, a torn one lands only a prefix there — the
// append still succeeds if W deliveries land whole, else the caller sees the
// fault.
//
// A replica holds what it is delivered undecided until the writer's
// decision reaches it (Replica.hold). With W acks the decision is commit,
// delivered at once to every replica holding the records, uncharged: it
// rides the next message, as Aurora's durable point does. Without them the
// writer decides the records as aborts, and Heal ships those aborts over
// the held copies — a failed append leaves nothing a replica materialises
// or serves.
func (v *Volume) AppendLog(c *sim.Clock, recs []wal.Record) error {
	// Admission gate on the volume's quorum meter: shed the append under
	// overload before any per-replica delivery or charge.
	if err := v.cfg.Admit(c, "volume.append", v.meter); err != nil {
		return err
	}
	op := v.cfg.Begin(c, "volume.append")
	if !v.WriteAvailable() {
		op.End(0)
		return ErrNoQuorum
	}
	n := wal.Size(recs)
	var ackBuf [8]time.Duration // one per replica, on the stack for up to eight
	acks := ackBuf[:0]
	var faultErr error
	for _, r := range v.Replicas {
		if r.Failed() {
			continue
		}
		f := v.cfg.Inject(c, "volume.ingest")
		if f.Drop {
			faultErr = f.FaultErr()
			continue
		}
		deliver := recs
		if f.Torn {
			deliver = recs[:len(recs)/2]
			faultErr = f.FaultErr()
		}
		if !r.hold(deliver) {
			continue
		}
		if f.Duplicate {
			r.hold(deliver)
		}
		if f.Torn {
			continue // prefix landed but this replica does not ack
		}
		acks = append(acks, r.netCost(n))
	}
	if len(acks) < v.WriteQ {
		op.End(0)
		if faultErr != nil {
			return faultErr
		}
		return ErrNoQuorum
	}
	for _, r := range v.Replicas {
		r.decide(recs, r.pendLocked)
	}
	v.meter.ChargeQuorum(c, acks, v.WriteQ)
	op.End(int64(n))
	return nil
}

// ReadPage reads the page at or above minLSN from the nearest replica that
// can serve it. Under normal operation Aurora reads from a single
// up-to-date replica (no read quorum on the fast path); quorum reads are
// only needed during recovery, which FindHighLSN models.
func (v *Volume) ReadPage(c *sim.Clock, id page.ID, minLSN wal.LSN) ([]byte, error) {
	var lastErr error = ErrNoQuorum
	for _, r := range v.nearest {
		data, err := r.ReadPage(c, id, minLSN)
		if err == nil {
			return data, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// FindHighLSN performs the read-quorum recovery protocol: poll a read
// quorum of replicas for their high LSNs and return the highest LSN known
// to be write-quorum durable (the maximum LSN seen, since an acked write
// reached W replicas and Rq intersects every W). The caller's clock pays
// one round trip to the Rq-th fastest replica.
func (v *Volume) FindHighLSN(c *sim.Clock) (wal.LSN, error) {
	var acks []time.Duration
	var high wal.LSN
	for _, r := range v.Replicas {
		if r.Failed() {
			continue
		}
		acks = append(acks, r.netCost(16))
		high = max(high, r.HighLSN())
	}
	if len(acks) < v.ReadQ {
		return 0, ErrNoQuorum
	}
	v.meter.ChargeQuorum(c, acks, v.ReadQ)
	return high, nil
}

// Heal catches every alive replica up from the authoritative log,
// restoring quorum freshness after injected drops or torn deliveries left
// holes no peer can fill. Returns the total records shipped.
func (v *Volume) Heal(c *sim.Clock, log *wal.Log) int {
	_, shipped := Converge(c, v.Replicas, log, 0)
	return shipped
}

// Converge brings every alive replica of a group up to date, one after
// another on c: each catches up from log (CatchUpFromLog; none when log is
// nil), then adopts the checkpoint horizon h (AdvanceHorizon; none when h
// is 0). Replicas that are down learn both later, through repair or
// gossip's CatchUpFrom image adoption. Returns the replicas reached and the
// records shipped.
func Converge(c *sim.Clock, rs []*Replica, log *wal.Log, h wal.LSN) (alive, shipped int) {
	for _, r := range rs {
		if r.Failed() {
			continue
		}
		alive++
		if log != nil {
			shipped += r.CatchUpFromLog(c, log)
		}
		if h > 0 {
			r.AdvanceHorizon(c, h)
		}
	}
	return alive, shipped
}

// RepairReplica restores a crashed replica and catches it up from the
// nearest healthy peer, returning the number of records shipped.
func (v *Volume) RepairReplica(c *sim.Clock, i int, log *wal.Log) (int, error) {
	r := v.Replicas[i]
	r.Restart()
	for _, peer := range v.Replicas {
		if peer == r || peer.Failed() {
			continue
		}
		return r.CatchUpFrom(c, peer, log)
	}
	return 0, ErrNoQuorum
}
