package offload

import (
	"encoding/binary"
	"errors"

	"github.com/disagglab/disagg/internal/rdma"
	"github.com/disagglab/disagg/internal/sim"
)

// RegisterRowHandlers installs the row-returning pushdown ("filter rows"),
// used by the E13 selectivity sweep: unlike an aggregate, its result size
// grows with selectivity, so the pushdown advantage shrinks as selectivity
// approaches one.
func (rc *RemoteColumns) registerRowHandlers() {
	rc.pool.Node().Handle("teleport.filterrows", rc.handleFilterRows)
}

// PullFilterRows pages both columns in and returns the out-column values
// of matching rows (client-side evaluation).
func (rc *RemoteColumns) PullFilterRows(c *sim.Clock, qp *rdma.QP, predCol string, lo, hi int64, outCol string) ([]int64, error) {
	var out []int64
	if err := rc.filter(c, qp, predCol, lo, hi, outCol, func(n int) {
		out = make([]int64, 0, n)
	}, func(v int64) {
		out = append(out, v)
	}); err != nil {
		return nil, err
	}
	c.Advance(rc.cfg.CPU.Cost(rc.rows * 16))
	return out, nil
}

// PushFilterRows offloads the filter and transfers back only matching rows.
func (rc *RemoteColumns) PushFilterRows(c *sim.Clock, qp *rdma.QP, predCol string, lo, hi int64, outCol string) ([]int64, error) {
	if err := rc.Sync(c, qp); err != nil {
		return nil, err
	}
	resp, err := qp.Call(c, "teleport.filterrows", encodeFilterSumReq(predCol, lo, hi, outCol))
	if err != nil {
		return nil, err
	}
	if len(resp) < 4 {
		return nil, errors.New("offload: bad filterrows response")
	}
	n := int(binary.LittleEndian.Uint32(resp))
	if len(resp) < 4+n*8 {
		return nil, errors.New("offload: truncated filterrows response")
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(resp[4+i*8:]))
	}
	return out, nil
}

func (rc *RemoteColumns) handleFilterRows(c *sim.Clock, req []byte) []byte {
	predCol, lo, hi, outCol, err := decodeFilterSumReq(req)
	if err != nil {
		return nil
	}
	var resp, vals []byte
	if rc.filter(c, nil, predCol, lo, hi, outCol, func(n int) {
		resp = make([]byte, 4+n*8)
		binary.LittleEndian.PutUint32(resp, uint32(n))
		vals = resp[4:]
	}, func(v int64) {
		binary.LittleEndian.PutUint64(vals, uint64(v))
		vals = vals[8:]
	}) != nil {
		return nil
	}
	c.Advance(rc.cfg.DRAM.Cost(rc.rows * 16))
	return resp
}
